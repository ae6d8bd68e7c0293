import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import oracle
from conftest import run_python
from flipaudit import (
    AuditFrame,
    DebiasError,
    ValidationError,
    sp_equalizing_debiaser,
)
from flipaudit.debias import _minimal_flip_split, make_sp_debiaser, place, plan_split

# Epsilons that land exactly on rate grids, where float rounding decides ties.
GRID_EPSILONS = (0.05, 0.15, 0.3, 0.125)


def random_labeled_groups(rng, max_n):
    n = int(rng.integers(2, max_n + 1))
    while True:
        group = rng.integers(0, 2, size=n)
        if group.any() and not group.all():
            break
    return rng.integers(0, 2, size=n), group


class TestSpEqualizingDebiaser:
    def test_two_group_example(self):
        # 4/5 vs 3/5 positive: one flip suffices to reach |SP| <= 0.1.
        labels = np.array([1, 1, 1, 1, 0, 1, 1, 1, 0, 0])
        group = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        corrected = sp_equalizing_debiaser(labels, group, epsilon=0.1, rng_seed=4)
        assert oracle.within(oracle.sp_difference(corrected, group), 0.1)
        flips = int((corrected != labels).sum())
        assert flips == oracle.min_sp_flips(labels.tolist(), group.tolist(), 0.1)

    def test_already_within_epsilon_is_identity(self):
        labels = np.array([1, 0, 1, 0])
        group = np.array([0, 0, 1, 1])
        corrected = sp_equalizing_debiaser(labels, group, epsilon=0.1)
        assert np.array_equal(corrected, labels)

    @pytest.mark.parametrize("epsilon", [0.1, 1.0])  # flips, and the early return
    def test_result_is_read_only_and_kept_by_frame(self, epsilon):
        labels = np.array([1, 1, 1, 1, 0, 1, 1, 1, 0, 0])
        group = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        corrected = sp_equalizing_debiaser(labels, group, epsilon)
        with pytest.raises(ValueError, match="read-only"):
            corrected[0] = 0
        frame = AuditFrame(labels, labels, group)
        assert frame.with_corrected(corrected).y_corrected is corrected

    def test_epsilon_one_never_flips(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            labels, group = random_labeled_groups(rng, 30)
            corrected = sp_equalizing_debiaser(labels, group, epsilon=1.0)
            assert np.array_equal(corrected, labels)

    def test_contract_on_random_frames(self):
        rng = np.random.default_rng(31)
        epsilon = 0.1
        for _ in range(200):
            labels, group = random_labeled_groups(rng, 80)
            corrected = sp_equalizing_debiaser(labels, group, epsilon,
                                               rng_seed=int(rng.integers(1 << 30)))
            assert oracle.within(oracle.sp_difference(corrected, group), epsilon)
            changed = corrected != labels
            # Over-favored group only loses positives, under-favored only gains.
            sp = oracle.sp_difference(labels, group)
            if oracle.within(sp, epsilon):
                assert not changed.any()
                continue
            over = 0 if sp > 0 else 1
            for idx in np.flatnonzero(changed):
                if group[idx] == over:
                    assert labels[idx] == 1 and corrected[idx] == 0
                else:
                    assert labels[idx] == 0 and corrected[idx] == 1

    def test_minimality_at_desk_scale(self):
        rng = np.random.default_rng(47)
        epsilon = 0.1
        checked = 0
        for _ in range(120):
            labels, group = random_labeled_groups(rng, 20)
            try:
                corrected = sp_equalizing_debiaser(labels, group, epsilon)
            except DebiasError:
                assert oracle.min_sp_flips(labels.tolist(), group.tolist(),
                                           epsilon) is None
                continue
            flips = int((corrected != labels).sum())
            best = oracle.min_sp_flips(labels.tolist(), group.tolist(), epsilon)
            assert flips == best
            checked += 1
        assert checked > 80

    def test_deterministic_under_seed(self):
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 1, 0, 0])
        group = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        a = sp_equalizing_debiaser(labels, group, 0.05, rng_seed=7)
        b = sp_equalizing_debiaser(labels, group, 0.05, rng_seed=7)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("idle", ["up", "down", "neither"])
    def test_placement_matches_full_shuffle_reference(self, idle):
        # With no up-flips the up shuffle is skipped, with no down-flips the
        # down shuffle runs on scratch, and with both each kind's candidates
        # are freed before the next are gathered; the bits must stay those of
        # shuffling both candidate sets, in order, from one seeded generator.
        rng = np.random.default_rng(11)
        checked = 0
        for seed in range(400):
            labels, group = random_labeled_groups(rng, 60)
            epsilon = float(rng.choice(GRID_EPSILONS))
            try:
                corrected = sp_equalizing_debiaser(labels, group, epsilon, rng_seed=seed)
            except DebiasError:
                continue
            down = int(np.sum((labels == 1) & (corrected == 0)))
            up = int(np.sum((labels == 0) & (corrected == 1)))
            idle_kinds = [kind for kind, k in (("down", down), ("up", up)) if not k]
            if idle_kinds != ([] if idle == "neither" else [idle]):
                continue
            over = int(labels[group == 1].mean() > labels[group == 0].mean())
            reference = labels.copy()
            draw = np.random.default_rng(seed)
            reference[draw.permutation(np.flatnonzero((group == over) & (labels == 1)))[:down]] = 0
            reference[draw.permutation(np.flatnonzero((group != over) & (labels == 0)))[:up]] = 1
            assert np.array_equal(corrected, reference)
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("epsilon", [0.1, 1.0])  # flips, and the early return
    def test_result_is_int8(self, epsilon):
        labels = np.array([1, 1, 1, 1, 0, 1, 1, 1, 0, 0], dtype=np.int64)
        group = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0], dtype=np.int64)
        assert sp_equalizing_debiaser(labels, group, epsilon).dtype == np.int8

    def test_unreachable_epsilon_reports_best_gap(self):
        # Rate grids 1/2 and 1/3 share no pair within 0.05 given the
        # one-directional flip constraint.
        labels = np.array([1, 0, 1, 0, 0])
        group = np.array([0, 0, 1, 1, 1])
        with pytest.raises(DebiasError, match="best achievable gap") as exc:
            sp_equalizing_debiaser(labels, group, epsilon=0.05)
        assert exc.value.best_gap == pytest.approx(1 / 6)

    def test_bad_epsilon(self):
        for epsilon in (0.0, -5.0, math.nan, math.inf, -math.inf, 10**400, "0.1", None):
            with pytest.raises(ValidationError) as exc:
                sp_equalizing_debiaser([1, 0], [0, 1], epsilon=epsilon)
            assert exc.value.code == "bad_epsilon"
            assert str(exc.value) == "epsilon must be a positive finite number"
            # The pipeline's binding checks too, before any gate runs.
            with pytest.raises(ValidationError) as exc:
                make_sp_debiaser(epsilon)
            assert exc.value.code == "bad_epsilon"

    def test_bad_seed(self):
        fair = ([1, 0, 1, 0], [0, 0, 1, 1])
        unfair = ([1, 1, 0, 0], [0, 0, 1, 1])
        for seed in (-1, 1.5, "7", None):
            for labels, group in (fair, unfair):
                with pytest.raises(ValidationError) as exc:
                    sp_equalizing_debiaser(labels, group, 0.1, rng_seed=seed)
                assert exc.value.code == "bad_seed"
            with pytest.raises(ValidationError) as exc:
                make_sp_debiaser(0.1, seed)
            assert exc.value.code == "bad_seed"

    @staticmethod
    def debias_1m(pos_over=300_000, n_over=599_999, pos_under=159_600, n_under=400_001):
        """debias-1m's counts, shuffled: group 0 over-favored, and a 401-flip repair.

        Returns the frozen, owning labels and group (shared, not copied, by
        the debiaser) and the size of the larger candidate set.
        """
        group = np.repeat(np.array([0, 1], np.int8), [n_over, n_under])
        labels = np.concatenate([np.arange(n_over) < pos_over,
                                 np.arange(n_under) < pos_under]).astype(np.int8)
        order = np.random.default_rng(0).permutation(group.size)
        group, labels = group[order], labels[order]
        for vec in (group, labels):
            vec.setflags(write=False)
        return labels, group, max(pos_over, n_under - pos_under)

    def test_scratch_does_not_grow_with_rows(self, traced_peak):
        labels, group, candidates = self.debias_1m()
        corrected, peak = traced_peak(sp_equalizing_debiaser, labels, group, 0.1)
        assert int(np.count_nonzero(corrected != labels)) == 401
        # The corrected copy and one candidate mask, the larger candidate set's
        # indices, and fixed scratch.
        assert peak <= 2 * group.size + 8 * candidates + 2**20

    def test_placement_holds_no_row_mask_or_wide_indices(self, traced_peak):
        labels, group, candidates = self.debias_1m()
        corrected, peak = traced_peak(sp_equalizing_debiaser, labels, group, 0.1)
        assert int(np.count_nonzero(corrected != labels)) == 401
        # The corrected copy, the larger candidate set's int32 indices, and
        # fixed scratch: no mask over all rows, no int64 indices.
        assert peak <= group.size + 4 * candidates + 2**20

    def test_labels_are_copied_after_the_flips_are_drawn(self, traced_peak):
        labels, group, candidates = self.debias_1m()
        corrected, peak = traced_peak(sp_equalizing_debiaser, labels, group, 0.1)
        assert int(np.count_nonzero(corrected != labels)) == 401
        # The corrected copy or the larger candidate set's int32 indices, never
        # both at once, and fixed scratch.
        assert peak <= max(group.size, 4 * candidates) + 2**19

    def test_each_kind_is_freed_before_the_next_is_gathered(self, traced_peak):
        # 75,000 flips of each kind, from 300,000 down and 400,000 up candidates.
        labels, group, candidates = self.debias_1m(300_000, 500_000, 100_000, 500_000)
        corrected, peak = traced_peak(sp_equalizing_debiaser, labels, group, 0.1)
        flips = int(np.count_nonzero(corrected != labels))
        assert flips == 150_000
        # One kind's int32 indices or the corrected copy, the rows kept, and
        # fixed scratch.
        assert peak <= max(group.size, 4 * candidates) + 4 * flips + 2**19

    def test_missing_group(self):
        with pytest.raises(ValidationError):
            sp_equalizing_debiaser([1, 0], [1, 1], epsilon=0.1)

    def test_skewed_frame_flip_count_matches_oracle(self):
        # 100,000 rows at rate 1/2 against 3 rows at rate 0: the repair has to
        # bring the large group down to the small group's 1/3 grid point.
        labels = np.r_[np.ones(50_000, int), np.zeros(50_003, int)]
        group = np.r_[np.zeros(100_000, int), np.ones(3, int)]
        corrected = sp_equalizing_debiaser(labels, group, 1e-3, rng_seed=5)
        (down, up), _ = oracle.minimal_flip_split(50_000, 100_000, 0, 3, 1e-3)
        assert int((corrected != labels).sum()) == down + up
        assert int(corrected[group == 1].sum()) == up


def split_or_best_gap(pos_over, n_over, pos_under, n_under, epsilon):
    """``_minimal_flip_split`` in the oracle's return convention."""
    try:
        return _minimal_flip_split(pos_over, n_over, pos_under, n_under, epsilon), None
    except DebiasError as exc:
        return None, exc.best_gap


def random_flip_counts(rng, cases):
    """``cases`` random (pos_over, n_over, pos_under, n_under, epsilon) of up to 69 rows a group."""
    for _ in range(cases):
        n_over, n_under = (int(v) for v in rng.integers(1, 70, size=2))
        if rng.random() < 0.3:
            n_under = n_over
        yield (int(rng.integers(0, n_over + 1)), n_over,
               int(rng.integers(0, n_under + 1)), n_under,
               float(rng.choice(GRID_EPSILONS)) if rng.random() < 0.6
               else float(rng.uniform(1e-4, 0.6)))


@st.composite
def flip_counts(draw):
    n_over = draw(st.integers(1, 40))
    n_under = draw(st.one_of(st.just(n_over), st.integers(1, 40)))
    pos_over = draw(st.integers(0, n_over))
    pos_under = draw(st.integers(0, n_under))
    epsilon = draw(st.one_of(st.sampled_from(GRID_EPSILONS),
                             st.floats(1e-4, 0.6, allow_nan=False)))
    return pos_over, n_over, pos_under, n_under, epsilon


class TestMinimalFlipSplit:
    @given(flip_counts())
    def test_matches_oracle(self, counts):
        assert split_or_best_gap(*counts) == oracle.minimal_flip_split(*counts)

    def test_matches_oracle_on_random_counts(self):
        for counts in random_flip_counts(np.random.default_rng(53), 3000):
            assert split_or_best_gap(*counts) == oracle.minimal_flip_split(*counts), counts

    @pytest.mark.parametrize("block", [1, 7])
    def test_matches_oracle_across_blocks(self, block, monkeypatch):
        # Blocks this small make the downward scan, for a total or for the
        # best unreachable gap, span many blocks.
        monkeypatch.setattr("flipaudit.debias.BLOCK", block)
        for counts in random_flip_counts(np.random.default_rng(block), 1000):
            assert split_or_best_gap(*counts) == oracle.minimal_flip_split(*counts), counts

    @pytest.mark.parametrize("counts, split", [
        # Equal group sizes: every split of the winning total sits exactly on
        # a rate grid point next to epsilon. 0.15 and 0.3 as doubles lie below
        # 3/20 and 3/10, so a gap of exactly 3/20 or 3/10 fails; 0.05 lies
        # above 1/20, so a gap of exactly 1/20 passes.
        ((18, 20, 4, 20, 0.15), (6, 6)),
        ((15, 20, 1, 20, 0.3), (4, 5)),
        ((40, 40, 19, 40, 0.05), (9, 10)),
        # Both one-flip splits close the gap exactly; the smaller down wins.
        ((1, 1, 0, 1, 0.05), (0, 1)),
    ])
    def test_exact_ties(self, counts, split):
        assert _minimal_flip_split(*counts) == split
        assert oracle.minimal_flip_split(*counts) == (split, None)

    @pytest.mark.parametrize("counts", [
        # One down flip overshoots. With none, 0 up flips fall short and 1
        # overshoots, so the scan runs to 0 and finds nothing.
        (1, 2, 1, 3, 0.05),
        # The first down flip overshoots, by the least gap there is: 1/28.
        (2, 4, 2, 7, 0.01),
        (5, 7, 2, 3, 0.01),
        (2, 9, 1, 11, 0.001),
        (40, 41, 3, 4, 0.001),
    ])
    def test_unreachable_best_gap_is_exact(self, counts):
        want, best_gap = oracle.minimal_flip_split(*counts)
        assert want is None
        with pytest.raises(DebiasError) as exc:
            _minimal_flip_split(*counts)
        assert exc.value.best_gap == best_gap

    @pytest.mark.parametrize("counts, split", [
        # Flips must go to the large group; the small one overshoots.
        ((50_000, 100_000, 0, 3, 1e-3), (16_567, 1)),
        ((3, 3, 10_000, 100_000, 0.01), (2, 22_334)),
        ((500_000, 999_997, 0, 3, 1e-4), (166_568, 1)),
        # 3 down flips, the first split tried, overshoot; the scan finds 3 up
        # flips at 3 down flips fewer.
        ((3, 3, 1, 4, 0.05), (0, 3)),
    ])
    def test_skewed_shapes(self, counts, split):
        assert _minimal_flip_split(*counts) == split
        assert oracle.minimal_flip_split(*counts) == (split, None)

    def test_huge_epsilon_needs_no_flips(self):
        # A bound far past int64 is only ever compared in plain ints.
        assert _minimal_flip_split(300_000, 599_999, 159_600, 400_001, 1e300) == (0, 0)

    def test_benchmark_counts_solve_without_numpy(self):
        # debias-1m's and pipeline-50k's counts: the first x tried passes, in plain ints.
        proc = run_python(["-c", "import sys\n"
                           "from flipaudit.debias import _minimal_flip_split as solve\n"
                           "print(solve(300_000, 599_999, 159_600, 400_001, 0.1),\n"
                           "      solve(15_000, 29_999, 6_000, 20_001, 0.1), 'numpy' in sys.modules)"])
        assert (proc.returncode, proc.stdout) == (0, "(0, 401) (0, 2001) False\n"), proc.stderr

    @pytest.mark.parametrize("counts, bound, checked", [
        # debias-1m's counts, and ten times them: 240,401 and 2,404,010 up
        # choices against 300,000 and 3,000,000 down choices.
        pytest.param((300_000, 599_999, 159_600, 400_001, 0.1), 2 * 2**20, True, id="1"),
        pytest.param((3_000_000, 5_999_990, 1_596_000, 4_000_010, 0.1), 2 * 2**20, False,
                     id="10"),
        # No split reaches these epsilons. The first takes 3 up choices to
        # find the best gap, the second 401,437 up choices, in 7 blocks.
        pytest.param((300_000, 600_001, 200_000, 400_003, 1e-13), 3 * 2**20, False,
                     id="unreachable"),
        pytest.param((762_047, 838_706, 199_954, 661_887, 1e-13), 3 * 2**20, False,
                     id="unreachable-long"),
    ])
    def test_scratch_does_not_grow_with_counts(self, counts, bound, checked, traced_peak):
        result, peak = traced_peak(split_or_best_gap, *counts)
        if checked:
            assert result == oracle.minimal_flip_split(*counts)
        assert peak < bound


@st.composite
def planned_frames(draw):
    """A small frame whose true labels are absent, its predictions, or any bits."""
    n = draw(st.integers(min_value=2, max_value=40))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    pred, corr, group = draw(bits), draw(bits), draw(bits)
    assume(0 < sum(group) < n)
    true = draw(st.sampled_from([None, pred, draw(bits)]))
    return AuditFrame(y_predicted=pred, y_corrected=corr, group=group, y_true=true)


class TestPlan:
    @given(planned_frames(), st.sampled_from((0.01, 0.1, 0.25, *GRID_EPSILONS)),
           st.integers(0, 2**32))
    def test_applied_counts_are_the_placed_flips_counts(self, frame, epsilon, seed):
        # The plan reads only predictions, so a frame's corrected labels do
        # not change it, nor what it applies to.
        try:
            plan = plan_split(frame.counts(), epsilon)
        except DebiasError:
            assume(False)
        placed = frame.with_corrected(place(plan, frame, seed)).counts()
        applied = plan.apply(frame.counts())
        assert applied is None or applied == placed
        if frame.y_true is None or frame.y_true is frame.y_predicted:
            assert applied == placed

    def test_candidates_of_two_true_values_need_the_draws(self):
        # Group 0's rate is 1, group 1's 0: flips go both ways, and group 0's
        # positives hold both true values.
        frame = AuditFrame([1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1],
                           [1, 0, 1, 0, 0, 0])
        plan = plan_split(frame.counts(), 0.3)
        assert [k for _, _, k, _ in plan.kinds] == [1, 1]
        assert plan.apply(frame.counts()) is None
        # At a tighter epsilon every flip is up, and takes all of group 1's
        # negatives: nothing is left to draw.
        plan = plan_split(frame.counts(), 0.01)
        assert [k for _, _, k, _ in plan.kinds] == [0, 2]
        assert plan.apply(frame.counts()).margin("group", "corr") == ((0, 4), (0, 2))

    def test_debiaser_is_plan_then_place(self):
        rng = np.random.default_rng(3)
        for seed in range(50):
            labels, group = random_labeled_groups(rng, 40)
            frame = AuditFrame(labels, labels, group)
            try:
                plan = plan_split(frame.counts(), 0.05)
            except DebiasError:
                continue
            assert np.array_equal(sp_equalizing_debiaser(labels, group, 0.05, seed),
                                  place(plan, frame, seed))

    def test_bad_epsilon(self):
        counts = AuditFrame([1, 0], [1, 0], [0, 1]).counts()
        with pytest.raises(ValidationError) as exc:
            plan_split(counts, math.nan)
        assert exc.value.code == "bad_epsilon"
