import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracle
from conftest import run_python
from flipaudit import (
    AuditFrame,
    DebiasError,
    ValidationError,
    sp_equalizing_debiaser,
)
from flipaudit import cli
from flipaudit.cli import main
from flipaudit.debias import (
    Plan, _first_hit, _minimal_flip_split, check_options, flip_rows, place, plan_split, sp_repair,
)
from flipaudit.frame import column_counts

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
        corrected = np.asarray(sp_equalizing_debiaser(labels, group, epsilon=0.1, rng_seed=4))
        assert oracle.within(oracle.sp_difference(corrected, group), 0.1)
        flips = int((corrected != labels).sum())
        assert flips == oracle.min_sp_flips(labels.tolist(), group.tolist(), 0.1)

    def test_already_within_epsilon_is_identity(self):
        labels = np.array([1, 0, 1, 0])
        group = np.array([0, 0, 1, 1])
        corrected = np.asarray(sp_equalizing_debiaser(labels, group, epsilon=0.1))
        assert np.array_equal(corrected, labels)

    @pytest.mark.parametrize("epsilon", [0.1, 1.0])  # flips, and the early return
    def test_result_is_read_only_and_kept_by_frame(self, epsilon):
        labels = np.array([1, 1, 1, 1, 0, 1, 1, 1, 0, 0])
        group = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        corrected = sp_equalizing_debiaser(labels, group, epsilon)
        with pytest.raises(TypeError, match="read-only"):
            corrected[0] = 0
        frame = AuditFrame(labels, labels, group)
        assert frame.with_corrected(corrected).y_corrected is corrected

    def test_epsilon_one_never_flips(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            labels, group = random_labeled_groups(rng, 30)
            corrected = np.asarray(sp_equalizing_debiaser(labels, group, epsilon=1.0))
            assert np.array_equal(corrected, labels)

    def test_contract_on_random_frames(self):
        rng = np.random.default_rng(31)
        epsilon = 0.1
        for _ in range(200):
            labels, group = random_labeled_groups(rng, 80)
            corrected = np.asarray(sp_equalizing_debiaser(labels, group, epsilon,
                                                          rng_seed=int(rng.integers(1 << 30))))
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
                corrected = np.asarray(sp_equalizing_debiaser(labels, group, epsilon))
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

    @pytest.mark.parametrize("span", [None, 1, 7])
    @pytest.mark.parametrize("idle", ["up", "down", "neither"])
    def test_placement_matches_floyd_reference(self, idle, span, monkeypatch):
        # A kind with no flips draws nothing, and the rows of the drawn ranks
        # are found a span at a time (spans of 1 and 7 rows split the
        # candidates anywhere); the bits must stay those of drawing each
        # kind's ranks among its candidates in row order, down-flips first,
        # from one generator seeded with the seed.
        if span:
            monkeypatch.setattr("flipaudit.debias._SPAN", span)
        rng = np.random.default_rng(11)
        checked = 0
        for seed in range(400 if span is None else 100):
            labels, group = random_labeled_groups(rng, 60)
            epsilon = float(rng.choice(GRID_EPSILONS))
            try:
                corrected = np.asarray(sp_equalizing_debiaser(labels, group, epsilon,
                                                              rng_seed=seed))
            except DebiasError:
                continue
            down = int(np.sum((labels == 1) & (corrected == 0)))
            up = int(np.sum((labels == 0) & (corrected == 1)))
            idle_kinds = [kind for kind, k in (("down", down), ("up", up)) if not k]
            if idle_kinds != ([] if idle == "neither" else [idle]):
                continue
            over = int(labels[group == 1].mean() > labels[group == 0].mean())
            kinds = ((over, 0, down, int(np.sum((group == over) & (labels == 1)))),
                     (1 - over, 1, up, int(np.sum((group != over) & (labels == 0)))))
            assert corrected.tolist() == oracle.placement(kinds, labels, group, seed)
            checked += 1
        assert checked >= (20 if span is None else 5)

    def test_placement_draws_each_subset_uniformly(self):
        # One kind takes 2 of 6 candidates, rows 0, 2, 5, 6, 7 and 8; the
        # other flips none. Over 3,000 seeds each of the 15 pairs is expected
        # 200 times, with a standard deviation of sqrt(3000 * 1/15 * 14/15).
        labels = bytearray([1, 1, 1, 0, 0, 1, 1, 1, 1])
        group = bytearray([0, 1, 0, 0, 1, 0, 0, 0, 0])
        plan = Plan(((0, 0, 2, 6), (1, 1, 0, 1)))
        seen = Counter()
        for seed in range(3000):
            corrected = place(plan, labels, group, seed)
            seen[tuple(row for row in range(len(labels)) if corrected[row] != labels[row])] += 1
        candidates = (0, 2, 5, 6, 7, 8)
        assert set(seen) == {(a, b) for a in candidates for b in candidates if a < b}
        sigma = math.sqrt(3000 * 1 / 15 * 14 / 15)
        assert all(abs(count - 200) <= 5 * sigma for count in seen.values()), seen

    @pytest.mark.parametrize("epsilon", [0.1, 1.0])  # flips, and the early return
    def test_result_is_a_read_only_byte_view(self, epsilon):
        labels = np.array([1, 1, 1, 1, 0, 1, 1, 1, 0, 0], dtype=np.int64)
        group = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0], dtype=np.int64)
        corrected = sp_equalizing_debiaser(labels, group, epsilon)
        assert corrected.readonly and corrected.format == "B"
        assert type(corrected.obj) is bytearray  # place's copy, viewed
        assert AuditFrame(labels, corrected, group).y_corrected is corrected  # shared
        if epsilon == 1.0:
            assert corrected.tolist() == labels.tolist()

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
            # The pipeline's repair checks too, before any gate runs.
            with pytest.raises(ValidationError) as exc:
                sp_repair(epsilon, place=None)
            assert exc.value.code == "bad_epsilon"

    def test_bad_seed(self):
        fair = ([1, 0, 1, 0], [0, 0, 1, 1])
        unfair = ([1, 1, 0, 0], [0, 0, 1, 1])
        for seed in (-1, 1.5, "7", None):
            for labels, group in (fair, unfair):
                with pytest.raises(ValidationError) as exc:
                    sp_equalizing_debiaser(labels, group, 0.1, rng_seed=seed)
                assert exc.value.code == "bad_seed"
            # The CLI's check of its options, before any gate runs.
            with pytest.raises(ValidationError) as exc:
                check_options(0.1, seed)
            assert exc.value.code == "bad_seed"
            # And place's own, of the seed it draws with.
            with pytest.raises(ValidationError) as exc:
                place(Plan(((0, 0, 1, 1), (1, 1, 0, 0))), bytearray([1, 0]), bytearray([0, 1]), seed)
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
        assert int(np.count_nonzero(np.asarray(corrected) != labels)) == 401
        # The corrected copy and one candidate mask, the larger candidate set's
        # indices, and fixed scratch.
        assert peak <= 2 * group.size + 8 * candidates + 2**20

    def test_placement_holds_no_row_mask_or_wide_indices(self, traced_peak):
        labels, group, candidates = self.debias_1m()
        corrected, peak = traced_peak(sp_equalizing_debiaser, labels, group, 0.1)
        assert int(np.count_nonzero(np.asarray(corrected) != labels)) == 401
        # The corrected copy, the larger candidate set's int32 indices, and
        # fixed scratch: no mask over all rows, no int64 indices.
        assert peak <= group.size + 4 * candidates + 2**20

    def test_labels_are_copied_after_the_flips_are_drawn(self, traced_peak):
        labels, group, candidates = self.debias_1m()
        corrected, peak = traced_peak(sp_equalizing_debiaser, labels, group, 0.1)
        assert int(np.count_nonzero(np.asarray(corrected) != labels)) == 401
        # The corrected copy or the larger candidate set's int32 indices, never
        # both at once, and fixed scratch.
        assert peak <= max(group.size, 4 * candidates) + 2**19

    def test_each_kind_is_freed_before_the_next_is_gathered(self, traced_peak):
        # 75,000 flips of each kind, from 300,000 down and 400,000 up candidates.
        labels, group, candidates = self.debias_1m(300_000, 500_000, 100_000, 500_000)
        corrected, peak = traced_peak(sp_equalizing_debiaser, labels, group, 0.1)
        flips = int(np.count_nonzero(np.asarray(corrected) != labels))
        assert flips == 150_000
        # One kind's int32 indices or the corrected copy, the rows kept, and
        # fixed scratch.
        assert peak <= max(group.size, 4 * candidates) + 4 * flips + 2**19

    def test_missing_group(self):
        with pytest.raises(ValidationError):
            sp_equalizing_debiaser([1, 0], [1, 1], epsilon=0.1)

    @classmethod
    def debias_1m_file(cls, path, shape=()):
        """``debias_1m(*shape)``'s labels and group with random true labels, as a strict CSV."""
        labels, group, _ = cls.debias_1m(*shape)
        true = np.random.default_rng(1).integers(0, 2, size=group.size, dtype=np.int8)
        rows = np.full((group.size, 6), ord(","), np.uint8)
        rows[:, -1] = ord("\n")
        rows[:, ::2] = np.stack([labels, group, true], axis=1) + ord("0")
        path.write_bytes(b"pred,group,true\n" + rows.tobytes())
        return labels, group, true

    @pytest.mark.parametrize("shape, flips", [
        ((), 401),
        ((300_000, 500_000, 100_000, 500_000), 150_000),  # 75,000 of each kind
    ], ids=["401", "150000"])
    def test_command_holds_the_columns_and_no_corrected_copy(self, shape, flips, traced_peak,
                                                             tmp_path):
        path, out = tmp_path / "d.csv", tmp_path / "out.csv"
        labels, group, true = self.debias_1m_file(path, shape)
        argv = ["debias", "-i", str(path), "--true-col", "true", "-o", str(out)]
        assert main([*argv[:2], str(Path(__file__).parent / "golden" / "reference.csv"),
                     *argv[3:]]) == 0  # the command's modules load outside the trace
        code, peak = traced_peak(main, argv)
        assert code == 0
        # pred, group and true as byte columns, and fixed scratch: the block
        # buffers of ingest and emit, the draws' bitsets and a span of each
        # kind's rows. corr is written as pred with the drawn rows set.
        assert peak <= 3 * group.size + 2**20
        cells = np.frombuffer(out.read_bytes(), np.uint8, offset=len("pred,corr,group,true\n"))
        pred, corr, grp, tru = cells.reshape(-1, 8)[:, ::2].T - ord("0")
        assert (np.array_equal(pred, labels) and np.array_equal(grp, group)
                and np.array_equal(tru, true))
        assert int(np.count_nonzero(corr != pred)) == flips

    def test_placing_pipeline_holds_the_columns_and_no_corrected_copy(self, traced_peak,
                                                                      tmp_path, monkeypatch):
        # Mixed true labels: the 401 flips' rows decide the repaired table.
        path = tmp_path / "d.csv"
        _, group, _ = self.debias_1m_file(path)
        argv = ["pipeline", "-i", str(path), "--true-col", "true", "-o", str(tmp_path / "out")]
        assert main([*argv[:2], str(Path(__file__).parent / "golden" / "reference.csv"),
                     *argv[3:]]) == 3  # the command's modules load outside the trace
        calls, real = [], cli.flip_rows
        monkeypatch.setattr(cli, "flip_rows", lambda *args: calls.append(args[0]) or real(*args))
        code, peak = traced_peak(main, argv)
        assert code == 3 and [sum(k for _, _, k, _ in plan.kinds) for plan in calls] == [401]
        # pred, group and true as byte columns, and fixed scratch: the
        # repaired table is counted from the flips' rows, not a copied column.
        assert peak <= 3 * group.size + 2**20

    # The reference's true labels are mixed, so pipeline places its flips too.
    @pytest.mark.parametrize("command, code", [("debias", 0), ("pipeline", 3)])
    @pytest.mark.parametrize("declined", [False, True])
    def test_commands_import_no_numpy(self, command, code, declined, tmp_path):
        # A cell " 1", which csv.reader reads as 1, sends the file to the csv path.
        data = (Path(__file__).parent / "golden" / "reference.csv").read_bytes()
        path = tmp_path / "d.csv"
        path.write_bytes(data.replace(b"\n1,", b"\n 1,", 1) if declined else data)
        proc = run_python(["-c", "import sys\n"
                           "from flipaudit.cli import main\n"
                           "print(main(sys.argv[1:]), 'numpy' in sys.modules, "
                           "'numpy.random' in sys.modules)",
                           command, "-i", str(path), "--true-col", "true",
                           "-o", str(tmp_path / "out")])
        assert (proc.returncode, proc.stdout) == (0, f"{code} False False\n"), proc.stderr

    def test_skewed_frame_flip_count_matches_oracle(self):
        # 100,000 rows at rate 1/2 against 3 rows at rate 0: the repair has to
        # bring the large group down to the small group's 1/3 grid point.
        labels = np.r_[np.ones(50_000, int), np.zeros(50_003, int)]
        group = np.r_[np.zeros(100_000, int), np.ones(3, int)]
        corrected = np.asarray(sp_equalizing_debiaser(labels, group, 1e-3, rng_seed=5))
        (down, up), _ = oracle.minimal_flip_split(50_000, 100_000, 0, 3, 1e-3)
        assert int((corrected != labels).sum()) == down + up
        assert int(corrected[group == 1].sum()) == up


def split_or_best_gap(pos_over, n_over, pos_under, n_under, epsilon):
    """``_minimal_flip_split`` in the oracle's return convention."""
    try:
        return _minimal_flip_split(pos_over, n_over, pos_under, n_under, epsilon), None
    except DebiasError as exc:
        return None, exc.best_gap


def as_planned(pos_a, n_a, pos_b, n_b, epsilon):
    """Two groups' counts as ``plan_split`` passes them: (pos_over, n_over, pos_under, n_under, ε).

    Group a is over-favored when its positive rate is the higher; on equal
    rates ``plan_split`` takes group b.
    """
    if pos_a * n_b > pos_b * n_a:
        return pos_a, n_a, pos_b, n_b, epsilon
    return pos_b, n_b, pos_a, n_a, epsilon


def random_flip_counts(rng, cases):
    """``cases`` random ``as_planned`` counts of up to 69 rows a group.

    Off the grid, epsilon is log-uniform from 1e-4 to 0.6, so small groups
    meet bounds below their rate step and the search below x0 runs: with
    seed 53, 292 of 3,000 cases reach ``_first_hit``.
    """
    for _ in range(cases):
        n_a, n_b = (int(v) for v in rng.integers(1, 70, size=2))
        if rng.random() < 0.3:
            n_b = n_a
        yield as_planned(int(rng.integers(0, n_a + 1)), n_a, int(rng.integers(0, n_b + 1)), n_b,
                         float(rng.choice(GRID_EPSILONS)) if rng.random() < 0.6
                         else float(10 ** rng.uniform(-4, math.log10(0.6))))


@st.composite
def flip_counts(draw):
    n_a = draw(st.integers(1, 40))
    n_b = draw(st.one_of(st.just(n_a), st.integers(1, 40)))
    pos_a = draw(st.integers(0, n_a))
    pos_b = draw(st.integers(0, n_b))
    epsilon = draw(st.one_of(st.sampled_from(GRID_EPSILONS),
                             st.floats(1e-4, 0.6, allow_nan=False)))
    return as_planned(pos_a, n_a, pos_b, n_b, epsilon)


class TestMinimalFlipSplit:
    @given(flip_counts())
    def test_matches_oracle(self, counts):
        assert split_or_best_gap(*counts) == oracle.minimal_flip_split(*counts)

    def test_matches_oracle_on_random_counts(self):
        for counts in random_flip_counts(np.random.default_rng(53), 3000):
            assert split_or_best_gap(*counts) == oracle.minimal_flip_split(*counts), counts

    def test_first_hit_matches_brute_force(self):
        # Every a < m <= 40 and window 0 < lo <= hi < m: a*t % m repeats
        # with period m, so a t below m hits or none does.
        for m in range(1, 41):
            for a in range(m):
                values = [a * t % m for t in range(m)]
                for lo in range(1, m):
                    for hi in range(lo, m):
                        want = next((t for t, v in enumerate(values) if lo <= v <= hi), None)
                        assert _first_hit(a, m, lo, hi) == want, (a, m, lo, hi)

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
        # debias-1m's and pipeline-50k's counts, where the first x tried
        # passes; counts whose answer lies below it; and counts no split
        # reaches, whose best gap is searched for.
        proc = run_python(["-c", "import sys\n"
                           "from flipaudit.debias import DebiasError\n"
                           "from flipaudit.debias import _minimal_flip_split as solve\n"
                           "print(solve(300_000, 599_999, 159_600, 400_001, 0.1),\n"
                           "      solve(15_000, 29_999, 6_000, 20_001, 0.1),\n"
                           "      solve(50_000, 100_000, 0, 3, 1e-3))\n"
                           "try:\n"
                           "    solve(300_000, 600_001, 200_000, 400_003, 1e-13)\n"
                           "except DebiasError as exc:\n"
                           "    print(exc.code)\n"
                           "print('numpy' in sys.modules)"])
        assert (proc.returncode, proc.stdout) == (
            0, "(0, 401) (0, 2001) (16567, 1)\nunreachable_epsilon\nFalse\n"), proc.stderr

    @pytest.mark.parametrize("counts, bound, checked", [
        # debias-1m's counts, and ten times them: 240,401 and 2,404,010 up
        # choices against 300,000 and 3,000,000 down choices.
        pytest.param((300_000, 599_999, 159_600, 400_001, 0.1), 2 * 2**20, True, id="1"),
        pytest.param((3_000_000, 5_999_990, 1_596_000, 4_000_010, 0.1), 2 * 2**20, False,
                     id="10"),
        # No split reaches these epsilons. The first's best gap is searched
        # over 3 up choices, the second's over 401,437.
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
        placed = frame.with_corrected(place(plan, frame.y_predicted, frame.group, seed)).counts()
        applied = plan.apply(frame.counts())
        assert applied is None or applied == placed
        if frame.y_true is None or frame.y_true is frame.y_predicted:
            assert applied == placed
        # Given how many of each kind's rows have true label 1, the table is
        # always the placed one.
        if frame.y_true is not None:
            ones = [sum(int(frame.y_true[row]) for row in rows)
                    for _, rows in flip_rows(plan, frame.y_predicted, frame.group, seed)]
            assert plan.apply(frame.counts(), ones) == placed

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
                                  place(plan, frame.y_predicted, frame.group, seed))

    def test_bad_epsilon(self):
        counts = AuditFrame([1, 0], [1, 0], [0, 1]).counts()
        with pytest.raises(ValidationError) as exc:
            plan_split(counts, math.nan)
        assert exc.value.code == "bad_epsilon"

    @pytest.mark.parametrize("kinds", [
        ((0, 1, 5, 3),), ((0, 1, -1, 3),), ((2, 1, 0, 3),), ((0, 2, 0, 3),),
        ((0, 1, 1.0, 3),), ((0, True, 0, 3),), ((0, 1, 0),), ((0, 1, 0, 3, 0),),
        (0, 1, 0, 3), None,
        # Two kinds that draw from the same candidates.
        ((0, 1, 1, 4), (0, 1, 1, 4)), ((1, 0, 0, 2), (0, 1, 0, 3), (1, 0, 1, 2)),
    ])
    def test_bad_kinds(self, kinds):
        with pytest.raises(ValidationError) as exc:
            Plan(kinds)
        assert exc.value.code == "bad_plan"

    def test_more_flips_than_candidates_fail_before_any_draw(self):
        # Floyd's draw of 5 ranks from 3 would never end: the plan is refused
        # when it is made.
        with pytest.raises(ValidationError) as exc:
            place(Plan(((0, 1, 5, 3),)), bytearray(b"\0\0\0\1"), bytearray(4), 0)
        assert exc.value.code == "bad_plan"

    def test_a_count_beyond_the_rows_fails_before_its_bitset_is_made(self, traced_peak):
        # A kind's ranks are drawn into a bitset of one bit per candidate it
        # counts: a count larger than the columns have rows is refused first.
        def refused():
            with pytest.raises(ValidationError) as exc:
                place(Plan(((0, 1, 1, 10**8),)), bytearray(b"\0\0\0\1"), bytearray(4), 0)
            return exc.value.code

        code, peak = traced_peak(refused)
        assert code == "bad_plan" and peak < 2**20

    def test_kinds_are_held_as_python_ints(self):
        plan = Plan([(np.int64(0), np.int8(1), 0, 3)])
        assert plan.kinds == ((0, 1, 0, 3),)
        assert all(type(v) is int for v in plan.kinds[0])

    @pytest.mark.parametrize("k, count", [(1, 2), (2, 2), (1, 4), (3, 10)])
    def test_place_checks_each_kinds_candidates(self, k, count):
        # Rows 0, 1 and 2 are group 0's candidates to get a 1: a kind that
        # flips and counts any other number of them fails. A kind that flips
        # nothing is not read.
        labels, group = bytearray(b"\0\0\0\1\1"), bytearray(b"\0\0\0\0\1")
        with pytest.raises(ValidationError) as exc:
            place(Plan(((0, 1, k, count),)), labels, group, 0)
        assert exc.value.code == "bad_plan"
        assert place(Plan(((0, 1, 3, 3),)), labels, group, 0) == b"\1\1\1\1\1"
        assert place(Plan(((0, 1, 0, count),)), labels, group, 0) == labels

    @pytest.mark.parametrize("k, count", [(0, 2), (2, 2), (0, 4), (3, 10)])
    def test_apply_checks_each_kinds_candidates(self, k, count):
        counts = AuditFrame([0, 0, 0, 1, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]).counts()
        with pytest.raises(ValidationError) as exc:
            Plan(((0, 1, k, count),)).apply(counts)
        assert exc.value.code == "bad_plan"
        applied = Plan(((0, 1, 3, 3),)).apply(counts)
        assert applied.margin("group", "corr") == ((0, 4), (0, 1))


# Sizes at the edges of a run of 256 rows and of a block of 65,536 rows,
# whose last block is then short, and small sizes.
PLACEMENT_SIZES = [pytest.param(st.just(n), id=str(n))
                   for n in (255, 256, 257, 65_535, 65_536, 65_537)]
PLACEMENT_SIZES.append(pytest.param(st.integers(1, 600), id="small"))


@st.composite
def placements(draw, sizes):
    """Label and group columns, a plan of one or two kinds over them, and a seed.

    Each kind flips none, one, all or some of its candidates.
    """
    n = draw(sizes)
    rng = random.Random(draw(st.integers(0, 2**32)))
    group_rate, label_rate = draw(st.tuples(*[st.sampled_from((0.05, 0.5, 0.95))] * 2))
    group = bytearray(rng.random() < group_rate for _ in range(n))
    labels = bytearray(rng.random() < label_rate for _ in range(n))
    kinds = []
    for gid, value in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                                    min_size=1, max_size=2, unique=True)):
        count = sum(g == gid and label != value for g, label in zip(group, labels))
        k = draw(st.one_of(st.sampled_from((0, min(1, count), count)), st.integers(0, count)))
        kinds.append((gid, value, k, count))
    return labels, group, Plan(kinds), draw(st.integers(0, 2**32))


class TestPlacement:
    @pytest.mark.parametrize("sizes", PLACEMENT_SIZES)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_place_and_row_iterators_match_the_oracle(self, sizes, data):
        labels, group, plan, seed = data.draw(placements(sizes))
        want = oracle.placement(plan.kinds, labels, group, seed)
        assert list(place(plan, labels, group, seed)) == want
        vectors = (np.frombuffer(labels, np.int8), np.frombuffer(group, np.int8))
        assert list(place(plan, *vectors, seed)) == want
        # Each kind's rows come in row order, k of them, and, set to its
        # value, give the oracle's labels.
        placed = bytearray(labels)
        for (_, value, k, _), (kind_value, rows) in zip(plan.kinds,
                                                        flip_rows(plan, labels, group, seed)):
            rows = list(rows)
            assert kind_value == value and len(rows) == k and rows == sorted(set(rows))
            for row in rows:
                placed[row] = value
        assert list(placed) == want

    @pytest.mark.parametrize("polarity", [0, 1])
    @pytest.mark.parametrize("sizes", PLACEMENT_SIZES)
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), epsilon=st.sampled_from((0.1, 0.02, 1e-3)))
    def test_command_matches_the_oracle(self, tmp_path, sizes, polarity, data, epsilon):
        # debias writes corr as pred with the flips of its own plan set, in
        # the polarity the columns were read with.
        labels, group, _, seed = data.draw(placements(sizes))
        assume(0 < sum(group) < len(group))
        path, out = tmp_path / "d.csv", tmp_path / "out.csv"
        cells = b"01" if polarity else b"10"  # the cells of labels 0 and 1
        path.write_bytes(b"pred,group\n" + b"".join(
            bytes((cells[label], ord(","), cells[g], ord("\n"))) for label, g in zip(labels, group)))
        argv = ["debias", "-i", str(path), "--epsilon", str(epsilon), "--seed", str(seed),
                "--favorable", str(polarity), "--privileged", str(polarity), "-o", str(out)]
        try:
            plan = plan_split(column_counts(labels, labels, group, None), epsilon)
        except DebiasError:
            assert main(argv) == 1
            return
        assert main(argv) == 0
        corr = out.read_bytes()[len("pred,corr,group\n") + 2::6]
        assert list(corr.translate(bytes.maketrans(cells, b"\0\1"))) == oracle.placement(
            plan.kinds, labels, group, seed)
