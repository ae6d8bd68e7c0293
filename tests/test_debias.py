import math

import numpy as np
import pytest

import oracle
from flipaudit import (
    DebiasError,
    ValidationError,
    sp_equalizing_debiaser,
    statistical_parity_difference,
)


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
        assert abs(statistical_parity_difference(corrected, group)) <= 0.1
        flips = int((corrected != labels).sum())
        assert flips == oracle.min_sp_flips(labels.tolist(), group.tolist(), 0.1)

    def test_already_within_epsilon_is_identity(self):
        labels = np.array([1, 0, 1, 0])
        group = np.array([0, 0, 1, 1])
        corrected = sp_equalizing_debiaser(labels, group, epsilon=0.1)
        assert np.array_equal(corrected, labels)

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
            assert abs(statistical_parity_difference(corrected, group)) <= epsilon
            changed = corrected != labels
            # Over-favored group only loses positives, under-favored only gains.
            sp = statistical_parity_difference(labels, group)
            if abs(sp) <= epsilon:
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

    def test_unreachable_epsilon_reports_best_gap(self):
        # Rate grids 1/2 and 1/3 share no pair within 0.05 given the
        # one-directional flip constraint.
        labels = np.array([1, 0, 1, 0, 0])
        group = np.array([0, 0, 1, 1, 1])
        with pytest.raises(DebiasError, match="best achievable gap") as exc:
            sp_equalizing_debiaser(labels, group, epsilon=0.05)
        assert exc.value.best_gap == pytest.approx(1 / 6)

    def test_bad_epsilon(self):
        for epsilon in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError) as exc:
                sp_equalizing_debiaser([1, 0], [0, 1], epsilon=epsilon)
            assert exc.value.code == "bad_epsilon"

    def test_missing_group(self):
        with pytest.raises(ValidationError):
            sp_equalizing_debiaser([1, 0], [1, 1], epsilon=0.1)
