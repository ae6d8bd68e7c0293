import numpy as np
import pytest

import oracle
from flipaudit import (
    ValidationError,
    equalized_odds_difference,
    evaluate_fairness,
    statistical_parity_difference,
)
from conftest import random_frame


class TestStatisticalParity:
    def test_two_group_example_gap(self):
        # One group 4/5 positive, the other 3/5: gap magnitude 0.20.
        labels = [1, 1, 1, 1, 0, 1, 1, 1, 0, 0]
        group = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        assert statistical_parity_difference(labels, group) == pytest.approx(-0.2)

    def test_equal_rates(self):
        labels = [1, 0, 1, 0]
        group = [0, 0, 1, 1]
        assert statistical_parity_difference(labels, group) == 0.0

    def test_extreme_disparity(self):
        assert statistical_parity_difference([1, 1, 0, 0], [1, 1, 0, 0]) == -1.0

    def test_missing_group(self):
        with pytest.raises(ValidationError):
            statistical_parity_difference([1, 0], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="group has length 2, expected 3") as exc:
            statistical_parity_difference([1, 0, 1], [0, 1])
        assert exc.value.code == "length_mismatch"

    def test_antisymmetric_under_relabeling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            frame = random_frame(rng, max_n=50)
            sp = statistical_parity_difference(frame.y_predicted, frame.group)
            swapped = statistical_parity_difference(frame.y_predicted, 1 - frame.group)
            assert sp == pytest.approx(-swapped)


class TestEqualizedOdds:
    def test_identical_confusion_behavior(self):
        y_true = [1, 0, 1, 0]
        labels = [1, 0, 1, 0]
        group = [0, 0, 1, 1]
        assert equalized_odds_difference(y_true, labels, group) == 0.0

    def test_maximal_tpr_gap(self):
        # Group 0 TPR 1, group 1 TPR 0; both FPRs 0.
        y_true = [1, 0, 1, 0]
        labels = [1, 0, 0, 0]
        group = [0, 0, 1, 1]
        assert equalized_odds_difference(y_true, labels, group) == 1.0

    def test_missing_true_labels(self):
        with pytest.raises(ValidationError, match="true labels"):
            equalized_odds_difference(None, [1, 0], [0, 1])

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(100):
            frame = random_frame(rng, max_n=60, with_true=True)
            expected = oracle.eo_difference(
                frame.y_true.tolist(),
                frame.y_predicted.tolist(),
                frame.group.tolist(),
            )
            if expected is None:
                continue
            got = equalized_odds_difference(frame.y_true, frame.y_predicted, frame.group)
            assert got == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= got <= 1.0
            checked += 1
        assert checked > 50

    def test_degenerate_group_skips_undefined_rate(self):
        # Group 1 has no true positives: only the FPR gap remains.
        y_true = [1, 0, 0, 0]
        labels = [1, 1, 0, 1]
        group = [0, 0, 1, 1]
        got = equalized_odds_difference(y_true, labels, group)
        assert got == pytest.approx(abs(1.0 - 0.5))


class TestEvaluateFairness:
    def test_default_interval_pass(self):
        res = evaluate_fairness([1, 0, 1, 0], [0, 0, 1, 1])
        assert res.sp_pass and res.eo_pass and res.passed
        assert res.eo_difference is None

    def test_sp_fail(self):
        res = evaluate_fairness([1, 1, 0, 0], [1, 1, 0, 0])
        assert not res.sp_pass
        assert not res.passed

    def test_eo_gate_uses_upper_bound(self):
        y_true = [1, 0, 1, 0]
        labels = [1, 0, 0, 0]
        res = evaluate_fairness(labels, [0, 0, 1, 1], y_true=y_true)
        assert res.eo_difference == 1.0
        assert not res.eo_pass

    def test_custom_interval(self):
        res = evaluate_fairness([1, 1, 0, 0], [1, 1, 0, 0], fair_interval=(-1.0, 1.0))
        assert res.sp_pass
