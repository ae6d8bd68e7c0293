import math

import numpy as np
import pytest

import oracle
from flipaudit import (
    AuditFrame,
    ValidationError,
    build_report,
    evaluate_fairness,
    parse_structured,
    render_structured,
    run_audit_pipeline,
    sp_equalizing_debiaser,
    sp_repair,
)
from conftest import identity, random_frame, sp_of


def eo_of(y_true, labels, group):
    """The EO gate's difference for ``labels``."""
    return evaluate_fairness(AuditFrame(labels, labels, group, y_true).counts()).eo_difference


class TestStatisticalParity:
    def test_two_group_example_gap(self):
        # One group 4/5 positive, the other 3/5: gap magnitude 0.20.
        labels = [1, 1, 1, 1, 0, 1, 1, 1, 0, 0]
        group = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        assert sp_of(labels, group) == pytest.approx(-0.2)

    def test_equal_rates(self):
        labels = [1, 0, 1, 0]
        group = [0, 0, 1, 1]
        assert sp_of(labels, group) == 0.0

    def test_extreme_disparity(self):
        assert sp_of([1, 1, 0, 0], [1, 1, 0, 0]) == -1.0

    def test_missing_group(self):
        with pytest.raises(ValidationError):
            sp_of([1, 0], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="group has length 2, expected 3") as exc:
            sp_of([1, 0, 1], [0, 1])
        assert exc.value.code == "length_mismatch"

    def test_antisymmetric_under_relabeling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            frame = random_frame(rng, max_n=50)
            sp = sp_of(frame.y_predicted, frame.group)
            swapped = sp_of(frame.y_predicted, [1 - g for g in frame.group])
            assert sp == pytest.approx(-swapped)


class TestEqualizedOdds:
    def test_identical_confusion_behavior(self):
        y_true = [1, 0, 1, 0]
        labels = [1, 0, 1, 0]
        group = [0, 0, 1, 1]
        assert eo_of(y_true, labels, group) == 0.0

    def test_maximal_tpr_gap(self):
        # Group 0 TPR 1, group 1 TPR 0; both FPRs 0.
        y_true = [1, 0, 1, 0]
        labels = [1, 0, 0, 0]
        group = [0, 0, 1, 1]
        assert eo_of(y_true, labels, group) == 1.0

    def test_both_gaps_undefined(self):
        # Group 0 has only true positives, group 1 only true negatives.
        with pytest.raises(ValidationError, match="EO undefined") as exc:
            eo_of([1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1])
        assert exc.value.code == "eo_undefined"

    def test_missing_true_labels(self):
        res = evaluate_fairness(AuditFrame([1, 0], [1, 0], [0, 1]).counts())
        assert res.eo_difference is None and res.eo_pass
        assert "no true labels" in res.note

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
            got = eo_of(frame.y_true, frame.y_predicted, frame.group)
            assert got == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= got <= 1.0
            checked += 1
        assert checked > 50

    def test_degenerate_group_skips_undefined_rate(self):
        # Group 1 has no true positives: only the FPR gap remains.
        y_true = [1, 0, 0, 0]
        labels = [1, 1, 0, 1]
        group = [0, 0, 1, 1]
        got = eo_of(y_true, labels, group)
        assert got == pytest.approx(abs(1.0 - 0.5))


def gate(labels, group, y_true=None, **kwargs):
    """``evaluate_fairness`` on a frame whose corrected labels are ``labels``."""
    return evaluate_fairness(AuditFrame([0] * len(labels), labels, group, y_true).counts(),
                             **kwargs)


class TestEvaluateFairness:
    def test_default_interval_pass(self):
        res = gate([1, 0, 1, 0], [0, 0, 1, 1])
        assert res.sp_pass and res.eo_pass and res.passed
        assert res.eo_difference is None

    def test_sp_fail(self):
        res = gate([1, 1, 0, 0], [1, 1, 0, 0])
        assert not res.sp_pass
        assert not res.passed

    def test_eo_gate_uses_upper_bound(self):
        y_true = [1, 0, 1, 0]
        labels = [1, 0, 0, 0]
        res = gate(labels, [0, 0, 1, 1], y_true=y_true)
        assert res.eo_difference == 1.0
        assert not res.eo_pass

    @pytest.mark.parametrize("first, second", [(4, 3), (3, 4)])
    def test_sp_of_exactly_the_bound_passes(self, first, second):
        # Rates 4/10 and 3/10 differ by exactly 1/10, but by
        # 0.10000000000000003 in floats; the bound 0.1 as a double is just
        # above 1/10.
        labels = [int(i < first) for i in range(10)] + [int(i < second) for i in range(10)]
        res = gate(labels, [0] * 10 + [1] * 10)
        assert abs(res.sp_difference) > 0.1
        assert res.sp_pass and res.passed

    def test_tpr_gap_of_exactly_the_bound_passes(self):
        # TPRs 4/10 and 3/10, FPRs 1/2 in both groups.
        y_true = ([1] * 10 + [0] * 2) * 2
        labels = ([int(i < 4) for i in range(10)] + [1, 0]
                  + [int(i < 3) for i in range(10)] + [1, 0])
        res = gate(labels, [0] * 12 + [1] * 12, y_true=y_true)
        assert res.eo_difference > 0.1
        assert res.eo_pass and res.passed

    def test_bound_is_compared_at_its_binary_value(self):
        # 0.3 as a double is just below 3/10, so an SP of exactly 3/10 fails
        # it, though 0.7 - 0.4 is 0.29999999999999993 in floats.
        labels = [int(i < 7) for i in range(10)] + [int(i < 4) for i in range(10)]
        res = gate(labels, [0] * 10 + [1] * 10, fair_interval=(-0.3, 0.3))
        assert res.sp_difference < 0.3
        assert not res.sp_pass

    @pytest.mark.parametrize("bound", [np.int64(1), np.float32(0.5)])
    def test_bound_may_be_a_numpy_number(self, bound):
        # Rates 1 and 1/2: an SP of exactly 1/2.
        labels, group = [1, 1, 1, 0], [0, 0, 1, 1]
        assert gate(labels, group, fair_interval=(-bound, bound)).passed
        assert np.array_equal(sp_equalizing_debiaser(labels, group, bound), labels)

    def test_custom_interval(self):
        res = gate([1, 1, 0, 0], [1, 1, 0, 0], fair_interval=(-1.0, 1.0))
        assert res.sp_pass

    def test_gates_corrected_labels(self):
        # Predictions at perfect parity, corrected labels maximally unfair.
        frame = AuditFrame([1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0])
        res = evaluate_fairness(frame.counts())
        assert (res.sp_difference, res.eo_difference) == (-1.0, 1.0)

    @pytest.mark.parametrize("interval", [
        (0.2, -0.2), (math.nan, 0.1), (-0.1, math.inf), (-0.5, -0.3), (0.3, 0.5),
        (-0.1,), (-0.1, 0.0, 0.1), None, ("a", "b"), ("-0.1", 0.1),
        (-10**400, 10**400), (-0.1, 10**400), (-math.inf, 0.1),
    ])
    def test_bad_interval_rejected(self, interval):
        # None of these intervals would pass perfect parity.
        with pytest.raises(ValidationError) as exc:
            gate([1, 0, 1, 0], [0, 0, 1, 1], fair_interval=interval)
        assert exc.value.code == "bad_fair_interval"
        assert str(exc.value) == (f"fair interval must be two finite numbers lo <= 0 <= hi, "
                                  f"got {interval!r}")

    @pytest.mark.parametrize("interval", [(0.0, 0.0), (-1, 1), [0.0, 0.2]])
    def test_interval_holding_zero_accepted(self, interval):
        res = gate([1, 0, 1, 0], [0, 0, 1, 1], fair_interval=interval)
        assert res.passed and res.fair_interval == tuple(interval)
        # The result is a value: hashable, and kept by a structured round trip.
        hash(res)
        report = build_report(AuditFrame([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1]).counts(),
                              fairness_pre=res)
        assert parse_structured(render_structured(report)) == report

    def test_bad_interval_rejected_before_pipeline_debiases(self):
        def exploding(_):
            raise AssertionError("repair must not run with a bad fair interval")

        with pytest.raises(ValidationError) as exc:
            run_audit_pipeline(identity([1, 1, 0, 0], [0, 0, 1, 1]).counts(), exploding,
                               fair_interval=(0.2, -0.2))
        assert exc.value.code == "bad_fair_interval"
        for interval in ((-0.5, -0.3), (-10**400, 1)):
            with pytest.raises(ValidationError) as exc:
                run_audit_pipeline(identity([1, 0, 1, 0], [0, 0, 1, 1]).counts(),
                                   sp_repair(0.1, exploding), fair_interval=interval)
            assert exc.value.code == "bad_fair_interval"
