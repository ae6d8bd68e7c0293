
import numpy as np
import pytest

import oracle
from flipaudit import (
    AuditFrame,
    MetricValue,
    ValidationError,
    build_report,
    disparity_index,
    flip_disparity,
    rate_difference,
    relative_disparity,
)
from flipaudit.metrics import BOTH_ZERO, NO_FLIPS, ONE_ZERO, REGULAR
from conftest import random_frame, report_metrics

fin = MetricValue.finite


class TestGroupCounts:
    def test_reference_sizes_and_flips(self, reference_frame):
        counts = build_report(reference_frame.counts()).counts
        assert (counts["group0_samples"], counts["group0_flips"]) == (799, 136)
        assert (counts["group1_samples"], counts["group1_flips"]) == (521, 38)

    def test_missing_group_rejected(self):
        frame = AuditFrame([1, 0], [1, 0], [1, 1])
        with pytest.raises(ValidationError, match="no instances"):
            build_report(frame.counts())

    def test_sizes_partition(self):
        rng = np.random.default_rng(5)
        frame = random_frame(rng, max_n=100)
        counts = build_report(frame.counts()).counts
        assert counts["group1_samples"] + counts["group0_samples"] == frame.n


class TestRateDifference:
    def test_fr_reference(self):
        mv = rate_difference(fin(136 / 799), fin(38 / 521))
        assert mv.value == pytest.approx(0.0973, abs=1e-4)

    def test_hfp_reference(self):
        assert rate_difference(fin(1.0), fin(0.0)).value == 1.0

    def test_equal_rates(self):
        assert rate_difference(fin(0.2), fin(0.2)).value == 0.0

    def test_both_zero(self):
        mv = rate_difference(fin(0.0), fin(0.0))
        assert (mv.value, mv.annotation) == (0.0, NO_FLIPS)

    def test_both_zero_after_flips(self):
        # Both groups flipped, but only favorably: both HFPs are zero.
        hfpd = report_metrics(AuditFrame([0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1]))["hfpd"]
        assert (hfpd.value, hfpd.annotation) == (0.0, BOTH_ZERO)


class TestDisparityIndex:
    def test_reference_di(self):
        mv = disparity_index(fin(136 / 799), fin(38 / 521))
        assert mv.value == pytest.approx(2.33, abs=0.005)

    def test_one_value_zero(self):
        mv = disparity_index(fin(1.0), fin(0.0))
        assert mv.is_infinite
        assert mv.annotation == ONE_ZERO

    def test_both_zero(self):
        mv = disparity_index(fin(0.0), fin(0.0))
        assert mv.value == 1.0
        assert mv.annotation == BOTH_ZERO

    def test_equal_rates(self):
        assert disparity_index(fin(0.2), fin(0.2)).value == 1.0


class TestFlipDisparity:
    def test_reference_fd(self):
        overall = fin(174 / 1320)
        mv = flip_disparity(fin(136 / 799), fin(38 / 521), overall)
        assert mv.value == pytest.approx(0.74, abs=0.005)

    def test_one_zero_overrides_finite_formula(self):
        # The raw formula would give |1/FR - 0| finite; the convention is inf.
        mv = flip_disparity(fin(1.0), fin(0.0), fin(174 / 1320))
        assert mv.is_infinite
        assert mv.annotation == ONE_ZERO

    def test_both_zero(self):
        mv = flip_disparity(fin(0.0), fin(0.0), fin(0.0))
        assert mv.value == 1.0
        assert mv.annotation == BOTH_ZERO

    def test_equal_rates(self):
        assert flip_disparity(fin(0.1), fin(0.1), fin(0.1)).value == 0.0


class TestRelativeDisparity:
    def test_reference_rfd(self):
        a, b = 136 / 799, 38 / 521
        mv = relative_disparity(fin(abs(a - b)), fin(a), fin(b))
        assert mv.value == pytest.approx(0.40, abs=0.005)

    def test_reference_rhfd(self):
        mv = relative_disparity(fin(1.0), fin(1.0), fin(0.0))
        assert mv.value == 1.0
        assert mv.annotation == REGULAR

    def test_both_zero(self):
        mv = relative_disparity(fin(0.0), fin(0.0), fin(0.0))
        assert mv.value == 0.0
        assert mv.annotation == NO_FLIPS
        # Both groups flipped, but only favorably: both HFPs are zero.
        rhfd = report_metrics(AuditFrame([0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1]))["rhfd"]
        assert (rhfd.value, rhfd.annotation) == (0.0, BOTH_ZERO)


class TestProportionalityCells:
    def test_reference_values(self, reference_frame):
        p = report_metrics(reference_frame)
        assert p["frd"].value == pytest.approx(0.097, abs=0.005)
        assert p["di"].value == pytest.approx(2.33, abs=0.005)
        assert p["fd"].value == pytest.approx(0.74, abs=0.005)
        assert p["rfd"].value == pytest.approx(0.40, abs=0.005)
        assert p["hfpd"].value == 1.0
        assert p["hdi"].is_infinite and p["hdi"].annotation == ONE_ZERO
        assert p["hfd"].is_infinite and p["hfd"].annotation == ONE_ZERO
        assert p["rhfd"].value == 1.0

    def test_symmetric_identical_flips(self):
        # Both groups: 4 instances, one favorable and one unfavorable flip each.
        pred = [1, 0, 0, 0, 1, 0, 0, 0]
        corr = [0, 1, 0, 0, 0, 1, 0, 0]
        group = [0, 0, 0, 0, 1, 1, 1, 1]
        p = report_metrics(AuditFrame(pred, corr, group))
        assert p["frd"].value == 0.0
        assert p["hfpd"].value == 0.0
        assert p["di"].value == 1.0
        assert p["hdi"].value == 1.0
        assert p["fd"].value == 0.0
        assert p["rfd"].value == 0.0
        assert p["rhfd"].value == 0.0

    def test_matches_brute_force_on_random_frames(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            frame = random_frame(rng)
            expected = oracle.audit(
                frame.y_predicted.tolist(),
                frame.y_corrected.tolist(),
                frame.group.tolist(),
            )
            p = report_metrics(frame)
            for name in ("frd", "hfpd"):
                assert p[name].value == pytest.approx(expected[name], abs=1e-12)
            for name in ("di", "hdi", "fd", "hfd", "rfd", "rhfd"):
                kind, value = expected[name]
                mv = p[name]
                assert mv.kind == kind
                if kind == "finite":
                    assert mv.value == pytest.approx(value, abs=1e-12)
