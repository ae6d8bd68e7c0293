import math

import pytest

from flipaudit import (
    Band, MetricValue, ThresholdConfig, ThresholdEntry, ValidationError, classify,
)

fin = MetricValue.finite
CFG = ThresholdConfig.default()


class TestClassify:
    def test_fr_moderate(self):
        assert classify("FR", fin(0.13), CFG) is Band.MODERATE

    def test_infinity_rule(self):
        assert classify("HDI", MetricValue.infinite("One value is zero"), CFG) \
            is Band.DISPROPORTIONATE

    def test_frd_override_moderate(self):
        assert classify("FRD", fin(0.097), CFG) is Band.MODERATE

    def test_frd_override_acceptable(self):
        assert classify("FRD", fin(0.05), CFG) is Band.ACCEPTABLE

    def test_dfr_centered_on_one(self):
        assert classify("DFR", fin(0.95), CFG) is Band.ACCEPTABLE
        assert classify("DFR", fin(1.1), CFG) is Band.ACCEPTABLE
        assert classify("DFR", fin(0.28), CFG) is Band.DISPROPORTIONATE

    def test_boundaries_fall_in_lenient_band(self):
        assert classify("FR", fin(0.1), CFG) is Band.ACCEPTABLE
        assert classify("FR", fin(0.3), CFG) is Band.MODERATE
        assert classify("FR", fin(0.30000001), CFG) is Band.DISPROPORTIONATE

    def test_unknown_metric(self):
        with pytest.raises(ValidationError, match="no threshold entry") as exc:
            classify("XYZ", fin(0.1), CFG)
        assert exc.value.code == "bad_thresholds"

    def test_monotone_in_distance(self):
        values = [0.0, 0.05, 0.1, 0.15, 0.3, 0.31, 0.9]
        bands = [classify("FR", fin(v), CFG) for v in values]
        assert bands == sorted(bands)


class TestConfig:
    def test_every_pipeline_metric_has_entry(self):
        for name in ("FR", "DFR", "HFP", "FRD", "HFPD", "DI", "HDI",
                     "FD", "HFD", "RFD", "RHFD"):
            assert CFG.entry(name) is not None

    def test_ideals(self):
        assert CFG.entry("FR").ideal == 0.0
        assert CFG.entry("DFR").ideal == 1.0
        assert CFG.entry("DI").ideal == 1.0
        assert CFG.entry("HFPD").acceptable_delta == 0.05
        assert CFG.entry("HFPD").moderate_delta == 0.15

    def test_entry_ordering_enforced(self):
        with pytest.raises(ValidationError) as exc:
            ThresholdEntry(0.0, 0.3, 0.1)
        assert exc.value.code == "bad_thresholds"

    @pytest.mark.parametrize("values, message", [
        ((10**400, 0.1, 0.3), "ideal must be finite, got 1000"),
        (("1", 0.1, 0.3), "ideal must be finite, got 1"),
        ((0, "0.1", 0.3), "need 0 < acceptable_delta < moderate_delta, got 0.1 / 0.3"),
        ((0, 0.1, "0.3"), "need 0 < acceptable_delta < moderate_delta, got 0.1 / 0.3"),
        ((0, 0.1, None), "need 0 < acceptable_delta < moderate_delta, got 0.1 / None"),
        ((0, 0, 0.3), "need 0 < acceptable_delta < moderate_delta, got 0 / 0.3"),
        ((0, 0.1, 0.1), "need 0 < acceptable_delta < moderate_delta, got 0.1 / 0.1"),
    ], ids=["huge_ideal", "str_ideal", "str_acceptable", "str_moderate", "none_moderate",
            "zero_acceptable", "equal_deltas"])
    def test_entry_values_must_be_real_numbers(self, values, message):
        with pytest.raises(ValidationError, match=message) as exc:
            ThresholdEntry(*values)
        assert exc.value.code == "bad_thresholds"

    def test_infinite_moderate_delta_accepted(self):
        cfg = ThresholdConfig({"FR": ThresholdEntry(0, 0.1, math.inf)})
        assert classify("FR", fin(5.0), cfg) is Band.MODERATE
        assert classify("FR", MetricValue.infinite("One value is zero"), cfg) \
            is Band.DISPROPORTIONATE

    def test_round_trip_preserves_classifications(self, tmp_path):
        path = tmp_path / "thresholds.txt"
        CFG.save(path)
        loaded = ThresholdConfig.load(path)
        assert loaded == CFG
        probes = [0.0, 0.049, 0.05, 0.1, 0.13, 0.2, 0.3, 0.5, 1.0, 2.33]
        for name in CFG.entries:
            for v in probes:
                assert classify(name, fin(v), loaded) is classify(name, fin(v), CFG)

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValidationError, match="line 1") as exc:
            ThresholdConfig.loads("FR 0 0.1\n")
        assert exc.value.code == "bad_thresholds"
        with pytest.raises(ValidationError, match="line 2: duplicate metric 'FR'") as exc:
            ThresholdConfig.loads("FR 0 0.1 0.3\nFR 0 0.2 0.4\n")
        assert exc.value.code == "bad_thresholds"
        with pytest.raises(ValidationError, match="line 2: unknown metric 'FDR'") as exc:
            ThresholdConfig.loads("FR 0 0.1 0.3\nFDR 0 0.1 0.3\n")
        assert exc.value.code == "bad_thresholds"

    @pytest.mark.parametrize("text, message", [
        ("FR 0 low 0.3\n", "line 1: non-numeric threshold in 'FR 0 low 0.3'"),
        ("", "threshold config is empty"),
        ("# no entries\n\n", "threshold config is empty"),
    ], ids=["non_numeric", "empty", "comment_only"])
    def test_parse_rejects_unusable_text(self, text, message):
        with pytest.raises(ValidationError, match=message) as exc:
            ThresholdConfig.loads(text)
        assert exc.value.code == "bad_thresholds"

    def test_bad_entry_names_its_line(self):
        with pytest.raises(ValidationError, match="line 2: need 0 < acceptable_delta") as exc:
            ThresholdConfig.loads("DI 1 0.1 0.3\nFR 0 0.3 0.1\n")
        assert exc.value.code == "bad_thresholds"

    @pytest.mark.parametrize("ideal", ["nan", "inf", "-inf"])
    def test_non_finite_ideal_rejected(self, ideal):
        with pytest.raises(ValidationError,
                           match=f"line 1: ideal must be finite, got {ideal}") as exc:
            ThresholdConfig.loads(f"FR {ideal} 0.1 0.3\n")
        assert exc.value.code == "bad_thresholds"

    def test_round_trip_is_lossless(self):
        cfg = ThresholdConfig({"FR": ThresholdEntry(0.1234567891, 0.1234567891, 0.3)})
        assert ThresholdConfig.loads(cfg.dumps()) == cfg

    def test_parse_skips_comments(self):
        cfg = ThresholdConfig.loads("# comment\nFR 0 0.1 0.3\n")
        assert cfg.entry("FR") == ThresholdEntry(0.0, 0.1, 0.3)
