import json
import re

import numpy as np
import pytest

from flipaudit import (
    AuditFrame,
    Decision,
    FlipCounts,
    ThresholdConfig,
    ThresholdEntry,
    ValidationError,
    build_report,
    evaluate_fairness,
    parse_structured,
    render_structured,
    render_text,
)
from flipaudit.report import ROWS, format_value
from flipaudit.metrics import MetricValue, audit_values

SECTION_ORDER = [
    "Dataset information",
    "Overall Metrics",
    "Flips by Groups",
    "Directional flip ratio",
    "Flip Proportionality Metrics",
    "Harmful Flip Proportionality Metrics",
]


def squash(text: str) -> str:
    return re.sub(r"\s+", " ", text)


@pytest.fixture(scope="module")
def reference_report(reference_frame):
    return build_report(reference_frame.counts())


class TestBuildReport:
    def test_reference_verdict(self, reference_report):
        assert reference_report.verdict == "Disproportionate"

    def test_reference_counts(self, reference_report):
        c = reference_report.counts
        assert (c["total_samples"], c["group0_samples"], c["group1_samples"]) == (1320, 799, 521)
        assert (c["total_flips"], c["group0_flips"], c["group1_flips"]) == (174, 136, 38)
        assert c["harmful_flips"] == 136

    def test_value_table_has_one_entry_per_row(self, reference_frame):
        values = audit_values(reference_frame.counts())
        assert set(values) == {row.key for row in ROWS}
        for row in ROWS:
            assert isinstance(values[row.key], int if row.threshold is None else MetricValue)

    def test_every_cell_carries_annotation_and_band(self, reference_report):
        d = json.loads(render_structured(reference_report))
        for key, value in d.items():
            if isinstance(value, dict) and "annotation" in value:
                assert value["annotation"]
                assert value["band"] in ("Acceptable", "Moderate", "Disproportionate")

    def test_identity_frame_proportionate(self, identity_frame):
        r = build_report(identity_frame.counts())
        assert r.verdict == "Proportionate"
        assert r.counts["total_flips"] == 0
        assert r.cells["dfr"].metric.value == 1.0

    def test_one_group_all_harmful_gives_infinite_hdi(self):
        pred = [1, 1, 1, 0, 1, 0]
        corr = [0, 0, 1, 1, 1, 0]
        group = [0, 0, 0, 1, 1, 1]
        r = build_report(AuditFrame(pred, corr, group).counts())
        assert r.cells["hdi"].metric.is_infinite
        assert r.cells["hdi"].metric.annotation == "One value is zero"
        assert r.verdict == "Disproportionate"


class TestRenderText:
    def test_contains_reference_hfp_line(self, reference_report):
        text = render_text(reference_report)
        line = next(l for l in text.splitlines() if l.startswith("HFP "))
        assert "HFP 0.78 Regular calculation" in squash(line)

    def test_no_flip_report_total(self, identity_frame):
        text = render_text(build_report(identity_frame.counts()))
        assert "Total flips" in text
        assert re.search(r"Total flips\s+0\b", text)

    def test_section_order(self, reference_report):
        text = render_text(reference_report)
        positions = [text.index(h) for h in SECTION_ORDER]
        assert positions == sorted(positions)

    def test_infinity_glyph(self, reference_report):
        assert "∞" in render_text(reference_report)

    def test_fairness_sections_rendered(self, reference_frame):
        pre = evaluate_fairness(
            reference_frame.with_corrected(reference_frame.y_predicted).counts())
        post = evaluate_fairness(reference_frame.counts())
        text = render_text(build_report(reference_frame.counts(), fairness_pre=pre,
                                        fairness_post=post))
        assert "Fairness (pre-debias)" in text
        assert "Fairness (post-debias)" in text


class TestRenderStructured:
    def test_full_precision_value(self, reference_report):
        d = json.loads(render_structured(reference_report))
        assert d["fr"]["value"] == pytest.approx(174 / 1320, abs=1e-15)
        assert d["schema_version"] == "1"

    def test_round_trip_identity(self, reference_report):
        assert parse_structured(render_structured(reference_report)) == reference_report

    def test_round_trip_with_fairness(self, reference_frame):
        pre = evaluate_fairness(AuditFrame(reference_frame.y_predicted,
                                           reference_frame.y_predicted,
                                           reference_frame.group).counts())
        r = build_report(reference_frame.counts(), fairness_pre=pre)
        assert parse_structured(render_structured(r)) == r

    def test_hdi_encoded_as_inf(self, reference_report):
        d = json.loads(render_structured(reference_report))
        assert d["hdi"]["kind"] == "inf"
        assert d["hdi"]["value"] is None
        assert d["hdi"]["annotation"] == "One value is zero"

    def test_deterministic_output(self, reference_frame):
        a = render_structured(build_report(reference_frame.counts()))
        b = render_structured(build_report(reference_frame.counts()))
        assert a == b

    def test_all_eleven_metrics_present(self, reference_report):
        d = json.loads(render_structured(reference_report))
        for key in ("fr", "dfr", "hfp", "frd", "hfpd", "di", "hdi",
                    "fd", "hfd", "rfd", "rhfd"):
            assert key in d


# How a seeded count table's flips are shaped: (group, pred, corr) cells kept at zero.
FLIP_SHAPES = {
    "any": (),
    "no_flips": ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)),
    "group1_only": ((0, 0, 1), (0, 1, 0)),
    "favorable_only": ((0, 1, 0), (1, 1, 0)),
    "harmful_only": ((0, 0, 1), (1, 0, 1)),
}


def seeded_table(rng, shape: str, with_true: bool):
    """A random (group, pred, corr[, true]) table of ``shape`` whose gates are defined."""
    while True:
        table = rng.integers(0, 6, size=(2, 2, 2, 2) if with_true else (2, 2, 2))
        for cell in FLIP_SHAPES[shape]:
            table[cell] = 0
        try:
            counts = FlipCounts(table)
            return counts, evaluate_fairness(counts)
        except ValidationError:  # an empty group, or no EO gap to take
            pass


def shifted_config(rng) -> ThresholdConfig:
    """The default thresholds with each ideal moved and each band width scaled."""
    return ThresholdConfig({
        name: ThresholdEntry(entry.ideal + rng.uniform(-0.3, 0.3),
                             entry.acceptable_delta * rng.uniform(0.2, 1.5),
                             entry.moderate_delta * rng.uniform(1.5, 3))
        for name, entry in ThresholdConfig.default().entries.items()})


class TestParseStructured:
    def test_rebuilds_every_report_and_reads_its_bands(self):
        rng = np.random.default_rng(2024)
        banded_otherwise = 0
        for i in range(320):
            shape = list(FLIP_SHAPES)[i % len(FLIP_SHAPES)]
            counts, post = seeded_table(rng, shape, with_true=i % 2 == 1)
            pre = evaluate_fairness(counts, (-rng.uniform(0, 0.3), rng.uniform(0, 0.3)))
            report = build_report(counts, shifted_config(rng), fairness_pre=pre, fairness_post=post)
            decision = list(Decision)[i % len(Decision)].value
            text = render_structured(report, decision=decision)
            parsed = parse_structured(text)
            assert parsed == report, (i, shape)
            assert render_structured(parsed, decision=decision) == text, (i, shape)
            banded_otherwise += parsed.cells != build_report(counts).cells
        # Most reports carry bands the default thresholds would not give.
        assert banded_otherwise > 200


class TestMetricValueChecks:
    @pytest.mark.parametrize("args, message", [
        (("nan", 0.5, "Regular calculation"), "bad MetricValue kind: 'nan'"),
        (("finite", None, "Regular calculation"), "finite MetricValue requires a value"),
        (("inf", 5.0, "One value is zero"), "infinite MetricValue cannot carry a value"),
        (("finite", 0.5, ""), "annotation must not be empty"),
    ], ids=["kind_nan", "finite_value_none", "inf_with_value", "annotation_empty"])
    def test_rejects(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MetricValue(*args)


class TestFormatValue:
    @pytest.mark.parametrize("value,expected", [
        (174 / 1320, "0.13"),
        (38 / 521, "0.073"),
        (136 / 799 - 38 / 521, "0.097"),
        (2.333706, "2.33"),
        (1.0, "1.0"),
        (0.0, "0.0"),
    ])
    def test_display_rounding(self, value, expected):
        assert format_value(MetricValue.finite(value)) == expected

    def test_infinity(self):
        assert format_value(MetricValue.infinite("One value is zero")) == "∞"
