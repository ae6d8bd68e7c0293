"""Proportionality report assembly and rendering.

Every report row is one entry of ``ROWS``: JSON key, text label, section
and threshold name; its value is the one ``metrics.audit_values`` gives
under its key. Count rows (no threshold) go to
``ProportionalityReport.counts``, metric rows to ``.cells``; both are
keyed by JSON key, in spec order::

    report.counts["total_flips"]             # int
    report.cells["hdi"].metric.annotation    # "One value is zero"
    report.cells["fr"].band                  # Band.MODERATE

The text report lists the rows in spec order under their section headers;
the JSON report lists the count rows, then the metric rows. Every metric
cell keeps its full-precision value, its annotation and its threshold band;
rendering handles display rounding.
"""

from __future__ import annotations

import json
import math
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .fairness import FairnessResult, _check_fair_interval
from .frame import FlipCounts, Record, ValidationError, real_or_nan
from .metrics import MetricValue, audit_values
from .thresholds import Band, ThresholdConfig, classify

SCHEMA_VERSION = "1"

VERDICT_BY_BAND = {
    Band.ACCEPTABLE: "Proportionate",
    Band.MODERATE: "ReviewRequired",
    Band.DISPROPORTIONATE: "Disproportionate",
}


class Row(NamedTuple):
    key: str
    label: str
    section: str
    threshold: str | None  # None marks a count row


DATASET = "Dataset information"
OVERALL = "Overall Metrics"
GROUPS = "Flips by Groups"
DIRECTIONAL = "Directional flip ratio"
FLIP_PROPORTIONALITY = "Flip Proportionality Metrics"
HARM_PROPORTIONALITY = "Harmful Flip Proportionality Metrics"

ROWS = (
    Row("total_samples", "Total samples", DATASET, None),
    Row("group0_samples", "Group 0 samples", DATASET, None),
    Row("group1_samples", "Group 1 samples", DATASET, None),
    Row("total_flips", "Total flips", OVERALL, None),
    Row("fr", "FR", OVERALL, "FR"),
    Row("harmful_flips", "Harmful Flips", OVERALL, None),
    Row("hfp", "HFP", OVERALL, "HFP"),
    Row("group0_flips", "Group 0 Flips", GROUPS, None),
    Row("group0_fr", "Group 0 FR", GROUPS, "FR"),
    Row("group0_harmful_flips", "Group 0 Harmful flips", GROUPS, None),
    Row("group0_hfp", "Group 0 HFP", GROUPS, "HFP"),
    Row("group1_flips", "Group 1 Flips", GROUPS, None),
    Row("group1_fr", "Group 1 FR", GROUPS, "FR"),
    Row("group1_harmful_flips", "Group 1 Harmful flips", GROUPS, None),
    Row("group1_hfp", "Group 1 HFP", GROUPS, "HFP"),
    Row("dfr", "DFR", DIRECTIONAL, "DFR"),
    Row("group0_dfr", "Group 0 DFR", DIRECTIONAL, "DFR"),
    Row("group1_dfr", "Group 1 DFR", DIRECTIONAL, "DFR"),
    Row("frd", "FRD", FLIP_PROPORTIONALITY, "FRD"),
    Row("di", "DI", FLIP_PROPORTIONALITY, "DI"),
    Row("fd", "FD", FLIP_PROPORTIONALITY, "FD"),
    Row("rfd", "RFD", FLIP_PROPORTIONALITY, "RFD"),
    Row("hfpd", "HFPD", HARM_PROPORTIONALITY, "HFPD"),
    Row("hdi", "HDI", HARM_PROPORTIONALITY, "HDI"),
    Row("hfd", "HFD", HARM_PROPORTIONALITY, "HFD"),
    Row("rhfd", "RHFD", HARM_PROPORTIONALITY, "RHFD"),
)
COUNT_ROWS = tuple(row for row in ROWS if row.threshold is None)
METRIC_ROWS = tuple(row for row in ROWS if row.threshold is not None)
# The verdict is the worst band among these rows.
PROPORTIONALITY_ROWS = tuple(
    row for row in METRIC_ROWS if row.section in (FLIP_PROPORTIONALITY, HARM_PROPORTIONALITY)
)


class MetricCell(Record):
    metric: MetricValue
    band: Band


class ProportionalityReport(Record):
    schema_version: str
    counts: dict[str, int]
    cells: dict[str, MetricCell]
    fairness_pre: FairnessResult | None
    fairness_post: FairnessResult | None
    verdict: str

    def proportionality_cells(self) -> dict[str, MetricCell]:
        """The eight proportionality cells, keyed by metric name."""
        return {row.label: self.cells[row.key] for row in PROPORTIONALITY_ROWS}


def build_report(
    counts: FlipCounts,
    config: ThresholdConfig | None = None,
    fairness_pre: FairnessResult | None = None,
    fairness_post: FairnessResult | None = None,
) -> ProportionalityReport:
    """Assemble the full banded report of a count table, such as ``frame.counts()``."""
    config = config or ThresholdConfig.default()
    values = audit_values(counts)
    bands = {row.key: classify(row.threshold, values[row.key], config) for row in METRIC_ROWS}
    return _assemble(values, bands, fairness_pre=fairness_pre, fairness_post=fairness_post)


def _assemble(values: dict, bands: dict[str, Band], **fairness) -> ProportionalityReport:
    """The report of ``audit_values`` and its metric rows' bands; the worst sets the verdict."""
    cells = {row.key: MetricCell(values[row.key], bands[row.key]) for row in METRIC_ROWS}
    worst = max(cells[row.key].band for row in PROPORTIONALITY_ROWS)
    return ProportionalityReport(
        schema_version=SCHEMA_VERSION,
        counts={row.key: values[row.key] for row in COUNT_ROWS},
        cells=cells,
        verdict=VERDICT_BY_BAND[worst],
        **fairness,
    )


def format_value(value: MetricValue) -> str:
    """Display rounding: 2 decimals for |v| >= 0.1, 3 below; infinity glyph."""
    if value.is_infinite:
        return "∞"
    v = value.value
    digits = 2 if abs(v) >= 0.1 else 3
    s = f"{v:.{digits}f}".rstrip("0")
    if s.endswith("."):
        s += "0"
    return s


def render_text(report: ProportionalityReport) -> str:
    """Plain-text sectioned table: metric, value, short analysis, band."""

    lines: list[str] = []

    def header(title: str):
        lines.append(title)
        lines.append("-" * len(title))

    for section, rows in groupby(ROWS, key=attrgetter("section")):
        header(section)
        for row in rows:
            if row.threshold is None:
                lines.append(f"{row.label:<22} {report.counts[row.key]}")
                continue
            c = report.cells[row.key]
            lines.append(
                f"{row.label:<22} {format_value(c.metric):>6}  "
                f"{c.metric.annotation:<24} {c.band.label}"
            )
        lines.append("")

    for tag, fres in (("pre", report.fairness_pre), ("post", report.fairness_post)):
        if fres is None:
            continue
        header(f"Fairness ({tag}-debias)")
        lines.append(f"{'SP difference':<22} {fres.sp_difference:+.3f}  "
                     f"{'pass' if fres.sp_pass else 'fail'}")
        if fres.eo_difference is not None:
            lines.append(f"{'EO difference':<22} {fres.eo_difference:.3f}  "
                         f"{'pass' if fres.eo_pass else 'fail'}")
        if fres.note:
            lines.append(f"  note: {fres.note}")
        lines.append("")

    lines.append(f"Verdict: {report.verdict}")
    lines.append("Legend: HFPD also known as HFRD; RFD as NFD; RHFD as NHFD.")
    return "\n".join(lines) + "\n"


def render_structured(report: ProportionalityReport, decision: str | None = None) -> str:
    """JSON with fixed key order; infinities appear as kind "inf".

    A pipeline ``decision`` goes last; ``parse_structured`` ignores it.
    """
    data = {"schema_version": report.schema_version,
            **{row.key: report.counts[row.key] for row in COUNT_ROWS}}
    for row in METRIC_ROWS:
        c = report.cells[row.key]
        data[row.key] = {
            "kind": c.metric.kind,
            "value": c.metric.value,
            "display": format_value(c.metric),
            "annotation": c.metric.annotation,
            "band": c.band.label,
        }
    for key in ("fairness_pre", "fairness_post"):
        fres = getattr(report, key)
        data[key] = None if fres is None else fres._asdict()
    data["verdict"] = report.verdict
    if decision is not None:
        data["decision"] = decision
    return json.dumps(data, indent=2) + "\n"


def _check_same(got, want, name: str = "") -> None:
    """Fail unless JSON ``got`` holds ``want``'s keys and values; an int may stand for a float."""
    if isinstance(want, dict):
        for key, value in want.items():
            _check_same(got[key], value, f"{name} {key}".lstrip())
    elif got != want or type(got) is not type(want) and (type(got), type(want)) != (int, float):
        raise ValueError(f"{name} is {got!r}, not {want!r}")


def parse_structured(text: str) -> ProportionalityReport:
    """Rebuild the report in text ``render_structured`` wrote; other text is ``bad_report``."""
    try:
        data = json.loads(text)
        names = ("samples", "flips", "harmful_flips")  # each count at most the one before
        groups = {group: [data[group + name] for name in names] for group in ("group0_", "group1_")}
        for group, counts in groups.items():
            for name, value, most in zip(names, counts, [math.inf, *counts]):
                if type(value) is not int or not 0 <= value <= most:
                    raise ValueError(f"{group}{name} is {value!r}, not a count from 0 to {most}")
        # Kept favorable labels count as kept unfavorable ones: no report value tells them apart.
        table = [((n - flips, flips - harm), (harm, 0)) for n, flips, harm in groups.values()]
        bands = {row.key: Band.from_label(data[row.key]["band"]) for row in METRIC_ROWS}
        fairness = dict.fromkeys(("fairness_pre", "fairness_post"))
        for key in fairness:  # read as written: schema v1 holds nothing to rebuild them from
            if data.get(key) is not None:
                fres = fairness[key] = FairnessResult(**{
                    **data[key], "fair_interval": _check_fair_interval(data[key]["fair_interval"])})
                for field, want in (("sp_pass", bool), ("eo_pass", bool), ("note", str)):
                    if type(value := getattr(fres, field)) is not want:
                        raise ValueError(f"{key} {field} is {value!r}, not a {want.__name__}")
                for field in ("sp_difference", "eo_difference"):  # eo_difference may be null
                    if (value := getattr(fres, field)) is not None or field == "sp_difference":
                        if isinstance(value, bool) or not math.isfinite(real_or_nan(value)):
                            raise ValueError(f"{key} {field} is {value!r}, not a finite number")
        report = _assemble(audit_values(FlipCounts(table)), bands, **fairness)
        written = json.loads(render_structured(report))
        _check_same(data, {key: value for key, value in written.items() if key not in fairness})
        return report
    except json.JSONDecodeError as exc:
        problem = f"not JSON: {exc}"
    except KeyError as exc:
        problem = f"missing key {exc}"
    except (ArithmeticError, TypeError, ValueError) as exc:
        problem = str(exc)
    raise ValidationError(f"not a structured report: {problem}", code="bad_report")
