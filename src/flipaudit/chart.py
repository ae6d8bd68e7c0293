"""Color-banded SVG bar chart for a proportionality report.

Three stacked horizontal-bar panels: overall flip rate and harmful flip
proportion as percentages, the same per group, and the proportionality
metrics. Bars take their color from the metric's threshold band. Infinite
values are clamped to a display cap and marked with an infinity glyph;
the cap is cosmetic only.
"""

from __future__ import annotations

from .report import GROUPS, METRIC_ROWS, OVERALL, MetricCell, ProportionalityReport, format_value

_BAR_H = 18
_ROW_H = 26
_LABEL_W = 150
_PLOT_W = 420
_VALUE_W = 80
_PANEL_GAP = 34
_WIDTH = _LABEL_W + _PLOT_W + _VALUE_W + 20

MIN_INFINITY_CAP = 3.0
INFINITY_CAP_FACTOR = 5.0


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _panel(title: str, rows: list[tuple[str, MetricCell, float | None]],
           axis_max: float, y0: float, panel_id: str,
           percent: bool = False) -> tuple[list[str], float]:
    out = [f'<g id="{panel_id}" class="panel">']
    out.append(
        f'<text x="10" y="{y0 + 14:.1f}" font-size="14" font-weight="bold">'
        f"{_esc(title)}</text>"
    )
    y = y0 + 24
    for label, cell, plotted in rows:
        clamped = plotted is None
        length = axis_max if clamped else min(plotted, axis_max)
        width = _PLOT_W * length / axis_max if axis_max > 0 else 0.0
        out.append(
            f'<text x="{_LABEL_W - 6}" y="{y + _BAR_H - 5:.1f}" font-size="12" '
            f'text-anchor="end">{_esc(label)}</text>'
        )
        out.append(
            f'<rect x="{_LABEL_W}" y="{y:.1f}" width="{width:.2f}" '
            f'height="{_BAR_H}" fill="{cell.band.color}"/>'
        )
        if percent and not clamped:
            value_text = f"{plotted:.1f}%"
        else:
            value_text = format_value(cell.metric)
        out.append(
            f'<text x="{_LABEL_W + _PLOT_W + 8}" y="{y + _BAR_H - 5:.1f}" '
            f'font-size="12">{_esc(value_text)}</text>'
        )
        y += _ROW_H
    out.append("</g>")
    return out, y


def _percent_rows(report: ProportionalityReport, section: str):
    """(label, cell, value in percent) for each metric row of a report section."""
    return [(row.label, report.cells[row.key], report.cells[row.key].metric.value * 100.0)
            for row in METRIC_ROWS if row.section == section]


def emit_chart(report: ProportionalityReport) -> str:
    """Render the report as a standalone SVG document."""
    overall_rows = _percent_rows(report, OVERALL)
    group_rows = _percent_rows(report, GROUPS)

    prop_cells = report.proportionality_cells()
    finite = [c.metric.value for c in prop_cells.values() if not c.metric.is_infinite]
    cap = max(MIN_INFINITY_CAP, INFINITY_CAP_FACTOR * max(finite, default=0.0))
    prop_rows = [
        (name, cell, None if cell.metric.is_infinite else cell.metric.value)
        for name, cell in prop_cells.items()
    ]
    prop_axis = max(
        cap if any(c.metric.is_infinite for c in prop_cells.values()) else 0.0,
        max(finite, default=0.0),
        1.0,
    )

    body: list[str] = []
    y = 10.0
    parts, y = _panel("Overall flip metrics (%)", overall_rows, 100.0, y,
                      "panel-overall", percent=True)
    body += parts
    y += _PANEL_GAP
    parts, y = _panel("Flip metrics by group (%)", group_rows, 100.0, y,
                      "panel-groups", percent=True)
    body += parts
    y += _PANEL_GAP
    parts, y = _panel("Proportionality metrics", prop_rows, prop_axis, y,
                      "panel-proportionality")
    body += parts
    height = y + 10

    svg = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height:.0f}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height:.0f}" fill="white"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(svg) + "\n"

