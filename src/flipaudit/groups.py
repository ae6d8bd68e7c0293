"""Per-group flip statistics and the pairwise proportionality metrics.

The eight metrics compare the privileged and unprivileged groups' flip
rates and harmful flip proportions: absolute differences, max/min ratios,
gaps normalized by the overall flip rate, and gaps normalized by the sum
of the group rates. Degenerate cases follow fixed conventions (infinity
when exactly one rate is zero, neutral values when both are).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import AuditFrame, PRIVILEGED, UNPRIVILEGED, group_tally
from .metrics import (
    BOTH_ZERO,
    NO_FLIPS,
    NO_HARMFUL,
    ONE_ZERO,
    REGULAR,
    FlipSummary,
    MetricValue,
    summarize_counts,
)


@dataclass(frozen=True)
class GroupFlipSummary:
    group_id: int  # 0 unprivileged, 1 privileged
    size: int
    summary: FlipSummary


@dataclass(frozen=True)
class ProportionalityMetrics:
    frd: MetricValue
    hfpd: MetricValue
    di: MetricValue
    hdi: MetricValue
    fd: MetricValue
    hfd: MetricValue
    rfd: MetricValue
    rhfd: MetricValue


def group_summaries(table: np.ndarray) -> tuple[GroupFlipSummary, GroupFlipSummary]:
    """(privileged, unprivileged) summaries of a (group, predicted, corrected) count table."""
    priv, unpriv = (
        GroupFlipSummary(group_id=gid, size=int(table[gid].sum()),
                         summary=summarize_counts(table[gid]))
        for gid in (PRIVILEGED, UNPRIVILEGED)
    )
    return priv, unpriv


def split_by_group(frame: AuditFrame) -> tuple[GroupFlipSummary, GroupFlipSummary]:
    """Return (privileged, unprivileged) flip summaries; both groups required."""
    return group_summaries(group_tally(frame.group, frame.y_predicted, frame.y_corrected))


def rate_difference(rate_priv: MetricValue, rate_unpriv: MetricValue) -> MetricValue:
    """Absolute difference of two group rates (serves FRD and HFPD)."""
    return MetricValue.finite(abs(rate_priv.value - rate_unpriv.value), REGULAR)


def disparity_index(rate_a: MetricValue, rate_b: MetricValue) -> MetricValue:
    """max/min ratio of two group rates (serves DI and HDI)."""
    a, b = rate_a.value, rate_b.value
    if a == 0.0 and b == 0.0:
        return MetricValue.finite(1.0, BOTH_ZERO)
    if a == 0.0 or b == 0.0:
        return MetricValue.infinite(ONE_ZERO)
    return MetricValue.finite(max(a, b) / min(a, b), REGULAR)


def flip_disparity(
    rate_priv: MetricValue, rate_unpriv: MetricValue, overall_fr: MetricValue
) -> MetricValue:
    """Between-group gap normalized by the overall flip rate (serves FD and HFD).

    When exactly one group rate is zero the result is +inf by convention,
    even though the raw formula would stay finite; when both are zero the
    result is 1.
    """
    a, b = rate_priv.value, rate_unpriv.value
    if a == 0.0 and b == 0.0:
        return MetricValue.finite(1.0, BOTH_ZERO)
    if a == 0.0 or b == 0.0:
        return MetricValue.infinite(ONE_ZERO)
    fr = overall_fr.value
    return MetricValue.finite(abs(a / fr - b / fr), REGULAR)


def relative_disparity(
    diff: MetricValue, rate_priv: MetricValue, rate_unpriv: MetricValue
) -> MetricValue:
    """Gap normalized by the sum of the group rates (serves RFD and RHFD)."""
    total = rate_priv.value + rate_unpriv.value
    if total == 0.0:
        # A zero HFP of a group that did flip carries NO_HARMFUL.
        flipped = NO_HARMFUL in (rate_priv.annotation, rate_unpriv.annotation)
        return MetricValue.finite(0.0, BOTH_ZERO if flipped else NO_FLIPS)
    return MetricValue.finite(diff.value / total, REGULAR)


def proportionality(
    priv: FlipSummary, unpriv: FlipSummary, overall: FlipSummary
) -> ProportionalityMetrics:
    """The eight proportionality metrics from the group and overall summaries."""
    fr_p, fr_u = priv.flip_rate, unpriv.flip_rate
    hfp_p, hfp_u = priv.hfp, unpriv.hfp

    frd = rate_difference(fr_p, fr_u)
    hfpd = rate_difference(hfp_p, hfp_u)
    return ProportionalityMetrics(
        frd=frd,
        hfpd=hfpd,
        di=disparity_index(fr_p, fr_u),
        hdi=disparity_index(hfp_p, hfp_u),
        fd=flip_disparity(fr_p, fr_u, overall.flip_rate),
        hfd=flip_disparity(hfp_p, hfp_u, overall.flip_rate),
        rfd=relative_disparity(frd, fr_p, fr_u),
        rhfd=relative_disparity(hfpd, hfp_p, hfp_u),
    )


def compute_proportionality(frame: AuditFrame) -> ProportionalityMetrics:
    """Evaluate all eight proportionality metrics for a frame."""
    table = group_tally(frame.group, frame.y_predicted, frame.y_corrected)
    priv, unpriv = group_summaries(table)
    return proportionality(priv.summary, unpriv.summary, summarize_counts(table.sum(axis=0)))
