"""Flip classification and the overall flip-characterization metrics.

A flip is any disagreement between a predicted label and its corrected
label. Favorable flips grant the favorable outcome (0 -> 1); unfavorable
(harmful) flips withdraw it (1 -> 0). Every metric result carries a short
annotation so degenerate cases (no flips, all flips harmful, ...) stay
visible all the way into reports and charts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .frame import AuditFrame, ValidationError, binary_vectors, tally

# Annotation strings, shared by every metric producer.
REGULAR = "Regular calculation"
NO_FLIPS = "No flips"
ONLY_HARMFUL = "Only harmful flips"
ONLY_BENEFICIAL = "Only beneficial flips"
NO_HARMFUL = "No harmful flips"
ONE_ZERO = "One value is zero"
BOTH_ZERO = "Both values are zero"


class FlipKind(enum.Enum):
    NO_FLIP = "no_flip"
    FAVORABLE = "favorable"
    UNFAVORABLE = "unfavorable"


@dataclass(frozen=True)
class MetricValue:
    """Extended-real metric result: a finite value or positive infinity.

    ``annotation`` records how the value was obtained, distinguishing a
    regular evaluation from one of the fixed degenerate-case conventions.
    """

    kind: str  # "finite" | "inf"
    value: float | None
    annotation: str

    def __post_init__(self):
        if self.kind not in ("finite", "inf"):
            raise ValueError(f"bad MetricValue kind: {self.kind!r}")
        if self.kind == "inf" and self.value is not None:
            raise ValueError("infinite MetricValue cannot carry a value")
        if self.kind == "finite" and self.value is None:
            raise ValueError("finite MetricValue requires a value")
        if not self.annotation:
            raise ValueError("annotation must not be empty")

    @classmethod
    def finite(cls, value: float, annotation: str = REGULAR) -> "MetricValue":
        return cls(kind="finite", value=float(value), annotation=annotation)

    @classmethod
    def infinite(cls, annotation: str) -> "MetricValue":
        return cls(kind="inf", value=None, annotation=annotation)

    @property
    def is_infinite(self) -> bool:
        return self.kind == "inf"


@dataclass(frozen=True)
class FlipSummary:
    """Counts and rates characterizing the flips over a set of instances."""

    n: int
    n_flips: int
    n_favorable: int
    n_unfavorable: int
    flip_rate: MetricValue
    dfr: MetricValue
    hfp: MetricValue


def classify_flips(frame: AuditFrame) -> list[FlipKind]:
    """Tag each instance as no flip, favorable flip, or unfavorable flip."""
    # Indexed by 2 * predicted + corrected.
    kinds = np.array([FlipKind.NO_FLIP, FlipKind.FAVORABLE,
                      FlipKind.UNFAVORABLE, FlipKind.NO_FLIP], dtype=object)
    return kinds[2 * frame.y_predicted + frame.y_corrected].tolist()


def flip_rate(n_flips: int, n: int) -> MetricValue:
    """Proportion of instances whose label was flipped."""
    if n < 1:
        raise ValidationError("flip rate needs at least one instance", code="empty")
    if n_flips == 0:
        return MetricValue.finite(0.0, NO_FLIPS)
    return MetricValue.finite(n_flips / n, REGULAR)


def directional_flip_ratio(n_favorable: int, n_unfavorable: int) -> MetricValue:
    """Ratio of favorable to unfavorable flips.

    Conventions: +inf when only beneficial flips exist, 0 when only harmful
    flips exist, and 1 in the absence of any flip.
    """
    if n_favorable == 0 and n_unfavorable == 0:
        return MetricValue.finite(1.0, NO_FLIPS)
    if n_unfavorable == 0:
        return MetricValue.infinite(ONLY_BENEFICIAL)
    if n_favorable == 0:
        return MetricValue.finite(0.0, ONLY_HARMFUL)
    return MetricValue.finite(n_favorable / n_unfavorable, REGULAR)


def harmful_flip_proportion(n_unfavorable: int, n_flips: int) -> MetricValue:
    """Share of harmful flips among all flips; 0 by convention when no flips."""
    if n_flips == 0:
        return MetricValue.finite(0.0, NO_FLIPS)
    value = n_unfavorable / n_flips
    if value == 1.0:
        return MetricValue.finite(1.0, ONLY_HARMFUL)
    if value == 0.0:
        return MetricValue.finite(0.0, NO_HARMFUL)
    return MetricValue.finite(value, REGULAR)


def summarize_counts(counts: np.ndarray) -> FlipSummary:
    """Flip characterization from a 2x2 (predicted, corrected) count table."""
    (_, n_favorable), (n_unfavorable, _) = counts.tolist()
    n = int(counts.sum())
    n_flips = n_favorable + n_unfavorable
    return FlipSummary(
        n=n,
        n_flips=n_flips,
        n_favorable=n_favorable,
        n_unfavorable=n_unfavorable,
        flip_rate=flip_rate(n_flips, n),
        dfr=directional_flip_ratio(n_favorable, n_unfavorable),
        hfp=harmful_flip_proportion(n_unfavorable, n_flips),
    )


def summarize_flips(frame: AuditFrame, mask: np.ndarray | None = None) -> FlipSummary:
    """Compute the flip characterization, optionally over a subset of instances."""
    if mask is None:
        return summarize_counts(tally(frame.y_predicted, frame.y_corrected))
    _, mask = binary_vectors(group=frame.group, mask=np.asarray(mask, dtype=bool))
    counts = tally(mask, frame.y_predicted, frame.y_corrected)[1]
    if not counts.any():
        raise ValidationError("empty group", code="empty_group")
    return summarize_counts(counts)
