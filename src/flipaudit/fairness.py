"""Group fairness gates: statistical parity and equalized odds differences."""

from __future__ import annotations

import math

from .frame import FlipCounts, Record, ValidationError, real_or_nan

DEFAULT_FAIR_INTERVAL = (-0.1, 0.1)


class FairnessResult(Record):
    sp_difference: float
    eo_difference: float | None
    fair_interval: tuple[float, float]
    sp_pass: bool
    eo_pass: bool
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.sp_pass and self.eo_pass


def rate_gap(first, second) -> tuple[float, int, int]:
    """The favorable-rate gap between two (negatives, positives) rows of int counts.

    Returned two ways: as the float ``rate(first) - rate(second)`` the
    report prints, and as integers ``num, den`` whose exact quotient it is.
    """
    (neg_a, pos_a), (neg_b, pos_b) = first, second
    n_a, n_b = neg_a + pos_a, neg_b + pos_b
    return pos_a / n_a - pos_b / n_b, pos_a * n_b - pos_b * n_a, n_a * n_b


def scaled_floor(bound, den: int) -> int:
    """``floor(bound * den)`` at the exact binary value of ``bound`` as a float.

    A gap ``num / den`` (``den > 0``) is at most ``bound`` exactly when
    ``num <= scaled_floor(bound, den)``.
    """
    num, scale = float(bound).as_integer_ratio()
    return num * den // scale


def eo_gaps(table) -> tuple[list[tuple[float, int, int]], str]:
    """The defined EO rate gaps, as ``rate_gap`` gives them, and their note.

    ``table`` is a 2x2x2 (group, true, label) table of int counts. The TPR
    and FPR gaps are between the groups' (true = 1) and (true = 0) rows; a
    gap undefined because a group has no true positives (or negatives) is
    skipped and noted.
    """
    gaps = []
    note_parts = []
    for y, undefined in ((1, "TPR gap undefined (a group has no true positives)"),
                         (0, "FPR gap undefined (a group has no true negatives)")):
        if sum(table[0][y]) and sum(table[1][y]):
            gaps.append(rate_gap(table[0][y], table[1][y]))
        else:
            note_parts.append(undefined)
    if not gaps:
        raise ValidationError(
            "EO undefined: both TPR and FPR gaps lack instances", code="eo_undefined"
        )
    return gaps, "; ".join(note_parts)


def _check_fair_interval(fair_interval) -> tuple[float, float]:
    try:
        lo, hi = fair_interval
    except (TypeError, ValueError):
        lo = hi = math.nan
    if not -math.inf < real_or_nan(lo) <= 0 <= real_or_nan(hi) < math.inf:
        raise ValidationError(
            f"fair interval must be two finite numbers lo <= 0 <= hi, got {fair_interval!r}",
            code="bad_fair_interval",
        )
    return lo, hi


def evaluate_fairness(
    counts: FlipCounts,
    fair_interval: tuple[float, float] = DEFAULT_FAIR_INTERVAL,
) -> FairnessResult:
    """Gate the corrected labels: SP, and EO when the counts have true labels.

    SP is P(corr=1 | unprivileged) - P(corr=1 | privileged), read from the
    (group, corr) margin of the table: negative values mean the
    unprivileged group receives fewer favorable outcomes. EO is
    max(|TPR gap|, |FPR gap|) over the (group, true, corr) margin. Every
    bound is compared exactly, at the binary value of the float given, so
    the same exact gap passes or fails whatever the rates are. A fair
    interval must be two finite numbers ``lo <= 0 <= hi``; any other fails
    with ``bad_fair_interval``, since it would fail perfect parity.
    """
    lo, hi = _check_fair_interval(fair_interval)
    sp, num, den = rate_gap(*counts.margin("group", "corr"))
    if counts.has_true:
        gaps, note = eo_gaps(counts.margin("group", "true", "corr"))
        eo = max(abs(gap) for gap, _, _ in gaps)
        eo_pass = all(abs(n) <= scaled_floor(hi, d) for _, n, d in gaps)
    else:
        eo, eo_pass, note = None, True, "EO skipped: no true labels"
    return FairnessResult(
        sp_difference=sp,
        eo_difference=eo,
        fair_interval=(lo, hi),
        sp_pass=-scaled_floor(-lo, den) <= num <= scaled_floor(hi, den),
        eo_pass=eo_pass,
        note=note,
    )
