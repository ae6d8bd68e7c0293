"""Group fairness gates: statistical parity and equalized odds differences."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frame import FlipCounts, ValidationError

DEFAULT_FAIR_INTERVAL = (-0.1, 0.1)


@dataclass(frozen=True)
class FairnessResult:
    sp_difference: float
    eo_difference: float | None
    fair_interval: tuple[float, float]
    sp_pass: bool
    eo_pass: bool
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.sp_pass and self.eo_pass


def sp_from_counts(table) -> float:
    """SP difference from a 2x2 (group, label) table of int counts.

    P(label=1 | unprivileged) - P(label=1 | privileged): negative values
    mean the unprivileged group receives fewer favorable outcomes.
    """
    (neg_unpriv, pos_unpriv), (neg_priv, pos_priv) = table
    return pos_unpriv / (neg_unpriv + pos_unpriv) - pos_priv / (neg_priv + pos_priv)


def eo_from_counts(table) -> tuple[float, str]:
    """EO difference and its note from a 2x2x2 (group, true, label) table of int counts.

    The difference is max(|TPR gap|, |FPR gap|). A gap undefined because a
    group has no true positives (or negatives) is skipped and noted.
    """

    def rate(gid, positive_class):
        negative, positive = table[gid][positive_class]
        if negative + positive == 0:
            return None
        return positive / (negative + positive)

    tprs = [rate(0, 1), rate(1, 1)]
    fprs = [rate(0, 0), rate(1, 0)]
    gaps = []
    note_parts = []
    if None in tprs:
        note_parts.append("TPR gap undefined (a group has no true positives)")
    else:
        gaps.append(abs(tprs[0] - tprs[1]))
    if None in fprs:
        note_parts.append("FPR gap undefined (a group has no true negatives)")
    else:
        gaps.append(abs(fprs[0] - fprs[1]))
    if not gaps:
        raise ValidationError(
            "EO undefined: both TPR and FPR gaps lack instances", code="eo_undefined"
        )
    return max(gaps), "; ".join(note_parts)


def _check_fair_interval(fair_interval) -> tuple[float, float]:
    try:
        lo, hi = fair_interval
        valid = math.isfinite(lo) and math.isfinite(hi) and lo <= 0 <= hi
    except (TypeError, ValueError):
        valid = False
    if not valid:
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

    SP reads the (group, corr) margin of the table, EO its
    (group, true, corr) margin. A fair interval must be two finite numbers
    ``lo <= 0 <= hi``; any other fails with ``bad_fair_interval``, since it
    would fail perfect parity.
    """
    lo, hi = _check_fair_interval(fair_interval)
    flips = counts.flip_table
    sp = sp_from_counts([[flips[g][0][c] + flips[g][1][c] for c in (0, 1)] for g in (0, 1)])
    if counts.has_true:
        t = counts.table
        eo, note = eo_from_counts([[[t[g][0][c][y] + t[g][1][c][y] for c in (0, 1)]
                                    for y in (0, 1)] for g in (0, 1)])
    else:
        eo, note = None, "EO skipped: no true labels"
    return FairnessResult(
        sp_difference=sp,
        eo_difference=eo,
        fair_interval=(lo, hi),
        sp_pass=lo <= sp <= hi,
        eo_pass=eo is None or eo <= hi,
        note=note,
    )
