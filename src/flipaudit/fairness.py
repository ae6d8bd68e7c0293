"""Group fairness gates: statistical parity and equalized odds differences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import ValidationError, binary_vectors, group_tally

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


def sp_from_counts(table: np.ndarray) -> float:
    """SP difference from a (group, label) count table."""
    (neg_unpriv, pos_unpriv), (neg_priv, pos_priv) = table.tolist()
    return pos_unpriv / (neg_unpriv + pos_unpriv) - pos_priv / (neg_priv + pos_priv)


def eo_from_counts(table: np.ndarray) -> tuple[float, str]:
    """EO difference and its note from a (group, true, label) count table."""

    def rate(gid, positive_class):
        negative, positive = table[gid, positive_class].tolist()
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


def statistical_parity_difference(labels, group) -> float:
    """P(label=1 | unprivileged) - P(label=1 | privileged).

    Negative values mean the unprivileged group receives fewer favorable
    outcomes.
    """
    labels, group = binary_vectors(labels=labels, group=group)
    return sp_from_counts(group_tally(group, labels))


def equalized_odds_difference(y_true, labels, group) -> float:
    """max(|TPR gap|, |FPR gap|) between the two groups.

    If a group has no true positives (or no true negatives), that rate gap
    is undefined and is skipped; the remaining gap is used alone.
    """
    if y_true is None:
        raise ValidationError("EO requires true labels", code="missing_true")
    labels, group, y_true = binary_vectors(labels=labels, group=group, y_true=y_true)
    value, _ = eo_from_counts(group_tally(group, y_true, labels))
    return value


def evaluate_fairness(
    labels,
    group,
    y_true=None,
    fair_interval: tuple[float, float] = DEFAULT_FAIR_INTERVAL,
) -> FairnessResult:
    """Run the SP gate, and the EO gate when true labels are available."""
    lo, hi = fair_interval
    labels, group, y_true = binary_vectors(labels=labels, group=group, y_true=y_true)
    if y_true is None:
        sp = sp_from_counts(group_tally(group, labels))
        eo, note = None, "EO skipped: no true labels"
    else:
        table = group_tally(group, y_true, labels)
        sp = sp_from_counts(table.sum(axis=1))
        eo, note = eo_from_counts(table)
    return FairnessResult(
        sp_difference=sp,
        eo_difference=eo,
        fair_interval=fair_interval,
        sp_pass=lo <= sp <= hi,
        eo_pass=eo is None or eo <= hi,
        note=note,
    )
