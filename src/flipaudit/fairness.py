"""Group fairness gates: statistical parity and equalized odds differences."""

from __future__ import annotations

from dataclasses import dataclass, field

from .frame import ValidationError, _as_binary_vector, tally

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


def _group_vectors(labels, group):
    labels = _as_binary_vector(labels, "labels")
    group = _as_binary_vector(group, "group")
    if labels.size != group.size:
        raise ValidationError(
            f"labels has length {labels.size}, group has length {group.size}",
            code="length_mismatch",
        )
    for gid in (0, 1):
        if not (group == gid).any():
            raise ValidationError(f"group {gid} has no instances", code="missing_group")
    return labels, group


def statistical_parity_difference(labels, group) -> float:
    """P(label=1 | unprivileged) - P(label=1 | privileged).

    Negative values mean the unprivileged group receives fewer favorable
    outcomes.
    """
    labels, group = _group_vectors(labels, group)
    (neg_unpriv, pos_unpriv), (neg_priv, pos_priv) = tally(group, labels).tolist()
    return pos_unpriv / (neg_unpriv + pos_unpriv) - pos_priv / (neg_priv + pos_priv)


def equalized_odds_difference(y_true, labels, group) -> float:
    """max(|TPR gap|, |FPR gap|) between the two groups.

    If a group has no true positives (or no true negatives), that rate gap
    is undefined and is skipped; the remaining gap is used alone.
    """
    value, _ = _equalized_odds(y_true, labels, group)
    return value


def _equalized_odds(y_true, labels, group) -> tuple[float, str]:
    if y_true is None:
        raise ValidationError("EO requires true labels", code="missing_true")
    labels, group = _group_vectors(labels, group)
    y_true = _as_binary_vector(y_true, "y_true")
    if y_true.size != labels.size:
        raise ValidationError(
            f"y_true has length {y_true.size}, expected {labels.size}",
            code="length_mismatch",
        )

    counts = tally(group, y_true, labels)

    def rate(gid, positive_class):
        negative, positive = counts[gid, positive_class].tolist()
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


def evaluate_fairness(
    labels,
    group,
    y_true=None,
    fair_interval: tuple[float, float] = DEFAULT_FAIR_INTERVAL,
) -> FairnessResult:
    """Run the SP gate, and the EO gate when true labels are available."""
    lo, hi = fair_interval
    sp = statistical_parity_difference(labels, group)
    sp_pass = lo <= sp <= hi
    if y_true is None:
        return FairnessResult(
            sp_difference=sp,
            eo_difference=None,
            fair_interval=fair_interval,
            sp_pass=sp_pass,
            eo_pass=True,
            note="EO skipped: no true labels",
        )
    eo, note = _equalized_odds(y_true, labels, group)
    return FairnessResult(
        sp_difference=sp,
        eo_difference=eo,
        fair_interval=fair_interval,
        sp_pass=sp_pass,
        eo_pass=eo <= hi,
        note=note,
    )
