"""Reference post-processor: flip the fewest labels to equalize statistical parity.

This is deliberately minimal: it knows only labels and group membership,
so it targets statistical parity (an equalized-odds post-processor would
need true labels and score mixing). Flips lower the favorable rate of the
over-favored group and/or raise the under-favored group's, preferring a
balanced split between the two when several minimal solutions exist.
"""

from __future__ import annotations

import math

import numpy as np

from .frame import ValidationError, binary_vectors, group_tally
from .fairness import sp_from_counts


class DebiasError(ValueError):
    def __init__(self, message: str, best_gap: float):
        super().__init__(message)
        self.best_gap = best_gap


def _minimal_flip_split(pos_over: int, n_over: int, pos_under: int, n_under: int,
                        epsilon: float) -> tuple[int, int]:
    """Smallest (down, up) flip counts bringing the rate gap within epsilon.

    ``down`` removes positives from the over-favored group, ``up`` adds
    positives to the under-favored group. Among equal-total solutions the
    most balanced split wins.
    """
    max_down = pos_over
    max_up = n_under - pos_under
    best_gap = abs(pos_over / n_over - pos_under / n_under)
    for total in range(0, max_down + max_up + 1):
        splits = sorted(
            (
                (a, total - a)
                for a in range(max(0, total - max_up), min(max_down, total) + 1)
            ),
            key=lambda ab: (abs(ab[0] - ab[1]), ab[0]),
        )
        for a, b in splits:
            gap = abs((pos_over - a) / n_over - (pos_under + b) / n_under)
            best_gap = min(best_gap, gap)
            if gap <= epsilon:
                return a, b
    raise DebiasError(
        f"cannot reach |SP| <= {epsilon}; best achievable gap is {best_gap:.6g}",
        best_gap=best_gap,
    )


def sp_equalizing_debiaser(y_predicted, group, epsilon: float, rng_seed: int = 0) -> np.ndarray:
    """Return corrected labels with |SP difference| <= epsilon, flipping minimally."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError("epsilon must be a positive finite number", code="bad_epsilon")
    labels, grp = binary_vectors(y_predicted=y_predicted, group=group)
    labels = labels.copy()
    table = group_tally(grp, labels)
    sp = sp_from_counts(table)
    if abs(sp) <= epsilon:
        return labels

    # sp > 0 means group 0 is over-favored.
    over, under = (0, 1) if sp > 0 else (1, 0)
    neg_over, pos_over = table[over].tolist()
    neg_under, pos_under = table[under].tolist()
    down, up = _minimal_flip_split(
        pos_over=pos_over,
        n_over=neg_over + pos_over,
        pos_under=pos_under,
        n_under=neg_under + pos_under,
        epsilon=epsilon,
    )

    rng = np.random.default_rng(rng_seed)
    down_candidates = np.flatnonzero((grp == over) & (labels == 1))
    up_candidates = np.flatnonzero((grp == under) & (labels == 0))
    labels[rng.permutation(down_candidates)[:down]] = 0
    labels[rng.permutation(up_candidates)[:up]] = 1
    return labels


def make_sp_debiaser(epsilon: float, rng_seed: int = 0):
    """Bind epsilon and seed into the two-argument debiaser the pipeline expects."""

    def debias(y_predicted, group):
        return sp_equalizing_debiaser(y_predicted, group, epsilon, rng_seed)

    return debias
