"""Reference post-processor: flip the fewest labels to equalize statistical parity.

This is deliberately minimal: it knows only labels and group membership,
so it targets statistical parity. Flips lower the favorable rate of the
over-favored group and/or raise the under-favored group's, preferring a
balanced split between the two when several minimal solutions exist.

The repair is made in two steps: ``plan_split`` solves the flip counts from
the count table, and ``place`` draws the rows that flip.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .frame import BLOCK, AuditFrame, FlipCounts, Record, ValidationError, check_seed, real_or_nan
from .fairness import rate_gap, scaled_floor

if TYPE_CHECKING:
    import numpy as np


class DebiasError(ValidationError):
    """No split of flips reaches epsilon; ``best_gap`` is the least |SP| any split reaches."""

    def __init__(self, epsilon: float, best_gap: float):
        super().__init__(f"cannot reach |SP| <= {epsilon}; best achievable gap is "
                         f"{best_gap:.6g}", code="unreachable_epsilon")
        self.best_gap = best_gap


def _minimal_flip_split(pos_over: int, n_over: int, pos_under: int, n_under: int,
                        epsilon: float) -> tuple[int, int]:
    """Smallest (down, up) flip counts bringing the rate gap within epsilon.

    ``down`` removes positives from the over-favored group, ``up`` adds
    positives to the under-favored group. Among equal-total solutions the
    most balanced split wins: the first in ``(|down - up|, down)`` order.

    Times ``n_over * n_under`` the repaired gap
    ``(pos_over - down) / n_over - (pos_under + up) / n_under`` is the
    integer ``p - down * n_under - up * n_over``, where ``p`` is the
    unrepaired gap's ``rate_gap`` numerator, and a split passes when its
    absolute value is at most ``scaled_floor(epsilon, n_over * n_under)``:
    the SP gate's exact test. ``_least_total`` finds the least total of a
    passing split, stepping along the flip kind that moves it more; for that
    total the passing ``down`` values form an interval, and the value in it
    nearest ``total / 2`` wins. Raises ``DebiasError`` when no split passes.
    """
    max_down = pos_over
    max_up = n_under - pos_under
    _, p, den = rate_gap((n_over - pos_over, pos_over), (n_under - pos_under, pos_under))
    bound = scaled_floor(epsilon, den)
    # Count along the flip kind that moves the gap more; the other solves to an interval.
    if n_over > n_under:
        x_max, x_coef, y_max, y_coef = max_up, n_over, max_down, n_under
    else:
        x_max, x_coef, y_max, y_coef = max_down, n_under, max_up, n_over
    total, least = _least_total(p, x_max, x_coef, y_max, y_coef, bound)
    if total is None:
        raise DebiasError(epsilon, best_gap=least / den)
    first, last = _interval(p - total * n_over, n_over - n_under, bound,
                            max(0, total - max_up), min(max_down, total))
    down = min(max(total // 2, first), last)
    return down, total - down


def _least_total(p: int, x_max: int, x_coef: int, y_max: int, y_coef: int,
                 bound: int) -> tuple[int | None, int | None]:
    """Least ``x + y`` with ``|p - x*x_coef - y*y_coef| <= bound``, x and y in range.

    Needs ``x_coef >= y_coef``. Returns the total and None, or, when no
    total passes, None and the least ``|p - x*x_coef - y*y_coef|`` in range.
    No total below ``x0 = ceil((p - bound) / x_coef)`` passes, and below x0
    an x's least passing total ``x + ceil((p - bound - x*x_coef) / y_coef)``
    never falls as x falls; if x0 overshoots, so does every larger x. So the
    answer is the first x, counting down from ``min(x0, x_max)``, with a
    passing y (``_interval``). That x is tried first, in plain ints: it
    answers whenever ``x_coef <= 2*bound + 1`` and any total passes.
    Otherwise x counts down in int64 blocks, since a pure-Python count is
    over 100 times slower, to the first x at which even ``y_max`` falls
    short, as it then does at every smaller x.
    """
    top = max(0, min(-((bound - p) // x_coef), x_max))
    first, last = _interval(p - top * x_coef, -y_coef, bound, 0, y_max)
    if first <= last:
        return top + first, None

    # The first x passes whenever bound >= |p|, so here bound < |p| <= den
    # and the block arithmetic stays well inside int64.
    import numpy as np

    # x counts down to the first x at which even y_max falls short, or to 0.
    stop = max(0, min(top, -((bound + y_max * y_coef - p) // x_coef) - 1))
    least = abs(p)
    for start in range(top, stop - 1, -BLOCK):
        r = p - x_coef * np.arange(start, max(start - BLOCK, stop - 1), -1, dtype=np.int64)
        lo = np.maximum(-((bound - r) // y_coef), 0)  # ceil((r - bound) / y_coef), at least 0
        hi = np.minimum((r + bound) // y_coef, y_max)  # floor((r + bound) / y_coef), at most y_max
        keep = lo <= hi
        if keep.any():
            i = int(keep.argmax())
            return start - i + int(lo[i]), None
        for y in (lo, hi):  # with no y passing, the least residual is at one of the two ends
            least = min(least, int(np.abs(r - y_coef * np.clip(y, 0, y_max)).min()))
    return None, least


def _interval(offset: int, slope: int, bound: int, lo: int, hi: int) -> tuple[int, int]:
    """The integers a in [lo, hi] with ``|offset + a*slope| <= bound``, as (first, last)."""
    if slope < 0:
        offset, slope = -offset, -slope
    if slope == 0:
        return (lo, hi) if abs(offset) <= bound else (lo, lo - 1)
    return max(lo, -((bound + offset) // slope)), min(hi, (bound - offset) // slope)


def _check_epsilon(epsilon: float):
    if not 0 < real_or_nan(epsilon) < math.inf:
        raise ValidationError("epsilon must be a positive finite number", code="bad_epsilon")


def check_options(epsilon: float, seed: int) -> None:
    """Fail ``bad_epsilon`` for a bad epsilon, then ``bad_seed`` for a bad seed."""
    _check_epsilon(epsilon)
    check_seed(seed, "bad_seed")


class Plan(Record):
    """A minimal SP repair as flip counts: how many rows of each kind flip, not which.

    ``kinds`` holds one ``(gid, value, k, count)`` for each flip kind, in
    the order their rows are drawn: k of the ``count`` rows of group
    ``gid`` whose prediction is not ``value`` get ``value``. The
    over-favored group's kind, which sets labels to 0, comes first.
    """

    kinds: tuple

    def apply(self, counts: FlipCounts) -> FlipCounts | None:
        """The table of ``counts``' predictions corrected by the plan; None if draws decide it.

        ``counts`` is the table the plan was made from; its corr axis is
        not read. A kind fixes its flips' cells when it takes all of its
        candidates or takes them from one non-empty cell: always, without
        true labels, and with them whenever its candidates share one true
        value. Then each of its cells loses ``min(cell, k)``, which adds up
        to k; in every other case those add up to more.
        """
        truth = ("true",) if counts.has_true else ()
        # Each (group, pred)'s rows by true value; without true labels, one value.
        rows = [[cells if truth else (cells,) for cells in row]
                for row in counts.margin("group", "pred", *truth)]
        flips = {}  # (group, pred): the flips taken from each of its cells
        for gid, value, k, _ in self.kinds:
            flips[gid, 1 - value] = [min(cell, k) for cell in rows[gid][1 - value]]
            if sum(flips[gid, 1 - value]) != k:
                return None
        table = [[[[cell - flip if corr == pred else flip
                    for cell, flip in zip(cells, flips.get((gid, pred), (0, 0)))]
                   for corr in (0, 1)]
                  for pred, cells in enumerate(row)]
                 for gid, row in enumerate(rows)]
        if not truth:
            table = [[[cells[0] for cells in corrs] for corrs in preds] for preds in table]
        return FlipCounts(table)


def plan_split(counts: FlipCounts, epsilon: float) -> Plan:
    """The fewest flips of predictions that bring the |SP| of ``counts`` within epsilon.

    Reads the (group, pred) margin, so the table's corrected labels do not
    matter. The split is ``_minimal_flip_split``'s; ``DebiasError`` if none.
    """
    _check_epsilon(epsilon)
    table = counts.margin("group", "pred")  # each group's (negatives, positives)
    # A positive gap means group 0 is over-favored.
    over, under = (0, 1) if rate_gap(*table)[1] > 0 else (1, 0)
    neg_over, pos_over = table[over]
    neg_under, pos_under = table[under]
    down, up = _minimal_flip_split(pos_over, neg_over + pos_over,
                                   pos_under, neg_under + pos_under, epsilon)
    return Plan(((over, 0, down, pos_over), (under, 1, up, neg_under)))


def sp_equalizing_debiaser(y_predicted, group, epsilon: float, rng_seed: int = 0) -> np.ndarray:
    """Return corrected labels with |SP difference| <= epsilon, flipping minimally.

    The ``plan_split`` of the predictions' counts, placed by ``place``: a
    new read-only int8 vector.
    """
    check_options(epsilon, rng_seed)
    frame = AuditFrame(y_predicted, y_predicted, group)
    return place(plan_split(frame.counts(), epsilon), frame, rng_seed)


def place(plan: Plan, frame: AuditFrame, seed: int) -> np.ndarray:
    """``frame``'s predictions with the plan's flips drawn by ``seed``, a non-negative int.

    The result is a new read-only int8 vector, so a frame built from it
    shares it instead of copying it. Every flip is drawn before the labels
    are copied, so the copy and a kind's candidate indices are never held
    at once.
    """
    drawn = _draw_flips(frame.y_predicted, frame.group, plan.kinds, seed)
    labels = frame.y_predicted.copy()
    for rows, value in drawn:
        labels[rows] = value
    labels.setflags(write=False)
    return labels


def _draw_flips(labels: np.ndarray, grp: np.ndarray, kinds,
                seed: int) -> list[tuple[np.ndarray, int]]:
    """``(rows, value)`` to set for each ``(gid, value, k, count)`` kind that flips.

    A kind's k rows are drawn from the ``count`` rows of group ``gid``
    whose label is not ``value``: their indices, gathered in order a block
    at a time into one int32 array, are shuffled in place by one generator
    seeded with ``seed``, and the first k are kept before the array is
    freed. A shuffle's draws depend only on its length, so the index dtype
    does not change the rows picked, and a kind with no flips shuffles
    scratch bytes to keep the draws of the kinds after it. Kinds after the
    last that flips draw nothing: with no flips, ``numpy.random`` is not
    even imported.
    """
    import numpy as np

    flipping = [i for i, (_, _, k, _) in enumerate(kinds) if k]
    if not flipping:
        return []
    rng = np.random.default_rng(seed)
    n = labels.size
    dtype = np.int32 if n < 2**31 else np.intp
    in_group = np.empty(min(n, BLOCK), np.bool_)
    is_other = np.empty_like(in_group)
    drawn = []
    for gid, value, k, count in kinds[:flipping[-1] + 1]:
        if not k:
            rng.shuffle(np.empty(count, np.uint8))
            continue
        candidates = np.empty(count, dtype)
        filled = 0
        for start in range(0, n, BLOCK):
            stop = min(start + BLOCK, n)
            rows = in_group[:stop - start]
            np.equal(grp[start:stop], gid, out=rows)
            rows &= np.not_equal(labels[start:stop], value, out=is_other[:rows.size])
            found = np.flatnonzero(rows)
            np.add(found, start, out=candidates[filled:filled + found.size])
            filled += found.size
        rng.shuffle(candidates)
        drawn.append((candidates[:k].copy(), value))
        del candidates  # before the next kind's array is made
    return drawn


def make_sp_debiaser(epsilon: float, rng_seed: int = 0):
    """Bind epsilon and seed into the two-argument debiaser the pipeline expects.

    Epsilon and seed are checked here, so a bad value fails even when the
    pipeline's first gate passes and the debiaser never runs.
    """
    check_options(epsilon, rng_seed)

    def debias(y_predicted, group):
        return sp_equalizing_debiaser(y_predicted, group, epsilon, rng_seed)

    return debias
