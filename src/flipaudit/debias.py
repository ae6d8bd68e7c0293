"""Reference post-processor: flip the fewest labels to equalize statistical parity.

This is deliberately minimal: it knows only labels and group membership,
so it targets statistical parity. Flips lower the favorable rate of the
over-favored group and/or raise the under-favored group's, preferring a
balanced split between the two when several minimal solutions exist.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .frame import BLOCK, AuditFrame, ValidationError, check_seed
from .fairness import sp_from_counts

if TYPE_CHECKING:
    import numpy as np


class DebiasError(ValueError):
    """No split of flips reaches epsilon; ``best_gap`` is the closest |SP|."""

    code = "unreachable_epsilon"

    def __init__(self, message: str, best_gap: float):
        super().__init__(message)
        self.best_gap = best_gap


# The float gap test rounds three times, so it differs from the exact gap by
# less than 2**-51; the exact prefilter widens epsilon by 2**-_ROUNDING_BITS.
_ROUNDING_BITS = 50


def _minimal_flip_split(pos_over: int, n_over: int, pos_under: int, n_under: int,
                        epsilon: float) -> tuple[int, int]:
    """Smallest (down, up) flip counts bringing the rate gap within epsilon.

    ``down`` removes positives from the over-favored group, ``up`` adds
    positives to the under-favored group. Among equal-total solutions the
    most balanced split wins: the first in ``(|down - up|, down)`` order.

    A split passes when the gate's ``sp_from_counts`` of the repaired
    (over, under) table is at most epsilon in absolute value. Each row sums
    to its group's size, so that is the float gap
    ``abs((pos_over - down) / n_over - (pos_under + up) / n_under)``.
    Times ``n_over * n_under`` the gap is the integer
    ``p - down * n_under - up * n_over``, so for a fixed total the passing
    ``down`` values lie in an interval. Exact integer bounds, widened past
    the float rounding, pick the totals and splits that might pass; the float
    test decides among them, so ties on the epsilon boundary resolve as a
    split-by-split float search would.
    """
    import numpy as np

    max_down = pos_over
    max_up = n_under - pos_under
    p = pos_over * n_under - pos_under * n_over
    num, den = float(epsilon).as_integer_ratio()
    scale = den << _ROUNDING_BITS
    # |gap integer| * scale <= outer: the float test may pass; <= inner: it does.
    outer = ((num << _ROUNDING_BITS) + den) * n_over * n_under
    inner = ((num << _ROUNDING_BITS) - den) * n_over * n_under

    def float_gap(down, up):
        return abs(sp_from_counts(((n_over - pos_over + down, pos_over - down),
                                   (n_under - pos_under - up, pos_under + up))))

    # Scan the flip kind with fewer choices; the other solves to an interval.
    swap = max_up < max_down
    x_max, x_coef, y_max, y_coef = ((max_up, n_over, max_down, n_under) if swap
                                    else (max_down, n_under, max_up, n_over))
    half_width = (epsilon + 2.0 ** -_ROUNDING_BITS) * n_over * n_under
    total = _next_total(p, x_max, x_coef, y_max, y_coef, half_width, 0)
    while total is not None:
        lo = max(0, total - max_up)
        hi = min(max_down, total)
        offset = (p - total * n_over) * scale
        slope = (n_over - n_under) * scale
        first, last = _interval(offset, slope, outer, lo, hi)
        sure_first, sure_last = _interval(offset, slope, inner, first, last)
        if sure_first <= sure_last:
            # Only splits ordered before the first sure pass can win.
            sure = min(max(total // 2, sure_first), sure_last)
            if 2 * sure < total:
                first, last = max(first, sure), min(last, total - sure - 1)
            else:
                first, last = max(first, total - sure), min(last, sure)
        down = np.arange(first, last + 1, dtype=np.int64)
        down = down[np.lexsort((down, np.abs(2 * down - total)))]
        passed = np.flatnonzero(float_gap(down, total - down) <= epsilon)
        if passed.size:
            a = int(down[passed[0]])
            return a, total - a
        total = _next_total(p, x_max, x_coef, y_max, y_coef, half_width, total + 1)

    # Unreachable: for each value of the scanned count, the float gap is
    # smallest at one of the two values of the other count around the exact
    # zero, because rounding keeps the difference's sign and monotonicity.
    best_gap = math.inf
    for first in range(0, x_max + 1, BLOCK):
        x = np.arange(first, min(first + BLOCK, x_max + 1), dtype=np.int64)
        y_floor = (p - x * x_coef) // y_coef
        for y in (np.clip(y_floor, 0, y_max), np.clip(y_floor + 1, 0, y_max)):
            gaps = float_gap(y, x) if swap else float_gap(x, y)
            best_gap = min(best_gap, float(gaps.min()))
    raise DebiasError(
        f"cannot reach |SP| <= {epsilon}; best achievable gap is {best_gap:.6g}",
        best_gap=best_gap,
    )


def _next_total(p: int, x_max: int, x_coef: int, y_max: int, y_coef: int,
                half_width: float, start: int) -> int | None:
    """Smallest flip total >= start that might satisfy ``|p - x*x_coef - y*y_coef| <= half_width``.

    For each x in ``[0, x_max]`` the y in ``[0, y_max]`` meeting the bound
    form an interval, so x's totals ``x + y`` do too. The float bounds are
    padded far beyond their rounding error, so no total with a passing split
    is skipped. Returns None when no such total is at least ``start``.

    x is scanned in blocks. A total is at least its x, so the scan stops at
    the first block whose x values are all at least the best total found.
    """
    import numpy as np

    reach = half_width / y_coef
    reach += (max(abs(p), abs(p - x_max * x_coef)) / y_coef + reach + 1) * 2.0 ** -40
    best = None
    for first in range(0, x_max + 1, BLOCK):
        if best is not None and first >= best:
            break
        x = np.arange(first, min(first + BLOCK, x_max + 1), dtype=np.int64)
        centre = (p - x * x_coef) / y_coef
        lo = np.subtract(centre, reach)
        np.maximum(np.ceil(lo, out=lo), 0, out=lo)
        hi = np.add(centre, reach, out=centre)
        np.minimum(np.floor(hi, out=hi), y_max, out=hi)
        keep = lo <= hi
        lo += x  # from here on, the totals x + y
        hi += x
        keep &= hi >= start
        least = lo.min(where=keep, initial=math.inf)
        if least < math.inf:
            found = max(int(least), start)
            best = found if best is None else min(best, found)
    return best


def _interval(offset: int, slope: int, bound: int, lo: int, hi: int) -> tuple[int, int]:
    """The integers a in [lo, hi] with ``|offset + a*slope| <= bound``, as (first, last)."""
    if slope < 0:
        offset, slope = -offset, -slope
    if slope == 0:
        return (lo, hi) if abs(offset) <= bound else (lo, lo - 1)
    return max(lo, -((bound + offset) // slope)), min(hi, (bound - offset) // slope)


def _check_epsilon(epsilon: float):
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError("epsilon must be a positive finite number", code="bad_epsilon")


def sp_equalizing_debiaser(y_predicted, group, epsilon: float, rng_seed: int = 0) -> np.ndarray:
    """Return corrected labels with |SP difference| <= epsilon, flipping minimally.

    The result is a new read-only int8 vector, so a frame built from it
    shares it instead of copying it.
    """
    import numpy as np

    _check_epsilon(epsilon)
    check_seed(rng_seed, "bad_seed")
    frame = AuditFrame(y_predicted, y_predicted, group)
    labels, grp = frame.y_predicted.copy(), frame.group
    flips = frame.counts().flip_table
    # Predicted and corrected labels agree: each group's labels are its diagonal.
    table = [(flips[g][0][0], flips[g][1][1]) for g in (0, 1)]
    sp = sp_from_counts(table)
    if abs(sp) <= epsilon:
        labels.setflags(write=False)
        return labels

    # sp > 0 means group 0 is over-favored.
    over, under = (0, 1) if sp > 0 else (1, 0)
    neg_over, pos_over = table[over]
    neg_under, pos_under = table[under]
    down, up = _minimal_flip_split(
        pos_over=pos_over,
        n_over=neg_over + pos_over,
        pos_under=pos_under,
        n_under=neg_under + pos_under,
        epsilon=epsilon,
    )

    rng = np.random.default_rng(rng_seed)
    # Shuffle the down candidates even when down is 0: the up shuffle's draws
    # follow it. The up shuffle is the generator's last use, so it is skipped
    # when up is 0 without changing a bit.
    _flip_some(labels, grp, over, down, 0, pos_over, rng)
    if up:
        _flip_some(labels, grp, under, up, 1, neg_under, rng)
    labels.setflags(write=False)
    return labels


def _flip_some(labels: np.ndarray, grp: np.ndarray, gid: int, k: int, value: int,
               count: int, rng: np.random.Generator):
    """Set ``k`` of group ``gid``'s ``count`` labels that differ from ``value`` to it.

    The candidates' indices are gathered in order, one block of rows at a
    time, into one array of ``count`` entries; the first k after an in-place
    shuffle are set. A shuffle's draws depend only on its length, so the
    index dtype does not change which rows are picked, and
    ``Generator.permutation`` would copy the indices and shuffle the copy
    the same way.
    """
    import numpy as np

    n = labels.size
    candidates = np.empty(count, np.int32 if n < 2**31 else np.intp)
    in_group = np.empty(min(n, BLOCK), np.bool_)
    is_other = np.empty_like(in_group)
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
    labels[candidates[:k]] = value


def make_sp_debiaser(epsilon: float, rng_seed: int = 0):
    """Bind epsilon and seed into the two-argument debiaser the pipeline expects.

    Epsilon and seed are checked here, so a bad value fails even when the
    pipeline's first gate passes and the debiaser never runs.
    """
    _check_epsilon(epsilon)
    check_seed(rng_seed, "bad_seed")

    def debias(y_predicted, group):
        return sp_equalizing_debiaser(y_predicted, group, epsilon, rng_seed)

    return debias
