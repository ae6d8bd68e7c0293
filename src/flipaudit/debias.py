"""Reference post-processor: flip the fewest labels to equalize statistical parity.

This is deliberately minimal: it knows only labels and group membership,
so it targets statistical parity. Flips lower the favorable rate of the
over-favored group and/or raise the under-favored group's, preferring a
balanced split between the two when several minimal solutions exist.

The repair is made in two steps: ``plan_split`` solves the flip counts from
the count table, and ``flip_rows`` draws the rows that flip, which ``place`` sets.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right

from .frame import AuditFrame, FlipCounts, Record, ValidationError, check_seed, real_or_nan
from .fairness import rate_gap, scaled_floor


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
    passing split in Python ints, solving along the flip kind that moves it
    more; for that total the passing ``down`` values form an interval, and
    the value in it nearest ``total / 2`` wins. Raises ``DebiasError`` when
    no split passes.
    """
    max_down = pos_over
    max_up = n_under - pos_under
    _, p, den = rate_gap((n_over - pos_over, pos_over), (n_under - pos_under, pos_under))
    bound = scaled_floor(epsilon, den)
    # Solve along the flip kind that moves the gap more; the other solves to an interval.
    if n_over > n_under:
        x_coef, y_max, y_coef = n_over, max_down, n_under
    else:
        x_coef, y_max, y_coef = n_under, max_up, n_over
    total, least = _least_total(p, x_coef, y_max, y_coef, bound)
    if total is None:
        raise DebiasError(epsilon, best_gap=least / den)
    first, last = _interval(p - total * n_over, n_over - n_under, bound,
                            max(0, total - max_up), min(max_down, total))
    down = min(max(total // 2, first), last)
    return down, total - down


def _least_total(p: int, x_coef: int, y_max: int, y_coef: int,
                 bound: int) -> tuple[int | None, int | None]:
    """Least ``x + y`` with ``|p - x*x_coef - y*y_coef| <= bound``, x and y in range.

    Needs ``x_coef >= y_coef``, ``0 <= p <= x_max*x_coef`` for x's maximum
    ``x_max``, ``p <= y_max*y_coef`` and ``bound >= 0``. Returns the total
    and None, or, when no total passes, None and the least
    ``|p - x*x_coef - y*y_coef|`` in range. No total below
    ``x0 = ceil((p - bound) / x_coef)`` passes, and below x0 an x's least
    passing total never falls as x falls; if x0 overshoots, so does every
    larger x. So the answer is the first x, counting down from x0 (or 0),
    with a passing y. At x0 only y = 0 can pass. Below it, x = x0 - t leaves
    a residual r in ``(bound, y_max*y_coef]``, and a y is within d of r when
    ``(r + d) % y_coef <= 2*d``: ``_first_hit`` finds the least such t. With
    none at d = bound, the least d with one is bisected.
    """
    top = max(0, -((bound - p) // x_coef))
    r0 = p - top * x_coef
    if r0 >= -bound:
        return top, None
    a = x_coef % y_coef

    def first(d):  # the least t, from 1, with a y within d of x0 - t's residual r0 + t*x_coef
        c = (r0 + x_coef + d) % y_coef
        t = 0 if c <= 2 * d else _first_hit(a, y_coef, y_coef - c, y_coef - c + 2 * d)
        return math.inf if t is None else t + 1

    t = first(bound)
    if t <= top:
        return top - t - ((bound - r0 - t * x_coef) // y_coef), None
    least = -r0  # x0's, with y = 0
    if top:  # t = 1 passes at d = y_coef // 2
        gaps = range(bound + 1, y_coef // 2 + 1)
        least = min(least, gaps[bisect_left(gaps, True, key=lambda d: first(d) <= top)])
    return None, least


def _first_hit(a: int, m: int, lo: int, hi: int) -> int | None:
    """Least t >= 0 with ``lo <= a*t % m <= hi``, for ``0 <= a < m`` and ``0 < lo <= hi < m``.

    None if there is none. Unless a multiple of a lies in [lo, hi], the
    least t follows from the least k with ``m*k % a`` in ``[-hi % a, -lo % a]``:
    Euclid's recursion on ``(m % a, a)``.
    """
    if a == 0:
        return None
    t = -(-lo // a)
    if a * t <= hi:
        return t
    k = _first_hit(m % a, a, -hi % a, -lo % a)
    return None if k is None else -(-(m * k + lo) // a)


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
    over-favored group's kind, which sets labels to 0, comes first. Each is
    four ints, with gid and value 0 or 1 and 0 <= k <= count, and no two
    share a (gid, value), as those would draw from the same candidates;
    else ``bad_plan``. They are held as tuples of Python ints.
    """

    kinds: tuple

    def __post_init__(self):
        try:
            kinds = [(gid, value, k, count) for gid, value, k, count in self.kinds]
        except (TypeError, ValueError):  # not a sequence of four-item kinds
            kinds = None
        if kinds is None or not all(
                all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in kind)
                and kind[0] in (0, 1) and kind[1] in (0, 1) and 0 <= kind[2] <= kind[3]
                for kind in kinds) or len({kind[:2] for kind in kinds}) < len(kinds):
            raise ValidationError(f"plan kinds must be (gid, value, k, count) ints with gid and "
                                  f"value 0 or 1, 0 <= k <= count and no (gid, value) twice, "
                                  f"got {self.kinds!r}", code="bad_plan")
        object.__setattr__(self, "kinds", tuple(tuple(map(int, kind)) for kind in kinds))

    def apply(self, counts: FlipCounts, ones=None) -> FlipCounts | None:
        """The table of ``counts``' predictions corrected by the plan; None if draws decide it.

        ``counts`` is the table the plan was made from; its corr axis is
        not read. A kind fixes its flips' cells when it takes all of its
        candidates or takes them from one non-empty cell: always, without
        true labels, and with them whenever its candidates share one true
        value. Then each of its cells loses ``min(cell, k)``, which adds up
        to k; in every other case those add up to more. ``ones``, each kind's
        placed flips with true label 1, decides them: its cells lose k - one and one.
        """
        truth = ("true",) if counts.has_true else ()
        # Each (group, pred)'s rows by true value; without true labels, one value.
        rows = [[cells if truth else (cells,) for cells in row]
                for row in counts.margin("group", "pred", *truth)]
        flips = {}  # (group, pred): the flips taken from each of its cells
        for i, (gid, value, k, count) in enumerate(self.kinds):
            _check_candidates(count, sum(rows[gid][1 - value]), "table")
            flips[gid, 1 - value] = ((k - ones[i], ones[i]) if truth and ones is not None
                                     else [min(cell, k) for cell in rows[gid][1 - value]])
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


def _check_candidates(count: int, found: int, where: str) -> None:
    """Fail ``bad_plan`` unless a kind's ``count`` is the ``found`` candidates in ``where``."""
    if count != found:
        raise ValidationError(f"a plan kind counts {count} candidates, but the {where} "
                              f"hold {found}", code="bad_plan")


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


def sp_equalizing_debiaser(y_predicted, group, epsilon: float, rng_seed: int = 0) -> memoryview:
    """Return corrected labels with |SP difference| <= epsilon, flipping minimally.

    The ``plan_split`` of the predictions' counts, placed by ``place``: a
    read-only view of the new ``bytearray``, which a frame shares uncopied.
    """
    check_options(epsilon, rng_seed)
    frame = AuditFrame(y_predicted, y_predicted, group)
    plan = plan_split(frame.counts(), epsilon)
    return memoryview(place(plan, frame.y_predicted, frame.group, rng_seed)).toreadonly()


_BIT = bytes.maketrans(b"01", b"\0\1")  # a binary digit to its bit, a byte
_SPAN = 1 << 14  # rows read as one big int: few, as the emit holds both kinds' spans at once
_RUN = 256  # rows whose candidates are listed together when one of them is drawn
_OFFSETS = tuple(range(_RUN))  # a run's row offsets: small ints, which are never allocated


def place(plan: Plan, labels, group, seed: int) -> bytearray:
    """A ``bytearray`` copy of ``labels`` with each kind's ``flip_rows`` set to its value.

    ``labels`` and ``group`` are aligned 0/1 byte columns, bytes-like.
    """
    flips = flip_rows(plan, labels, group, seed)
    corrected = bytearray(labels)
    for value, rows in flips:
        for row in rows:
            corrected[row] = value
    return corrected


def flip_rows(plan: Plan, labels, group, seed: int) -> list:
    """For each of the plan's kinds, its value and an iterator of its rows, in row order.

    ``labels`` and ``group`` are as ``place`` takes them. Before this returns, one
    ``random.Random(seed)`` draws (``_draw``) k ranks of each flipping kind, in the
    plan's order; an iterator finds rows as it is read (``_drawn_rows``), none if k is 0.
    A flipping kind that counts more candidates than the columns have rows fails
    ``bad_plan`` before anything is drawn.
    """
    import random

    check_seed(seed, "bad_seed")
    if memoryview(labels).itemsize != 1 or memoryview(group).itemsize != 1:
        raise TypeError("labels and group must hold one byte a row")
    for _, _, k, count in plan.kinds:
        if k and count > len(labels):
            raise ValidationError(f"a plan kind counts {count} candidates, but the columns "
                                  f"have {len(labels)} rows", code="bad_plan")
    rng = random.Random(int(seed))
    return [(value, _drawn_rows(_draw(rng, k, count), labels, group, gid, value, count)
             if k else iter(())) for gid, value, k, count in plan.kinds]


def _draw(rng, k: int, count: int) -> bytearray:
    """A uniform k-subset of ``range(count)`` as a bitset: r is in it if bit r is set.

    Floyd's draw: for each j from count - k to count - 1, t is drawn from
    0 to j and taken, or j if t already is. Each t is ``rng.getrandbits``
    of j's bit length, drawn again while it exceeds j.
    """
    drawn = bytearray((count + 7) >> 3)
    for j in range(count - k, count):
        t = rng.getrandbits(j.bit_length())
        while t > j:
            t = rng.getrandbits(j.bit_length())
        if drawn[t >> 3] >> (t & 7) & 1:
            t = j
        drawn[t >> 3] |= 1 << (t & 7)
    return drawn


def _drawn_rows(drawn: bytearray, labels, group, gid: int, value: int, total: int):
    """The rows, in order, of the candidates whose ranks ``drawn`` holds.

    The candidates, the rows of group ``gid`` whose label is not ``value``,
    are ranked in row order; there must be ``total`` of them, else ``bad_plan``.
    A span of ``_SPAN`` rows of each column is one big int, a byte a row,
    XORed with a row of ones where the byte sought is 0; their AND marks the
    span's candidates, counted by ``bit_count``. In a span with a drawn rank,
    ``adler32`` from 0 sums each run of ``_RUN`` rows' marks, ``bisect`` finds
    a drawn rank's run in their ``accumulate``, and ``compress`` over ``_OFFSETS``
    lists that run's candidates alone: no Python step runs per run or per candidate.
    """
    from itertools import accumulate, compress, repeat
    from zlib import adler32

    labels, group = memoryview(labels), memoryview(group)
    ones = int.from_bytes(b"\1" * _SPAN, "big")
    runs = [slice(at, at + _RUN) for at in range(0, _SPAN, _RUN)]
    first = 0  # the rank of the span's first candidate
    for start in range(0, len(labels), _SPAN):
        size = min(_SPAN, len(labels) - start)
        ones >>= 8 * (_SPAN - size)
        mask = ((int.from_bytes(group[start:start + size], "big") ^ (0 if gid else ones))
                & (int.from_bytes(labels[start:start + size], "big") ^ (ones if value else 0)))
        count = mask.bit_count()
        bits = int.from_bytes(drawn[first >> 3:(first + count + 7) >> 3], "little")
        picked = bits >> (first & 7) & ((1 << count) - 1)
        first += count
        if not picked:
            continue
        mask = mask.to_bytes(size, "big")  # 1 at each of the span's candidates
        picks = bin(picked)[:1:-1].encode().translate(_BIT)  # 1 at each drawn rank in the span
        ranks = list(accumulate(map((0xFFFF).__and__, map(
            adler32, map(memoryview(mask).__getitem__, runs), repeat(0))), initial=0))
        rank = picks.find(b"\1")
        while rank >= 0:
            run = bisect_right(ranks, rank) - 1
            at = run * _RUN
            rows = compress(_OFFSETS, mask[at:at + _RUN])
            yield from map((start + at).__add__, compress(rows, picks[ranks[run]:ranks[run + 1]]))
            rank = picks.find(b"\1", ranks[run + 1])
    _check_candidates(total, first, "columns")


def sp_repair(epsilon: float, place):
    """The pipeline's repair to |SP| <= epsilon: count table in, repaired table out.

    The table is repaired by ``plan_split``; when the plan's post-repair
    table does not follow from the counts alone, ``place(plan)`` gives it,
    from the flips the debiaser would place. Epsilon is checked here, so a
    bad value fails even when the pipeline's first gate passes and the
    repair never runs.
    """
    _check_epsilon(epsilon)

    def repair(counts: FlipCounts) -> FlipCounts:
        plan = plan_split(counts, epsilon)
        repaired = plan.apply(counts)
        return place(plan) if repaired is None else repaired

    return repair
