"""Independent brute-force recomputation used as the test oracle.

Everything here is computed with plain Python loops and explicit if/else
edge cases, deliberately sharing no code with the package under test.
Fairness bounds are compared exactly, with ``Fraction``.
"""

import random
from fractions import Fraction
from itertools import combinations

INF = "inf"
FIN = "finite"


def counts(pred, corr, group, gid=None):
    n = fav = unfav = 0
    for i in range(len(pred)):
        if gid is not None and group[i] != gid:
            continue
        n += 1
        if pred[i] == 0 and corr[i] == 1:
            fav += 1
        elif pred[i] == 1 and corr[i] == 0:
            unfav += 1
    return {"n": n, "fav": fav, "unfav": unfav, "flips": fav + unfav}


def count_table(pred, corr, group, true=None):
    """The count table ``table[g][p][c]`` (``[t]`` last with true labels) as nested lists.

    One pass over the rows, adding one to the cell each row's labels name.
    """
    def zeros(depth):
        return 0 if depth == 0 else [zeros(depth - 1), zeros(depth - 1)]

    table = zeros(3 if true is None else 4)
    for i in range(len(pred)):
        cell = table[group[i]][pred[i]]
        if true is None:
            cell[corr[i]] += 1
        else:
            cell[corr[i]][true[i]] += 1
    return table


def fr(c):
    return c["flips"] / c["n"]


def dfr(c):
    if c["fav"] == 0 and c["unfav"] == 0:
        return (FIN, 1.0)
    if c["unfav"] == 0:
        return (INF, None)
    return (FIN, c["fav"] / c["unfav"])


def hfp(c):
    if c["flips"] == 0:
        return 0.0
    return c["unfav"] / c["flips"]


def audit(pred, corr, group):
    """All counts and metrics for a two-group frame, from scratch."""
    total = counts(pred, corr, group)
    g0 = counts(pred, corr, group, 0)
    g1 = counts(pred, corr, group, 1)
    fr0, fr1 = fr(g0), fr(g1)
    hfp0, hfp1 = hfp(g0), hfp(g1)

    def ratio(a, b):
        if a == 0 and b == 0:
            return (FIN, 1.0)
        if a == 0 or b == 0:
            return (INF, None)
        return (FIN, max(a, b) / min(a, b))

    def norm_gap(a, b, denom):
        if a == 0 and b == 0:
            return (FIN, 1.0)
        if a == 0 or b == 0:
            return (INF, None)
        return (FIN, abs(a / denom - b / denom))

    def rel(a, b):
        if a + b == 0:
            return (FIN, 0.0)
        return (FIN, abs(a - b) / (a + b))

    overall_fr = fr(total)
    return {
        "total": total,
        "g0": g0,
        "g1": g1,
        "fr": overall_fr,
        "fr0": fr0,
        "fr1": fr1,
        "hfp": hfp(total),
        "hfp0": hfp0,
        "hfp1": hfp1,
        "dfr": dfr(total),
        "dfr0": dfr(g0),
        "dfr1": dfr(g1),
        "frd": abs(fr1 - fr0),
        "hfpd": abs(hfp1 - hfp0),
        "di": ratio(fr1, fr0),
        "hdi": ratio(hfp1, hfp0),
        "fd": norm_gap(fr1, fr0, overall_fr),
        "hfd": norm_gap(hfp1, hfp0, overall_fr),
        "rfd": rel(fr1, fr0),
        "rhfd": rel(hfp1, hfp0),
    }


def within(gap, epsilon):
    """Whether an exact gap is at most ``epsilon`` in absolute value, exactly."""
    return abs(gap) <= Fraction(epsilon)


def sp_difference(labels, group):
    """The SP difference as an exact ``Fraction``."""
    pos = {0: 0, 1: 0}
    tot = {0: 0, 1: 0}
    for lab, g in zip(labels, group):
        tot[g] += 1
        pos[g] += int(lab)
    return Fraction(pos[0], tot[0]) - Fraction(pos[1], tot[1])


def eo_difference(y_true, labels, group):
    """The EO difference as an exact ``Fraction``, or None when undefined."""
    cm = {(g, t): [0, 0] for g in (0, 1) for t in (0, 1)}  # [negatives, positives]
    for t, lab, g in zip(y_true, labels, group):
        cm[(g, int(t))][int(lab)] += 1
    gaps = []
    tp = [cm[(g, 1)] for g in (0, 1)]
    if all(sum(c) > 0 for c in tp):
        gaps.append(abs(Fraction(tp[0][1], sum(tp[0])) - Fraction(tp[1][1], sum(tp[1]))))
    tn = [cm[(g, 0)] for g in (0, 1)]
    if all(sum(c) > 0 for c in tn):
        gaps.append(abs(Fraction(tn[0][1], sum(tn[0])) - Fraction(tn[1][1], sum(tn[1]))))
    return max(gaps) if gaps else None


def min_sp_flips(labels, group, epsilon):
    """Minimum flips reaching |SP| <= eps exactly under the debiaser contract.

    Exhaustive enumeration over contract-compliant flip sets: the
    over-favored group may only lose positives, the under-favored group may
    only gain them. Returns None when no such flip set works.
    """
    pos = {0: 0, 1: 0}
    tot = {0: 0, 1: 0}
    for lab, g in zip(labels, group):
        tot[g] += 1
        pos[g] += lab
    eps = Fraction(epsilon)
    sp = sp_difference(labels, group)
    if abs(sp) <= eps:
        return 0
    over, under = (0, 1) if sp > 0 else (1, 0)
    best = None
    for down in range(pos[over] + 1):
        for up in range(tot[under] - pos[under] + 1):
            p_over = Fraction(pos[over] - down, tot[over])
            p_under = Fraction(pos[under] + up, tot[under])
            if abs(p_over - p_under) <= eps:
                if best is None or down + up < best:
                    best = down + up
    return best


def minimal_flip_split(pos_over, n_over, pos_under, n_under, epsilon):
    """The debiaser's flip split, by visiting every total and every split.

    Totals are tried from 0 up. Within a total, the split whose exact gap
    passes ``|gap| <= epsilon`` and comes first in ``(|down - up|, down)``
    order wins. Returns ``((down, up), None)``, or ``(None, best_gap)`` with
    the float of the smallest exact gap over all splits when no split passes.
    """
    eps = Fraction(epsilon)
    max_down = pos_over
    max_up = n_under - pos_under
    best_gap = abs(Fraction(pos_over, n_over) - Fraction(pos_under, n_under))
    for total in range(max_down + max_up + 1):
        winner = None
        for down in range(max(0, total - max_up), min(max_down, total) + 1):
            up = total - down
            gap = abs(Fraction(pos_over - down, n_over) - Fraction(pos_under + up, n_under))
            if gap < best_gap:
                best_gap = gap
            if gap <= eps:
                key = (abs(down - up), down)
                if winner is None or key < winner[0]:
                    winner = (key, (down, up))
        if winner is not None:
            return winner[1], None
    return None, float(best_gap)


def placement(draws, labels, group, seed):
    """``labels`` with a plan's flips placed, by drawing ranks and scanning rows.

    ``draws`` are ``(gid, pred, k, count)`` in the order they are drawn: k
    of the ``count`` rows of group ``gid`` with label ``pred`` get
    ``1 - pred``. One ``random.Random(seed)`` draws every cell's ranks in
    turn by Floyd's algorithm: for each j from count - k to count - 1, t is
    ``getrandbits(j.bit_length())``, drawn again while above j, and t is
    taken, or j if t already is. Then each cell's rows are ranked in row
    order, one row at a time, and the rows of the drawn ranks are flipped.
    """
    draw = random.Random(seed)
    drawn = []
    for gid, pred, k, count in draws:
        taken = set()
        for j in range(count - k, count):
            t = draw.getrandbits(j.bit_length())
            while t > j:
                t = draw.getrandbits(j.bit_length())
            if t in taken:
                t = j
            taken.add(t)
        drawn.append(taken)
    corrected = list(labels)
    for (gid, pred, k, count), taken in zip(draws, drawn):
        rank = 0
        for row in range(len(labels)):
            if group[row] == gid and labels[row] == pred:
                if rank in taken:
                    corrected[row] = 1 - pred
                rank += 1
    return corrected


def flip_outcomes(trues, pred, k, truth):
    """A cell's possible counts after k of its rows flip, by trying every set of k rows.

    ``trues`` lists the true labels of the cell's rows, all predicted
    ``pred``; k of them get 1 - pred. Every k-subset of the rows is flipped
    in turn and the cell recounted, as ``[corr][true]`` nested tuples, or as
    ``[corr]`` when ``truth`` is false. Returns the set of recounts. Cells
    hold disjoint rows, so a table's recounts are every choice of one
    recount for each cell.
    """
    found = set()
    for taken in combinations(range(len(trues)), k):
        cell = [[0, 0], [0, 0]]
        for i, true in enumerate(trues):
            if i in taken:
                cell[1 - pred][true] += 1
            else:
                cell[pred][true] += 1
        if truth:
            found.add((tuple(cell[0]), tuple(cell[1])))
        else:
            found.add((sum(cell[0]), sum(cell[1])))
    return found
