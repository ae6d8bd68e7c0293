"""Workloads of the flipaudit benchmark and the values a correct run must produce.

Every input is fixed by exact counts per (group, pred, corr, true) cell; the
seed only chooses the row order. So each seed gives the program the same
amount of work, and the expected report counts and the minimal repair follow
from the counts alone, without calling flipaudit.

Standard library only: the orchestrator imports this module and must stay
small, because a child's peak RSS (``ru_maxrss``) starts at the peak of the
process that spawned it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

FAIR_BOUND = 0.1  # flipaudit's default fair interval is [-0.1, 0.1]
VERDICT_EXIT = {"Proportionate": 0, "ReviewRequired": 2, "Disproportionate": 3}
EXIT_STILL_UNFAIR = 3


@dataclass(frozen=True)
class Group:
    """Exact counts for one value of the group column (1 = privileged)."""

    n: int
    pos: int            # rows with pred = 1
    down: int = 0       # pred 1 -> corr 0 (harmful flips in the input)
    up: int = 0         # pred 0 -> corr 1 (favorable flips in the input)
    true_pos1: int = 0  # true = 1 among the pred = 1 rows
    true_pos0: int = 0  # true = 1 among the pred = 0 rows

    def __post_init__(self):
        neg = self.n - self.pos
        if not (0 < self.pos < self.n and self.down <= self.pos and self.up <= neg
                and self.true_pos1 <= self.pos and self.true_pos0 <= neg):
            raise ValueError(f"inconsistent group counts: {self}")


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, Group]  # indexed by the group column's value
    has_true: bool
    args: tuple[str, ...]        # subcommand and options; -i/-o are added per run
    epsilon: float = 0.1         # the debias target, for debias and pipeline

    @property
    def rows(self) -> int:
        return sum(g.n for g in self.groups)

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def true_is_pred(self) -> bool:
        return self.has_true and all(
            g.true_pos1 == g.pos and g.true_pos0 == 0 for g in self.groups)


def _workloads(audit, debias, pipeline):
    return {
        "audit-1m": Workload("audit-1m", audit, False, ("audit", "--format", "structured")),
        "debias-1m": Workload("debias-1m", debias, True,
                              ("debias", "--true-col", "true", "--epsilon", "0.1")),
        "pipeline-50k": Workload("pipeline-50k", pipeline, True,
                                 ("pipeline", "--true-col", "true", "--format", "structured")),
    }


# Group sizes of debias and pipeline are deliberately not round: with round
# sizes the minimal repair lands exactly on |SP| = epsilon, where the float
# comparison in the program and the exact one here could disagree.
WORKLOADS = _workloads(
    # Flips both ways in both groups, so every proportionality metric is regular.
    audit=(Group(600_000, 240_000, down=6_000, up=3_000),
           Group(400_000, 200_000, down=2_000, up=4_000)),
    # SP gap 0.101: a repair of about 400 flips.
    debias=(Group(599_999, 300_000, true_pos1=270_000, true_pos0=30_000),
            Group(400_001, 159_600, true_pos1=143_640, true_pos0=24_040)),
    # SP gap -0.20, true = pred: a repair of about 2,000 flips.
    pipeline=(Group(20_001, 6_000, true_pos1=6_000),
              Group(29_999, 15_000, true_pos1=15_000)),
)

# The same shapes at about 2,000 rows, for the smoke run and the checker self-test.
SMOKE_WORKLOADS = _workloads(
    audit=(Group(1_200, 480, down=12, up=6), Group(800, 400, down=4, up=8)),
    debias=(Group(1_199, 600, true_pos1=540, true_pos0=60),
            Group(801, 310, true_pos1=279, true_pos0=48)),
    pipeline=(Group(401, 120, true_pos1=120), Group(599, 300, true_pos1=300)),
)


def sp_difference(pos0: int, n0: int, pos1: int, n1: int) -> float:
    """P(1 | group 0) - P(1 | group 1), as flipaudit computes it."""
    return pos0 / n0 - pos1 / n1


@dataclass(frozen=True)
class Repair:
    over: int   # the over-favored group, whose positives may only go down
    total: int  # fewest flips that bring |SP| within epsilon


def minimal_repair(groups: tuple[Group, Group], epsilon: float) -> Repair:
    """Fewest label flips bringing |SP| within epsilon, from the counts alone.

    With ``a`` flips down in the over-favored group and ``total - a`` up in the
    other, the SP gap is linear in ``a``, so each total is feasible exactly
    when an integer ``a`` lies in an interval solved here in exact arithmetic.
    """
    sp = sp_difference(groups[0].pos, groups[0].n, groups[1].pos, groups[1].n)
    over = 0 if sp > 0 else 1
    if abs(sp) <= epsilon:
        return Repair(over, 0)
    o, u = groups[over], groups[1 - over]
    eps = Fraction(epsilon)
    max_down, max_up = o.pos, u.n - u.pos
    slope = Fraction(1, u.n) - Fraction(1, o.n)
    for total in range(max_down + max_up + 1):
        lo, hi = max(0, total - max_up), min(max_down, total)
        gap_at_zero = Fraction(o.pos, o.n) - Fraction(u.pos + total, u.n)
        if slope == 0:
            if abs(gap_at_zero) <= eps:
                return Repair(over, total)
            continue
        ends = sorted(((-eps - gap_at_zero) / slope, (eps - gap_at_zero) / slope))
        if max(lo, math.ceil(ends[0])) <= min(hi, math.floor(ends[1])):
            return Repair(over, total)
    raise ValueError("no repair reaches epsilon")


def expected_audit_counts(workload: Workload) -> dict[str, int]:
    """The count fields of an audit report over the workload's input."""
    out = {
        "total_samples": workload.rows,
        "total_flips": sum(g.down + g.up for g in workload.groups),
        "harmful_flips": sum(g.down for g in workload.groups),
    }
    for gid, g in enumerate(workload.groups):
        out[f"group{gid}_samples"] = g.n
        out[f"group{gid}_flips"] = g.down + g.up
        out[f"group{gid}_harmful_flips"] = g.down
    return out
