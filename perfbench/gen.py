"""Write a workload's input CSV for one seed.

Usage: python perfbench/gen.py WORKLOAD SEED OUT.csv [--smoke]

Rows are built group by group from the exact counts in ``spec.py`` and then
shuffled with the seed, so the seed changes only the row order. The input
does not come from ``flipaudit.scenario``: the benchmark must not depend on
the code it measures to make its inputs.
"""

from __future__ import annotations

import sys

import numpy as np

from spec import SMOKE_WORKLOADS, WORKLOADS, Workload


def columns(workload: Workload, seed: int) -> dict[str, np.ndarray]:
    parts: dict[str, list[np.ndarray]] = {"pred": [], "corr": [], "group": [], "true": []}
    for gid, g in enumerate(workload.groups):
        pred = np.zeros(g.n, np.uint8)
        pred[:g.pos] = 1
        corr = pred.copy()
        corr[:g.down] = 0
        corr[g.pos:g.pos + g.up] = 1
        true = np.zeros(g.n, np.uint8)
        true[g.pos - g.true_pos1:g.pos] = 1
        true[g.n - g.true_pos0:] = 1
        parts["pred"].append(pred)
        parts["corr"].append(corr)
        parts["group"].append(np.full(g.n, gid, np.uint8))
        parts["true"].append(true)
    if not workload.has_true:
        del parts["true"]
    order = np.random.default_rng(seed).permutation(workload.rows)
    return {name: np.concatenate(vecs)[order] for name, vecs in parts.items()}


def to_csv(cols: dict[str, np.ndarray]) -> bytes:
    """Render 0/1 columns as ``a,b,c\\n`` rows in one vectorised pass."""
    names = list(cols)
    n, width = len(cols[names[0]]), 2 * len(names)
    cells = np.full((n, width), ord(","), np.uint8)
    cells[:, -1] = ord("\n")
    for i, name in enumerate(names):
        cells[:, 2 * i] = cols[name] + ord("0")
    return (",".join(names) + "\n").encode() + cells.tobytes()


def write_input(workload: Workload, seed: int, path) -> None:
    with open(path, "wb") as fh:
        fh.write(to_csv(columns(workload, seed)))


if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    table = SMOKE_WORKLOADS if "--smoke" in sys.argv[4:] else WORKLOADS
    write_input(table[name], seed, out)
