"""Correctness checks on one CLI run's output. Each returns a list of problems.

The JSON checks read only the keys they need, so a report that gains keys
(a provenance block, say) still passes. The debias check reads two 1M-row
CSVs with numpy, so the orchestrator runs it in its own process:

    python perfbench/check.py WORKLOAD INPUT.csv OUTPUT.csv EXIT_CODE [--smoke]

which prints the problems as a JSON list.
"""

from __future__ import annotations

import json
import sys

from spec import (EXIT_STILL_UNFAIR, FAIR_BOUND, SMOKE_WORKLOADS, VERDICT_EXIT,
                  WORKLOADS, Workload, expected_audit_counts, minimal_repair,
                  sp_difference)

TOLERANCE = 1e-9


def _verdict_problems(report: dict, exit_code: int, expected_exit=None) -> list[str]:
    verdict = report.get("verdict")
    if verdict not in VERDICT_EXIT:
        return [f"unknown verdict {verdict!r}"]
    if expected_exit is None:
        expected_exit = VERDICT_EXIT[verdict]
    if exit_code != expected_exit:
        return [f"exit code {exit_code}, expected {expected_exit} (verdict {verdict})"]
    return []


def check_audit(workload: Workload, report: dict, exit_code: int) -> list[str]:
    """Report counts match the generator, and the exit code matches the verdict."""
    problems = [f"{key} = {report.get(key)!r}, expected {value}"
                for key, value in expected_audit_counts(workload).items()
                if report.get(key) != value]
    return problems + _verdict_problems(report, exit_code)


def check_pipeline(workload: Workload, report: dict, exit_code: int) -> list[str]:
    """A minimal one-directional repair, a post gate consistent with the flips
    in the report, and the exit code the decision implies."""
    problems = []
    g = workload.groups
    for gid in (0, 1):
        if report.get(f"group{gid}_samples") != g[gid].n:
            problems.append(f"group{gid}_samples = {report.get(f'group{gid}_samples')!r}")
    repair = minimal_repair(g, workload.epsilon)
    if report.get("total_flips") != repair.total:
        problems.append(f"total_flips = {report.get('total_flips')!r}, "
                        f"minimal repair is {repair.total}")
    down, up = [0, 0], [0, 0]
    for gid in (0, 1):
        flips = report.get(f"group{gid}_flips", -1)
        harmful = report.get(f"group{gid}_harmful_flips", -1)
        down[gid], up[gid] = harmful, flips - harmful
        if (up if gid == repair.over else down)[gid] != 0:
            problems.append(f"group {gid} has flips against the repair direction")
    if problems:
        return problems

    pre, post = report.get("fairness_pre") or {}, report.get("fairness_post") or {}
    sp_pre = sp_difference(g[0].pos, g[0].n, g[1].pos, g[1].n)
    if abs(pre.get("sp_difference", 2.0) - sp_pre) > TOLERANCE or pre.get("sp_pass"):
        problems.append(f"fairness_pre = {pre!r}, expected SP {sp_pre} failing")
    pos_after = [g[i].pos - down[i] + up[i] for i in (0, 1)]
    sp_post = sp_difference(pos_after[0], g[0].n, pos_after[1], g[1].n)
    if abs(sp_post) > workload.epsilon:
        problems.append(f"post-repair SP {sp_post} is outside epsilon")
    if abs(post.get("sp_difference", 2.0) - sp_post) > TOLERANCE or not post.get("sp_pass"):
        problems.append(f"fairness_post SP = {post.get('sp_difference')!r}, expected {sp_post}")
    if workload.true_is_pred:
        # Down flips land on true positives, up flips on true negatives.
        tpr = [(g[i].pos - down[i]) / g[i].pos for i in (0, 1)]
        fpr = [up[i] / (g[i].n - g[i].pos) for i in (0, 1)]
        eo = max(abs(tpr[0] - tpr[1]), abs(fpr[0] - fpr[1]))
        if (abs(post.get("eo_difference", 2.0) - eo) > TOLERANCE
                or post.get("eo_pass") != (eo <= FAIR_BOUND)):
            problems.append(f"fairness_post EO = {post.get('eo_difference')!r}, expected {eo}")
    if problems:
        return problems
    post_fair = post.get("sp_pass") and post.get("eo_pass")
    return _verdict_problems(report, exit_code, None if post_fair else EXIT_STILL_UNFAIR)


def read_binary_csv(path) -> dict:
    """Columns of a 0/1 CSV by header name; a fixed-width fast path, else csv."""
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    head, _, body = data.partition(b"\n")
    names = [h.strip() for h in head.decode().split(",")]
    width = 2 * len(names)
    cells = np.frombuffer(body, np.uint8)
    if cells.size % width == 0:
        cells = cells.reshape(-1, width)
        digits = cells[:, 0::2] - np.uint8(ord("0"))
        if ((cells[:, 1:-1:2] == ord(",")).all() and (cells[:, -1] == ord("\n")).all()
                and (digits <= 1).all()):
            return {name: digits[:, i] for i, name in enumerate(names)}
    import csv
    import io

    rows = list(csv.reader(io.StringIO(body.decode())))
    table = np.array([[int(v) for v in row] for row in rows], np.uint8).reshape(-1, len(names))
    if (table > 1).any():
        raise ValueError(f"{path}: non-binary cell")
    return {name: table[:, i] for i, name in enumerate(names)}


def check_debias(workload: Workload, input_path, output_path, exit_code: int) -> list[str]:
    """pred, group and true unchanged; flips only down in the over-favored
    group and up in the other; |SP| within epsilon; the minimal flip total."""
    import numpy as np

    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        src, out = read_binary_csv(input_path), read_binary_csv(output_path)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    for name in ("pred", "group", "true"):
        if name not in out or not np.array_equal(out[name], src[name]):
            problems.append(f"column {name!r} changed")
    if "corr" not in out or out["corr"].size != src["pred"].size:
        problems.append("column 'corr' missing or of the wrong length")
    if problems:
        return problems
    pred, corr, group = src["pred"], out["corr"], src["group"]
    repair = minimal_repair(workload.groups, workload.epsilon)
    flipped = pred != corr
    over = group == repair.over
    if (flipped & over & (pred == 0)).any() or (flipped & ~over & (pred == 1)).any():
        problems.append("a flip goes against the repair direction")
    total = int(flipped.sum())
    if total != repair.total:
        problems.append(f"{total} flips, minimal repair is {repair.total}")
    sp = corr[group == 0].mean() - corr[group == 1].mean()
    if abs(sp) > workload.epsilon:
        problems.append(f"|SP| = {abs(sp)} exceeds epsilon {workload.epsilon}")
    return problems


if __name__ == "__main__":
    name, inp, outp, code = sys.argv[1:5]
    table = SMOKE_WORKLOADS if "--smoke" in sys.argv[5:] else WORKLOADS
    print(json.dumps(check_debias(table[name], inp, outp, int(code))))
