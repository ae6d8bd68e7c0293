"""flipaudit benchmark: time the real CLI end to end, one process at a time.

    python3 perfbench/run.py --workload audit-1m --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a flipaudit checkout; the CLI is imported from its
``src``. Each timed sample is one fresh ``python -m flipaudit.cli`` process,
started only after the previous one has exited (a closed loop with one
client), and its output is checked before the next starts. A fixed reference
task (``calibrate.py``) runs before every sample and once after the last, and
``SETUP_PER_SAMPLE`` launches of ``--version`` run between each reference and
its sample. Each sample's wall time and each launch's are scaled by the
reference times on either side of them, to cancel the machine's speed swings
(see README.md). With ``--trace 1``
the run also executes the workload's command once in-process with spans
around flipaudit's public functions (``traced_cli.py``) and reports
per-module times instead of the end-to-end metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for people.
``--smoke`` runs every workload at about 2,000 rows and then feeds corrupted
outputs to the checker, each of which must count as a failure.

This process imports only the standard library and never holds a large
input: a child's peak RSS starts at its parent's peak, so a large orchestrator
would inflate ``peak_rss_mb``. Inputs are made and debias outputs are checked
in child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_audit, check_pipeline
from spec import SMOKE_WORKLOADS, VERDICT_EXIT, WORKLOADS, Workload, minimal_repair
from traced_cli import SITES

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = HERE / ".out"
SETUP_PER_SAMPLE = 3
REFERENCE_S = 0.45  # nominal time of calibrate.py; adjusted times are in these units
STARTED = time.monotonic()
DEADLINE_S = 170  # a run must end within 180 s; a child still running then is killed


@dataclass
class Sample:
    wall: float
    code: int
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    reference: float = 0.0  # wall time of calibrate.py just before this sample
    setup: list[float] = field(default_factory=list)  # --version launches after the reference


def run_process(argv, log: Path) -> Sample:
    """Run one child to exit; time it from spawn to exit and take its peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = max(1.0, STARTED + DEADLINE_S - time.monotonic())
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, proc.returncode, usage.ru_maxrss / 1024)


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "flipaudit.cli", *map(str, args)]


def workload_args(workload: Workload, inp: Path, out: Path) -> list[str]:
    return [workload.command, "-i", str(inp), "-o", str(out), *workload.args[1:]]


def helper(script: str, *args) -> list[str]:
    return [sys.executable, str(HERE / script), *map(str, args)]


def log_tail(log: Path) -> str:
    return log.read_text(errors="replace").strip()[-300:]


def check_output(workload: Workload, smoke: bool, inp: Path, out: Path, code: int,
                 work: Path) -> list[str]:
    if code not in (0, *VERDICT_EXIT.values()):
        return [f"exit code {code}"]
    if workload.command == "debias":
        log = work / "check.log"
        flags = ["--smoke"] if smoke else []
        result = run_process(helper("check.py", workload.name, inp, out, code, *flags), log)
        if result.code != 0:
            return [f"checker failed: {log_tail(log)}"]
        return json.loads(log.read_text().splitlines()[-1])
    try:
        report = json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    checker = check_audit if workload.command == "audit" else check_pipeline
    return checker(workload, report, code)


def reference_time(work: Path) -> float:
    log = work / "calibrate.log"
    probe = run_process(helper("calibrate.py"), log)
    if probe.code != 0:
        raise RuntimeError(f"reference task failed: {log_tail(log)}")
    return probe.wall


def timed_sample(workload: Workload, smoke: bool, inp: Path, work: Path) -> Sample:
    out = work / "output"
    out.unlink(missing_ok=True)
    log = work / "cli.log"
    reference = reference_time(work)
    setup = [version_launch(work) for _ in range(SETUP_PER_SAMPLE)]
    sample = run_process(cli(*workload_args(workload, inp, out)), log)
    sample.reference = reference
    sample.setup = setup
    sample.problems = check_output(workload, smoke, inp, out, sample.code, work)
    if sample.problems:
        print(f"FAILED sample (exit {sample.code}): {sample.problems[:3]} {log_tail(log)}")
    return sample


def measure(seconds: float, take) -> list[Sample]:
    """Take samples until the next one would end more than half a sample
    after ``seconds``, so that a run measures about ``seconds`` on average."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(take())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(samples) / 2 > seconds:
            return samples


def version_launch(work: Path) -> float:
    """Wall time of ``--version``: interpreter start plus importing flipaudit."""
    log = work / "version.log"
    probe = run_process(cli("--version"), log)
    if probe.code != 0:
        raise RuntimeError(f"--version exited {probe.code}: {log_tail(log)}")
    return probe.wall


def generate(workload: Workload, smoke: bool, seed: int, path: Path, work: Path) -> None:
    log = work / "gen.log"
    flags = ["--smoke"] if smoke else []
    result = run_process(helper("gen.py", workload.name, seed, path, *flags), log)
    if result.code != 0:
        raise RuntimeError(f"input generator failed: {log_tail(log)}")


def traced_argvs(workload: Workload, inp: Path, work: Path) -> list[list[str]]:
    """The workload's command first, then follow-ups reaching the spans it does
    not: on audit, the text report and the SVG chart of the structured one."""
    out = work / "traced-output"
    argvs = [workload_args(workload, inp, out)]
    if workload.command == "audit":
        argvs.append(["audit", "-i", str(inp), "-o", str(work / "traced.txt"),
                      "--format", "text"])
        argvs.append(["plot", "-i", str(out), "-o", str(work / "traced.svg")])
    return argvs


def span_metrics(trace: dict) -> dict[str, float]:
    """Per-module metrics of a traced run.

    Every name comes from run 0, the workload's own command, when that run
    has the span; otherwise from the first follow-up that has it. A span's
    self time is its duration minus that of its direct children. The
    overhead is the span count times the measured cost of one span.
    """
    spans = trace["spans"]
    for s in spans:
        s["s"] = s["self_s"] = s["end"] - s["start"]
    for s in spans:
        if s["parent"] is not None:
            spans[s["parent"]]["self_s"] -= s["s"]
    metrics: dict[str, float] = {}
    counts: dict[str, float] = {}
    for name in SITES:
        mine = [s for s in spans if s["name"] == name]
        if mine:
            run = min(s["run"] for s in mine)
            mine = [s for s in mine if s["run"] == run]
        metrics[f"{name}.s"] = sum(s["s"] for s in mine)
        metrics[f"{name}.self_s"] = sum(s["self_s"] for s in mine)
        metrics[f"{name}.calls"] = len(mine)
        for s in mine:
            for key, value in s.get("counts", {}).items():
                counts[key] = counts.get(key, 0) + value
    ingest_s = metrics["tabular.ingest.s"]
    debias_s, flips = metrics["debias.sp_equalizing_debiaser.s"], counts.get("flips", 0)
    metrics.update({
        "trace.unattributed_s": metrics["cli.main.self_s"],
        "trace.overhead_s": len(spans) * trace["span_cost_s"],
        "tabular.ingest.rows_per_s": counts.get("rows", 0) / ingest_s if ingest_s else 0.0,
        "tabular.frame_to_csv.bytes": counts.get("bytes", 0),
        "debias.flips": flips,
        "debias.us_per_flip": debias_s / flips * 1e6 if flips else 0.0,
    })
    return metrics


def traced_run(workload: Workload, smoke: bool, inp: Path, work: Path) -> tuple[dict, list[str]]:
    spans_path = work / "spans.json"
    argvs = traced_argvs(workload, inp, work)
    log = work / "traced.log"
    result = run_process(helper("traced_cli.py", spans_path, json.dumps(argvs)), log)
    if result.code != 0:
        raise RuntimeError(f"traced run failed: {log_tail(log)}")
    trace = json.loads(spans_path.read_text())
    codes = trace["exit_codes"]
    problems = check_output(workload, smoke, inp, work / "traced-output", codes[0], work)
    if any(code not in (0, *VERDICT_EXIT.values()) for code in codes[1:]):
        problems.append(f"follow-up exit codes {codes[1:]}")
    return trace, problems


def run_workload(workload: Workload, smoke: bool, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    inp = work / "input.csv"
    generate(workload, smoke, seed, inp, work)
    version_launch(work)  # fills the bytecode cache, which users have warm
    samples = measure(seconds, lambda: timed_sample(workload, smoke, inp, work))
    references = [s.reference for s in samples] + [reference_time(work)]
    # Each sample and its set-up launches count against the mean of the
    # reference runs on either side of them.
    scales = [REFERENCE_S * 2 / (before + after)
              for before, after in zip(references, references[1:])]
    adjusted = [s.wall * scale for s, scale in zip(samples, scales)]
    setup_adjusted = [wall * scale for s, scale in zip(samples, scales) for wall in s.setup]
    wall_adj_s, setup_s = statistics.median(adjusted), statistics.median(setup_adjusted)
    walls = sorted(s.wall for s in samples)
    wall_s = statistics.median(walls)
    setup_raw = statistics.median(wall for s in samples for wall in s.setup)
    metrics = {
        "wall_adj_s": (wall_adj_s, "s"),
        "rows_per_adj_s": (workload.rows / wall_adj_s, "rows/s"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in samples), "MB"),
        "setup_s": (setup_s, "s"),
    }
    failed = sum(1 for s in samples if s.problems)
    attempted = len(samples)
    shown = " ".join(workload_args(workload, "<input>", "<output>"))
    print(f"workload {workload.name}: {workload.rows} rows, seed {seed}, "
          f"`flipaudit {shown}`, closed loop, one client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:12} {value:.4f} {unit}")
    print(f"  wall_adj_s is the median of n={len(walls)} samples (min {min(adjusted):.4f}, "
          f"max {max(adjusted):.4f}), each scaled by {REFERENCE_S} s / reference task time; "
          f"at this sample count only the median is reported")
    print(f"  unadjusted: wall_s {wall_s:.4f} s (min {walls[0]:.4f}, max {walls[-1]:.4f}), "
          f"reference task {statistics.median(references):.4f} s")
    print(f"  setup_s is the median of {len(setup_adjusted)} launches of --version, "
          f"{SETUP_PER_SAMPLE} before each sample, scaled the same way "
          f"(unadjusted: {setup_raw:.4f} s)")
    print(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:.3f}")
    if trace:
        spans, problems = traced_run(workload, smoke, inp, work)
        attempted += 1
        failed += bool(problems)
        if problems:
            print(f"FAILED traced run: {problems[:3]}")
        layers = span_metrics(spans)
        report_trace(workload, seed, spans, layers)
        metrics = {name: (layers[name], unit) for name, unit in UNITS.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


DERIVED_UNITS = {"trace.unattributed_s": "s", "trace.overhead_s": "s",
                 "tabular.ingest.rows_per_s": "rows/s", "tabular.frame_to_csv.bytes": "bytes",
                 "debias.flips": "count", "debias.us_per_flip": "us"}


def _units() -> dict[str, str]:
    """The per-layer metrics reported, with their units. The root's self time
    is reported as ``trace.unattributed_s``."""
    units = {}
    for name in SITES:
        units.update({f"{name}.s": "s", f"{name}.self_s": "s", f"{name}.calls": "count"})
    del units["cli.main.self_s"], units["cli.main.calls"]
    units.update(DERIVED_UNITS)
    return units


UNITS = _units()


def report_trace(workload: Workload, seed: int, trace: dict, layers: dict) -> None:
    """Print the per-module table; write spans and metrics to perfbench/.out."""
    absent = set(trace["absent"])
    print(f"  traced run of {workload.name}; absent spans: {sorted(absent) or 'none'}")
    print(f"    {'span':34} {'calls':>6} {'s':>10} {'self_s':>10}")
    for name in SITES:
        if name in absent:
            print(f"    {name:34} {'absent':>6}")
        elif layers[f"{name}.calls"]:
            print(f"    {name:34} {layers[name + '.calls']:>6} {layers[name + '.s']:>10.4f} "
                  f"{layers[name + '.self_s']:>10.4f}")
    for name, unit in DERIVED_UNITS.items():
        print(f"    {name:34} {layers[name]:.6g} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "absent": sorted(absent),
        "exit_codes": trace["exit_codes"], "span_cost_s": trace["span_cost_s"],
        "spans": trace["spans"], "metrics": layers,
    }, indent=1))
    print(f"    spans written to {os.path.relpath(path)}")


def fresh_workdir(name: str) -> Path:
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    return work


def self_test(work: Path) -> list[str]:
    """Feed the checker corrupted outputs of real smoke runs; each must fail.

    Returns the cases the checker got wrong."""
    wrong = []

    def expect(case: str, problems: list[str], should_fail: bool):
        print(f"  self-test {case}: {'rejected' if problems else 'accepted'}")
        if bool(problems) != should_fail:
            wrong.append(case)

    for name in ("audit-1m", "pipeline-50k"):
        workload = SMOKE_WORKLOADS[name]
        inp, out = work / f"{name}.csv", work / f"{name}.json"
        generate(workload, True, 0, inp, work)
        code = run_process(cli(*workload_args(workload, inp, out)), work / "cli.log").code
        checker = check_audit if workload.command == "audit" else check_pipeline
        report = json.loads(out.read_text())
        expect(f"{name} as produced", checker(workload, report, code), False)
        expect(f"{name} with an extra provenance key",
               checker(workload, {**report, "provenance": {"version": "x"}}, code), False)
        expect(f"{name} with total_flips + 1",
               checker(workload, {**report, "total_flips": report["total_flips"] + 1}, code),
               True)
        bad_code = next(c for c in (0, 2, 3) if c != code)
        expect(f"{name} with exit code {bad_code} for {code}",
               checker(workload, report, bad_code), True)

    workload = SMOKE_WORKLOADS["debias-1m"]
    inp, out, bad = work / "debias.csv", work / "debias-out.csv", work / "debias-bad.csv"
    generate(workload, True, 0, inp, work)
    code = run_process(cli(*workload_args(workload, inp, out)), work / "cli.log").code
    expect("debias-1m as produced", check_output(workload, True, inp, out, code, work), False)
    expect("debias-1m with exit code 1", check_output(workload, True, inp, out, 1, work), True)
    # One more upward flip, on a row of the under-favored group.
    under = str(1 - minimal_repair(workload.groups, workload.epsilon).over)
    header, *rows = out.read_text().splitlines()
    cols = header.split(",")
    pred, corr, group = cols.index("pred"), cols.index("corr"), cols.index("group")
    for i, row in enumerate(rows):
        cells = row.split(",")
        if cells[group] == under and cells[pred] == "0" and cells[corr] == "0":
            cells[corr] = "1"
            rows[i] = ",".join(cells)
            break
    bad.write_text("\n".join([header, *rows]) + "\n")
    expect("debias-1m with one extra flip", check_output(workload, True, inp, bad, code, work),
           True)
    return wrong


def smoke(seconds: float) -> int:
    work = fresh_workdir("smoke")
    try:
        failures = []
        for name, workload in SMOKE_WORKLOADS.items():
            result = run_workload(workload, True, 0, seconds, True, work)
            print(json.dumps(result))
            if not result["correct"]:
                failures.append(name)
        wrong = self_test(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"smoke: failed workloads {failures}, self-test cases misjudged {wrong}")
    return 1 if failures or wrong else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for every workload, then the checker self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "flipaudit" / "cli.py").is_file():
        print(f"no flipaudit source under {ROOT / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(min(args.seconds, 1.0))
    if args.workload is None:
        parser.error("--workload is required")
    work = fresh_workdir(args.workload)
    try:
        result = run_workload(WORKLOADS[args.workload], False, args.seed, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
