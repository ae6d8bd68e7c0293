"""Run flipaudit's CLI in-process with a span around each public function it calls.

Usage: python perfbench/traced_cli.py SPANS.json ARGV_LISTS_JSON

ARGV_LISTS_JSON is a JSON list of argument lists; each becomes one
``cli.main(argv)`` root, with its index as the run id. No source file is
edited: the wrappers replace names where the program looks them up (for
example ``flipaudit.cli.ingest``). A name that no longer exists is reported
as absent, not as an error. Spans stay in memory until every run has ended,
then go to SPANS.json together with the exit codes, the absent names and
the cost of one span, measured in this process after the runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Span name -> the places the program looks the function up.
SITES = {
    "cli.main": ["flipaudit.cli:main"],
    "tabular.ingest": ["flipaudit.cli:ingest"],
    "tabular.frame_to_csv": ["flipaudit.cli:frame_to_csv"],
    "frame.AuditFrame": ["flipaudit.frame:AuditFrame.__init__"],
    "report.build_report": ["flipaudit.cli:build_report", "flipaudit.pipeline:build_report"],
    "thresholds.classify": ["flipaudit.report:classify"],
    "metrics.summarize_flips": ["flipaudit.report:summarize_flips",
                                "flipaudit.groups:summarize_flips"],
    "groups.split_by_group": ["flipaudit.report:split_by_group",
                              "flipaudit.groups:split_by_group"],
    "groups.compute_proportionality": ["flipaudit.report:compute_proportionality"],
    "report.render_structured": ["flipaudit.cli:render_structured"],
    "report.render_text": ["flipaudit.cli:render_text"],
    "report.parse_structured": ["flipaudit.cli:parse_structured"],
    "chart.emit_chart": ["flipaudit.cli:emit_chart"],
    "fairness.evaluate_fairness": ["flipaudit.pipeline:evaluate_fairness"],
    "debias.sp_equalizing_debiaser": ["flipaudit.cli:sp_equalizing_debiaser",
                                      "flipaudit.debias:sp_equalizing_debiaser"],
    "pipeline.run_audit_pipeline": ["flipaudit.cli:run_audit_pipeline"],
}


def _flips(args, kwargs, result):
    import numpy as np

    pred = kwargs.get("y_predicted", args[0] if args else None)
    return {"flips": int(np.count_nonzero(np.asarray(result) != np.asarray(pred)))}


# Counts taken at a span's boundary. The tracer's clock stops while they are
# taken, so their cost is in no span's time.
COUNTERS = {
    "tabular.ingest": lambda args, kwargs, result: {"rows": int(result.n)},
    "tabular.frame_to_csv": lambda args, kwargs, result: {"bytes": len(result.encode())},
    "debias.sp_equalizing_debiaser": _flips,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.run = 0
        self.paused = 0.0  # time spent taking counts, left out of every span

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def call(self, name, fn, args, kwargs):
        span = {"name": name, "run": self.run,
                "parent": self.stack[-1] if self.stack else None}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = self.clock()
            self.stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            start = time.perf_counter()
            span["counts"] = counter(args, kwargs, result)
            self.paused += time.perf_counter() - start
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


def _resolve(site: str):
    """Return (owner, attribute) for ``module:dotted.path``, or None if gone."""
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def install(tracer: Tracer) -> list[str]:
    """Wrap every site; return the span names none of whose sites exist."""
    absent = []
    for name, sites in SITES.items():
        found = [r for r in map(_resolve, sites) if r is not None]
        for owner, attr in found:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        if not found:
            absent.append(name)
    return absent


def span_cost() -> float:
    """Seconds one span adds: a traced call of a no-op minus a plain call.

    The traced run's overhead is this times its span count. Timing the same
    command with and without spans would not show it: the spans cost
    microseconds, and two runs of a command differ by a tenth of a second on
    a machine whose speed swings.
    """
    def noop():
        return None

    calls = 20_000
    traced = Tracer().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - plain) / calls)


def main(out_path: str, argv_lists: list[list[str]]) -> int:
    tracer = Tracer()
    absent = install(tracer)
    if "cli.main" in absent:
        print("flipaudit.cli.main not found", file=sys.stderr)
        return 1
    cli = importlib.import_module("flipaudit.cli")
    exit_codes = []
    for run, argv in enumerate(argv_lists):
        tracer.run = run
        exit_codes.append(cli.main(argv))
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "absent": absent, "exit_codes": exit_codes,
                   "span_cost_s": span_cost()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], json.loads(sys.argv[2])))
