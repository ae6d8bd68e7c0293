import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import flipaudit
from flipaudit import (
    AuditFrame,
    REFERENCE_EXAMPLE,
    build_report,
    evaluate_fairness,
    generate_scenario,
)


def run_python(args, **kwargs):
    """Run a fresh interpreter that imports this checkout's package."""
    src = Path(flipaudit.__file__).parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs})


def random_frame(rng, max_n=200, with_true=False) -> AuditFrame:
    """Random frame with both groups nonempty."""
    n = int(rng.integers(2, max_n + 1))
    while True:
        group = rng.integers(0, 2, size=n)
        if group.any() and not group.all():
            break
    return AuditFrame(
        y_predicted=rng.integers(0, 2, size=n),
        y_corrected=rng.integers(0, 2, size=n),
        group=group,
        y_true=rng.integers(0, 2, size=n) if with_true else None,
    )


def flip_summaries(frame):
    """(overall, group 0, group 1) flip counts and rates, as the frame's report shows them."""
    report = build_report(frame.counts())
    values = {**report.counts, **{key: cell.metric for key, cell in report.cells.items()}}
    summaries = []
    for prefix, total in (("", "total_"), ("group0_", "group0_"), ("group1_", "group1_")):
        flips, harmful = values[f"{total}flips"], values[f"{prefix}harmful_flips"]
        summaries.append(SimpleNamespace(
            n=values[f"{total}samples"], n_flips=flips, n_favorable=flips - harmful,
            n_unfavorable=harmful, flip_rate=values[f"{prefix}fr"], dfr=values[f"{prefix}dfr"],
            hfp=values[f"{prefix}hfp"],
        ))
    return tuple(summaries)


def report_metrics(frame) -> dict:
    """Every metric of the frame's report, keyed as in the JSON report."""
    return {key: cell.metric for key, cell in build_report(frame.counts()).cells.items()}


def vector_repair(frame: AuditFrame, debias):
    """The pipeline repair of any vector debiaser ``(y_predicted, group) -> y_corrected``.

    ``frame`` holds the predictions (its corrected labels are not read).
    """
    return lambda counts: frame.with_corrected(debias(frame.y_predicted, frame.group)).counts()


def identity(pred, group, y_true=None) -> AuditFrame:
    """The frame whose corrected labels are its predictions: the pipeline's input."""
    return AuditFrame(pred, pred, group, y_true)


def sp_of(labels, group) -> float:
    """The SP gate's difference for ``labels``."""
    return evaluate_fairness(AuditFrame(labels, labels, group).counts()).sp_difference


@pytest.fixture
def traced_peak():
    """Call ``fn(*args)``; return its result and the most its allocations held at once.

    The peak counts only memory the call allocated (numpy reports its
    buffers to ``tracemalloc``), so a bound on it bounds the call's scratch.
    """
    def run(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    return run


@pytest.fixture(scope="session")
def reference_frame() -> AuditFrame:
    return generate_scenario(REFERENCE_EXAMPLE)


@pytest.fixture
def identity_frame() -> AuditFrame:
    pred = np.array([1, 0, 1, 0, 1, 1])
    return AuditFrame(
        y_predicted=pred,
        y_corrected=pred.copy(),
        group=np.array([0, 0, 0, 1, 1, 1]),
    )
