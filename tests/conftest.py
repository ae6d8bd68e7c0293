import tracemalloc

import numpy as np
import pytest

from flipaudit import (
    AuditFrame,
    REFERENCE_EXAMPLE,
    build_report,
    evaluate_fairness,
    generate_scenario,
)
from flipaudit.metrics import summarize_counts


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
    """(overall, group 0, group 1) flip summaries of the frame's (group, pred, corr) table."""
    table = np.array(frame.counts().flip_table)
    return tuple(summarize_counts(t.tolist()) for t in (table.sum(axis=0), table[0], table[1]))


def report_metrics(frame) -> dict:
    """Every metric of the frame's report, keyed as in the JSON report."""
    return {key: cell.metric for key, cell in build_report(frame.counts()).cells.items()}


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
