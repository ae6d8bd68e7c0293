"""The audit loop: fairness gate, repair, re-gate, proportionality audit.

``run_audit_pipeline`` takes the predictions' count table and a repair.
The repair runs only when the first gate fails; the second gate, the
report and the decision read the table it returns. The loop runs one
repair; whether to try another strategy after an unsatisfactory outcome
is left to the caller.
"""

from __future__ import annotations

import enum

from .fairness import (
    DEFAULT_FAIR_INTERVAL, FairnessResult, _check_fair_interval, evaluate_fairness,
)
from .frame import FlipCounts, Record, ValidationError
from .report import ProportionalityReport, build_report
from .thresholds import ThresholdConfig


class Decision(enum.Enum):
    NO_DEBIAS_NEEDED = "NoDebiasNeeded"
    FAIR_AND_PROPORTIONATE = "FairAndProportionate"
    FAIR_BUT_DISPROPORTIONATE = "FairButDisproportionate"
    STILL_UNFAIR = "StillUnfair"


class PipelineOutcome(Record):
    pre_fairness: FairnessResult
    post_fairness: FairnessResult
    report: ProportionalityReport
    decision: Decision


class PipelineError(ValidationError):
    """Repair failure; carries the fairness result computed before it ran.

    Its ``code`` is the repair's ``ValidationError`` code, or ``debiaser_failed``.
    """

    def __init__(self, cause: Exception, pre_fairness: FairnessResult):
        code = cause.code if isinstance(cause, ValidationError) else "debiaser_failed"
        super().__init__(f"debiaser failed: {cause}", code)
        self.pre_fairness = pre_fairness


def run_audit_pipeline(
    counts: FlipCounts,
    repair,
    config: ThresholdConfig | None = None,
    fair_interval: tuple[float, float] = DEFAULT_FAIR_INTERVAL,
) -> PipelineOutcome:
    """Gate the predictions, repair if needed, re-gate, and audit the flips.

    ``counts`` is the table of the predictions, with corrected labels equal
    to them. ``repair`` is a callable ``(counts) -> FlipCounts`` giving the
    table of the repaired labels; it runs only when the first gate fails,
    and anything it raises becomes a ``PipelineError``.
    """
    (_, down), (up, _) = counts.margin("pred", "corr")
    if down or up:
        raise ValidationError("counts must have corrected labels equal to the predictions",
                              code="bad_counts")
    _check_fair_interval(fair_interval)
    pre = post = evaluate_fairness(counts, fair_interval)
    if not pre.passed:
        try:
            counts = repair(counts)
        except Exception as exc:
            raise PipelineError(exc, pre_fairness=pre) from exc
        post = evaluate_fairness(counts, fair_interval)
    report = build_report(counts, config, fairness_pre=pre, fairness_post=post)
    if pre.passed:
        decision = Decision.NO_DEBIAS_NEEDED
    elif not post.passed:
        decision = Decision.STILL_UNFAIR
    elif report.verdict == "Proportionate":
        decision = Decision.FAIR_AND_PROPORTIONATE
    else:
        decision = Decision.FAIR_BUT_DISPROPORTIONATE
    return PipelineOutcome(
        pre_fairness=pre, post_fairness=post, report=report, decision=decision
    )
