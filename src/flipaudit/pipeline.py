"""The audit loop: fairness gate, debias, re-gate, proportionality audit.

``run_audit_pipeline`` takes label vectors and any debiaser. They are
validated once, into an identity frame (corrected labels = predictions)
whose counts the first gate reads. If it fails, ``with_corrected`` swaps in
the debiaser's labels, validating only them, and the second gate and the
audit read the counts of that frame; otherwise the audit reads the
identity frame's counts. Each frame is counted once.

``run_counts_pipeline`` takes the identity frame's count table and repairs
it with the SP debiaser's plan, which fixes the post-repair table from the
counts alone unless the flips' rows must be drawn. Both end in the same
gate, report and decision. The loop runs one debias pass; whether to
iterate with a different debiasing strategy after an unsatisfactory
outcome is left to the caller.
"""

from __future__ import annotations

import enum

from .debias import _check_epsilon, plan_split
from .fairness import (
    DEFAULT_FAIR_INTERVAL, FairnessResult, _check_fair_interval, evaluate_fairness,
)
from .frame import AuditFrame, FlipCounts, Record, ValidationError
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
    """Debiaser failure; carries the fairness result computed before it ran.

    Its ``code`` is the debiaser's ``ValidationError`` code, or ``debiaser_failed``.
    """

    def __init__(self, cause: Exception, pre_fairness: FairnessResult):
        code = cause.code if isinstance(cause, ValidationError) else "debiaser_failed"
        super().__init__(f"debiaser failed: {cause}", code)
        self.pre_fairness = pre_fairness


def run_audit_pipeline(
    y_predicted,
    group,
    debiaser,
    y_true=None,
    config: ThresholdConfig | None = None,
    fair_interval: tuple[float, float] = DEFAULT_FAIR_INTERVAL,
) -> PipelineOutcome:
    """Gate the predictions, debias if needed, re-gate, and audit the flips.

    ``debiaser`` is a callable ``(y_predicted, group) -> y_corrected``; it
    is given the validated read-only ``int8`` vectors, and what it returns
    is validated as ``y_corrected``.
    """
    frame = AuditFrame(y_predicted=y_predicted, y_corrected=y_predicted,
                       group=group, y_true=y_true)
    _check_fair_interval(fair_interval)  # before counting, as the gate checks it
    counts = frame.counts()
    pre = evaluate_fairness(counts, fair_interval)
    if not pre.passed:
        try:
            y_corrected = debiaser(frame.y_predicted, frame.group)
        except Exception as exc:
            raise PipelineError(exc, pre_fairness=pre) from exc
        counts = frame.with_corrected(y_corrected).counts()
    return _conclude(pre, counts, config, fair_interval)


def run_counts_pipeline(
    counts: FlipCounts,
    epsilon: float,
    place,
    config: ThresholdConfig | None = None,
    fair_interval: tuple[float, float] = DEFAULT_FAIR_INTERVAL,
) -> PipelineOutcome:
    """``run_audit_pipeline`` with the SP debiaser at ``epsilon``, over the count table.

    ``counts`` is the table of the predictions, with corrected labels equal
    to them. A failing gate is repaired by ``plan_split``; when the plan's
    post-repair table does not follow from the counts alone,
    ``place(plan)`` gives it, from the flips the debiaser would place.
    """
    (_, down), (up, _) = counts.margin("pred", "corr")
    if down or up:
        raise ValidationError("counts must have corrected labels equal to the predictions",
                              code="bad_counts")
    _check_epsilon(epsilon)  # before any gate, as make_sp_debiaser checks it
    _check_fair_interval(fair_interval)
    pre = evaluate_fairness(counts, fair_interval)
    if not pre.passed:
        try:
            plan = plan_split(counts, epsilon)
        except ValidationError as exc:
            raise PipelineError(exc, pre_fairness=pre) from exc
        repaired = plan.apply(counts)
        counts = place(plan) if repaired is None else repaired
    return _conclude(pre, counts, config, fair_interval)


def _conclude(pre: FairnessResult, counts: FlipCounts, config: ThresholdConfig | None,
              fair_interval: tuple[float, float]) -> PipelineOutcome:
    """Gate, report and decide on ``counts``: the post-repair table when ``pre`` failed."""
    post = pre if pre.passed else evaluate_fairness(counts, fair_interval)
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
