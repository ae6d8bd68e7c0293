"""The audit loop: fairness gate, debias, re-gate, proportionality audit.

The loop runs one debias pass. If the first gate already passes, no
corrected labels are produced and the audit runs on an identity frame.
Whether to iterate with a different debiasing strategy after an
unsatisfactory outcome is left to the caller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .fairness import DEFAULT_FAIR_INTERVAL, FairnessResult, evaluate_fairness
from .frame import AuditFrame
from .report import ProportionalityReport, build_report
from .thresholds import ThresholdConfig


class Decision(enum.Enum):
    NO_DEBIAS_NEEDED = "NoDebiasNeeded"
    FAIR_AND_PROPORTIONATE = "FairAndProportionate"
    FAIR_BUT_DISPROPORTIONATE = "FairButDisproportionate"
    STILL_UNFAIR = "StillUnfair"


@dataclass(frozen=True)
class PipelineOutcome:
    pre_fairness: FairnessResult
    post_fairness: FairnessResult
    report: ProportionalityReport
    decision: Decision


class PipelineError(RuntimeError):
    """Debiaser failure; carries the fairness result computed before it ran.

    ``code`` is the failure's own ``code``, or None when it has none.
    """

    def __init__(self, message: str, pre_fairness: FairnessResult, code: str | None = None):
        super().__init__(message)
        self.pre_fairness = pre_fairness
        self.code = code


def run_audit_pipeline(
    y_predicted,
    group,
    debiaser,
    y_true=None,
    config: ThresholdConfig | None = None,
    fair_interval: tuple[float, float] = DEFAULT_FAIR_INTERVAL,
) -> PipelineOutcome:
    """Gate the predictions, debias if needed, re-gate, and audit the flips.

    ``debiaser`` is a callable ``(y_predicted, group) -> y_corrected``.
    """
    pre = evaluate_fairness(y_predicted, group, y_true, fair_interval)
    if pre.passed:
        y_corrected, post = y_predicted, pre
    else:
        try:
            y_corrected = debiaser(y_predicted, group)
        except Exception as exc:
            raise PipelineError(f"debiaser failed: {exc}", pre_fairness=pre,
                                code=getattr(exc, "code", None)) from exc
        post = evaluate_fairness(y_corrected, group, y_true, fair_interval)

    frame = AuditFrame(y_predicted=y_predicted, y_corrected=y_corrected,
                       group=group, y_true=y_true)
    report = build_report(frame, config, fairness_pre=pre, fairness_post=post)

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
