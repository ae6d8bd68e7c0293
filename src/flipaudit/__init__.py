"""flipaudit: proportionality auditing of post-processing debiasing flips."""

__version__ = "0.1.0"

from .frame import AuditFrame, FlipCounts, ValidationError
from .metrics import (
    FlipSummary,
    MetricValue,
    ProportionalityMetrics,
    directional_flip_ratio,
    disparity_index,
    flip_disparity,
    flip_rate,
    harmful_flip_proportion,
    rate_difference,
    relative_disparity,
)
from .fairness import FairnessResult, evaluate_fairness
from .thresholds import Band, ThresholdConfig, ThresholdEntry, classify
from .report import (
    ProportionalityReport,
    build_report,
    parse_structured,
    render_structured,
    render_text,
)
from .scenario import (
    REFERENCE_EXAMPLE,
    GroupScenario,
    ScenarioSpec,
    generate_scenario,
)
from .debias import DebiasError, make_sp_debiaser, sp_equalizing_debiaser
from .pipeline import Decision, PipelineOutcome, run_audit_pipeline
from .tabular import ColumnMapping, frame_to_csv, ingest, ingest_counts
from .chart import emit_chart

__all__ = [
    "AuditFrame",
    "Band",
    "ColumnMapping",
    "Decision",
    "DebiasError",
    "FairnessResult",
    "FlipCounts",
    "FlipSummary",
    "GroupScenario",
    "MetricValue",
    "REFERENCE_EXAMPLE",
    "PipelineOutcome",
    "ProportionalityMetrics",
    "ProportionalityReport",
    "ScenarioSpec",
    "ThresholdConfig",
    "ThresholdEntry",
    "ValidationError",
    "build_report",
    "classify",
    "directional_flip_ratio",
    "disparity_index",
    "emit_chart",
    "evaluate_fairness",
    "flip_disparity",
    "flip_rate",
    "frame_to_csv",
    "generate_scenario",
    "harmful_flip_proportion",
    "ingest",
    "ingest_counts",
    "make_sp_debiaser",
    "parse_structured",
    "rate_difference",
    "relative_disparity",
    "render_structured",
    "render_text",
    "run_audit_pipeline",
    "sp_equalizing_debiaser",
]
