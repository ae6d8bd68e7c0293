"""flipaudit: proportionality auditing of post-processing debiasing flips.

Every public name is imported from its home module the first time it is
used, so ``import flipaudit`` loads no submodule and a CLI command loads
only the modules it runs. Without a bytecode cache, every module loaded is
compiled again at each launch.
"""

from importlib import import_module

__version__ = "0.1.0"


def lazy_names(namespace: dict, homes: dict):
    """A PEP 562 ``__getattr__`` and ``__dir__`` for the module whose globals are ``namespace``.

    ``homes`` maps each flipaudit submodule to the names the module takes
    from it. The first lookup of such a name imports its submodule and
    stores the name in ``namespace``; from then on, and for a name set on
    the module before its first lookup, ``__getattr__`` is not called. A
    submodule's own name resolves to the submodule.
    """
    home_of = {name: module for module, names in homes.items() for name in (module, *names)}

    def __getattr__(name):
        if name not in home_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = import_module(f"{__name__}.{home_of[name]}")
        namespace[name] = module if name in homes else getattr(module, name)
        return namespace[name]

    def __dir__():
        return sorted({*namespace, *home_of})

    return __getattr__, __dir__


_HOMES = {
    "frame": ("AuditFrame", "FlipCounts", "ValidationError"),
    "metrics": (
        "MetricValue",
        "directional_flip_ratio",
        "disparity_index",
        "flip_disparity",
        "flip_rate",
        "harmful_flip_proportion",
        "rate_difference",
        "relative_disparity",
    ),
    "fairness": ("FairnessResult", "evaluate_fairness"),
    "thresholds": ("Band", "ThresholdConfig", "ThresholdEntry", "classify"),
    "report": (
        "ProportionalityReport",
        "build_report",
        "parse_structured",
        "render_structured",
        "render_text",
    ),
    "scenario": ("REFERENCE_EXAMPLE", "GroupScenario", "ScenarioSpec", "generate_scenario"),
    "debias": ("DebiasError", "Plan", "place", "plan_split", "sp_equalizing_debiaser",
               "sp_repair"),
    "pipeline": ("Decision", "PipelineOutcome", "run_audit_pipeline"),
    "tabular": ("ColumnMapping", "frame_to_csv", "ingest", "ingest_counts"),
    "chart": ("emit_chart",),
    "cli": (),
}

__all__ = sorted(name for names in _HOMES.values() for name in names)
__getattr__, __dir__ = lazy_names(globals(), _HOMES)
