"""Band classification of metric values against configurable thresholds.

Every metric has an ideal value and two deviation widths. A value within
``acceptable_delta`` of the ideal is Acceptable, within ``moderate_delta``
Moderate, and beyond that (or infinite) Disproportionate. Boundary values
fall into the less severe band.
"""

from __future__ import annotations

import enum
import math

from . import metrics as _metrics
from .frame import Record, ValidationError, read_text, real_or_nan
from .metrics import MetricValue

_BAD = "bad_thresholds"  # the code of every malformed threshold config or entry


class Band(enum.IntEnum):
    ACCEPTABLE = 0
    MODERATE = 1
    DISPROPORTIONATE = 2

    @property
    def label(self) -> str:
        return {0: "Acceptable", 1: "Moderate", 2: "Disproportionate"}[self.value]

    @property
    def color(self) -> str:
        return {0: "#2e8b57", 1: "#e6b800", 2: "#c0392b"}[self.value]

    @classmethod
    def from_label(cls, label: str) -> "Band":
        for band in cls:
            if band.label == label:
                return band
        raise ValidationError(f"unknown band label {label!r}", code="bad_report")


class ThresholdEntry(Record):
    ideal: float
    acceptable_delta: float
    moderate_delta: float

    def __post_init__(self):
        if not math.isfinite(real_or_nan(self.ideal)):
            raise ValidationError(f"ideal must be finite, got {self.ideal}", code=_BAD)
        # moderate_delta may be infinite: then only infinite values are Disproportionate.
        if not (0 < real_or_nan(self.acceptable_delta) < real_or_nan(self.moderate_delta)):
            raise ValidationError(
                f"need 0 < acceptable_delta < moderate_delta, got "
                f"{self.acceptable_delta} / {self.moderate_delta}", code=_BAD
            )


# Default deltas 0.1 / 0.3 for every metric; the between-group differences
# FRD and HFPD use the tighter 0.05 / 0.15. DFR's ideal is 1 (balanced flip
# directions); the ratio metrics DI and HDI also center on 1.
_DEFAULTS = {
    "FR": ThresholdEntry(0.0, 0.1, 0.3),
    "DFR": ThresholdEntry(1.0, 0.1, 0.3),
    "HFP": ThresholdEntry(0.0, 0.1, 0.3),
    "FRD": ThresholdEntry(0.0, 0.05, 0.15),
    "HFPD": ThresholdEntry(0.0, 0.05, 0.15),
    "DI": ThresholdEntry(1.0, 0.1, 0.3),
    "HDI": ThresholdEntry(1.0, 0.1, 0.3),
    "FD": ThresholdEntry(0.0, 0.1, 0.3),
    "HFD": ThresholdEntry(0.0, 0.1, 0.3),
    "RFD": ThresholdEntry(0.0, 0.1, 0.3),
    "RHFD": ThresholdEntry(0.0, 0.1, 0.3),
}


class ThresholdConfig(Record):
    entries: dict[str, ThresholdEntry]

    @classmethod
    def default(cls) -> "ThresholdConfig":
        return cls(entries=dict(_DEFAULTS))

    def entry(self, metric_name: str) -> ThresholdEntry:
        """The configured entry, or the default for a metric the config leaves out."""
        entry = self.entries.get(metric_name, _DEFAULTS.get(metric_name))
        if entry is None:
            raise ValidationError(f"no threshold entry for metric {metric_name!r}", code=_BAD)
        return entry

    def dumps(self) -> str:
        lines = ["# metric  ideal  acceptable_delta  moderate_delta"]
        for name, e in self.entries.items():
            lines.append(f"{name} {e.ideal!r} {e.acceptable_delta!r} {e.moderate_delta!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "ThresholdConfig":
        entries = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValidationError(
                    f"line {lineno}: expected 'name ideal acceptable moderate', got {raw!r}",
                    code=_BAD,
                )
            name = parts[0]
            if name not in _DEFAULTS:
                raise ValidationError(f"line {lineno}: unknown metric {name!r}", code=_BAD)
            if name in entries:
                raise ValidationError(f"line {lineno}: duplicate metric {name!r}", code=_BAD)
            try:
                ideal, acc, mod = (float(p) for p in parts[1:])
            except ValueError:
                raise ValidationError(f"line {lineno}: non-numeric threshold in {raw!r}",
                                      code=_BAD)
            try:
                entries[name] = ThresholdEntry(ideal, acc, mod)
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}", code=_BAD) from None
        if not entries:
            raise ValidationError("threshold config is empty", code=_BAD)
        return cls(entries=entries)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "ThresholdConfig":
        return cls.loads(read_text(path))


def classify(metric_name: str, value: MetricValue, config: ThresholdConfig) -> Band:
    """Band a metric value by its distance from the configured ideal.

    Infinite values are always Disproportionate. Conversely, the sentinel
    values produced when neither group has any relevant flips mark equal
    treatment, not disparity, and are always Acceptable (the both-zero
    convention pins FD-style metrics to 1, which distance from an ideal of
    0 would otherwise misread).
    """
    entry = config.entry(metric_name)
    if value.is_infinite:
        return Band.DISPROPORTIONATE
    if value.annotation in (_metrics.BOTH_ZERO, _metrics.NO_FLIPS):
        return Band.ACCEPTABLE
    d = abs(value.value - entry.ideal)
    # Boundary values belong to the less severe band; the isclose guard keeps
    # that true under float rounding (e.g. |1.1 - 1.0| > 0.1).
    if d <= entry.acceptable_delta or math.isclose(d, entry.acceptable_delta):
        return Band.ACCEPTABLE
    if d <= entry.moderate_delta or math.isclose(d, entry.moderate_delta):
        return Band.MODERATE
    return Band.DISPROPORTIONATE
