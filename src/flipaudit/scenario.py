"""Synthetic audit-frame generation from per-group flip-count specs.

A scenario pins, for each group, the group size, the number of positive
predictions, and how many favorable/unfavorable flips the debiasing step
applied. The generated frame reproduces those counts exactly, with
instance placement driven by the seed. True labels are fabricated equal to
the corrected labels, so a generated scenario always passes post-debias
fairness gates by construction (documented, since real ground truth for
these counts does not exist).
"""

from __future__ import annotations

import numbers
import sys
from typing import TYPE_CHECKING

from .frame import AuditFrame, Record, ValidationError, check_seed, read_text

if TYPE_CHECKING:
    import numpy as np

# The most rows a scenario may have: an int64 array of more would need more
# than sys.maxsize bytes, which numpy refuses with a bare ValueError.
MAX_ROWS = sys.maxsize // 8


class GroupScenario(Record):
    size: int
    positive_predictions: int
    favorable_flips: int
    unfavorable_flips: int

    def __post_init__(self):
        for key, value in self._asdict().items():  # integers, numpy's included, as a seed is
            if not isinstance(value, numbers.Integral):
                raise ValidationError(f"{key} must be an integer, got {value!r}",
                                      code="bad_scenario")
        if self.size < 1:
            raise ValidationError("group size must be >= 1", code="bad_scenario")
        if self.size > MAX_ROWS:  # checked before numpy is asked for the array
            raise ValidationError(f"group size {self.size} exceeds {MAX_ROWS}",
                                  code="bad_scenario")
        if not (0 <= self.positive_predictions <= self.size):
            raise ValidationError(
                f"positive_predictions {self.positive_predictions} outside [0, {self.size}]",
                code="bad_scenario",
            )
        if self.unfavorable_flips > self.positive_predictions:
            raise ValidationError(
                f"unfavorable_flips {self.unfavorable_flips} exceeds the "
                f"{self.positive_predictions} positive predictions they would flip",
                code="bad_scenario",
            )
        negatives = self.size - self.positive_predictions
        if self.favorable_flips > negatives:
            raise ValidationError(
                f"favorable_flips {self.favorable_flips} exceeds the "
                f"{negatives} negative predictions they would flip",
                code="bad_scenario",
            )
        if self.favorable_flips < 0 or self.unfavorable_flips < 0:
            raise ValidationError("flip counts must be nonnegative", code="bad_scenario")


class ScenarioSpec(Record):
    group0: GroupScenario
    group1: GroupScenario
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed, "bad_scenario")
        rows = self.group0.size + self.group1.size
        if rows > MAX_ROWS:
            raise ValidationError(f"scenario of {rows} rows exceeds {MAX_ROWS}",
                                  code="bad_scenario")


# Reconstructs the published worked example's count structure: 1320 samples,
# all 136 of group 0's flips harmful, all 38 of group 1's flips beneficial.
# The positive-prediction counts are chosen so the corrected labels land
# inside the default fair interval while the predicted labels do not.
REFERENCE_EXAMPLE = ScenarioSpec(
    group0=GroupScenario(size=799, positive_predictions=400,
                         favorable_flips=0, unfavorable_flips=136),
    group1=GroupScenario(size=521, positive_predictions=150,
                         favorable_flips=38, unfavorable_flips=0),
    seed=0,
)


def _generate_group(spec: GroupScenario, rng: np.random.Generator):
    import numpy as np

    pred = np.zeros(spec.size, dtype=np.int64)
    pos = rng.choice(spec.size, size=spec.positive_predictions, replace=False)
    pred[pos] = 1
    corr = pred.copy()
    pos_idx = np.flatnonzero(pred == 1)
    neg_idx = np.flatnonzero(pred == 0)
    down = rng.choice(pos_idx, size=spec.unfavorable_flips, replace=False)
    up = rng.choice(neg_idx, size=spec.favorable_flips, replace=False)
    corr[down] = 0
    corr[up] = 1
    return pred, corr


def generate_scenario(spec: ScenarioSpec) -> AuditFrame:
    """Build a deterministic frame realizing the spec's counts exactly.

    A spec whose arrays do not fit in memory fails with ``bad_scenario``. It
    needs numpy, the ``synth`` extra; without it, it fails ``missing_dependency``.
    """
    try:
        import numpy as np
    except ImportError:
        raise ValidationError("generating a scenario needs numpy: pip install "
                              "'flipaudit[synth]'", code="missing_dependency") from None

    n = spec.group0.size + spec.group1.size
    try:
        rng = np.random.default_rng(spec.seed)
        pred0, corr0 = _generate_group(spec.group0, rng)
        pred1, corr1 = _generate_group(spec.group1, rng)
        placement = rng.permutation(n)

        def place(part0, part1) -> np.ndarray:
            out = np.empty(n, dtype=np.int64)
            out[placement] = np.concatenate((part0, part1))
            return out

        group = place(np.zeros(spec.group0.size, dtype=np.int64),
                      np.ones(spec.group1.size, dtype=np.int64))
        pred = place(pred0, pred1)
        corr = place(corr0, corr1)
        return AuditFrame(y_predicted=pred, y_corrected=corr, group=group, y_true=corr)
    except MemoryError:
        raise ValidationError(f"scenario of {n} rows does not fit in memory",
                              code="bad_scenario") from None


_SCENARIO_KEYS = GroupScenario._fields
_SPEC_KEYS = {"seed"} | {f"group{gid}.{key}" for gid in (0, 1) for key in _SCENARIO_KEYS}


def dumps_spec(spec: ScenarioSpec) -> str:
    lines = [f"seed = {spec.seed}"]
    for gid, g in (("group0", spec.group0), ("group1", spec.group1)):
        for key in _SCENARIO_KEYS:
            lines.append(f"{gid}.{key} = {getattr(g, key)}")
    return "\n".join(lines) + "\n"


def loads_spec(text: str) -> ScenarioSpec:
    values: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"scenario line {lineno}: expected 'key = value', got {raw!r}",
                code="bad_scenario",
            )
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SPEC_KEYS:
            raise ValidationError(
                f"scenario line {lineno}: unknown key {key!r}", code="bad_scenario"
            )
        if key in values:
            raise ValidationError(
                f"scenario line {lineno}: duplicate key {key!r}", code="bad_scenario"
            )
        try:
            values[key] = int(val.strip())
        except ValueError:
            raise ValidationError(
                f"scenario line {lineno}: non-integer value in {raw!r}",
                code="bad_scenario",
            )
        if key == "seed" and values[key] < 0:
            raise ValidationError(
                f"scenario line {lineno}: seed must be a non-negative integer, got {raw!r}",
                code="bad_scenario",
            )

    def group(gid: str) -> GroupScenario:
        kwargs = {}
        for key in _SCENARIO_KEYS:
            full = f"{gid}.{key}"
            if full not in values:
                raise ValidationError(f"scenario missing key {full}", code="bad_scenario")
            kwargs[key] = values[full]
        return GroupScenario(**kwargs)

    return ScenarioSpec(group0=group("group0"), group1=group("group1"),
                        seed=values.get("seed", 0))


def load_spec(path) -> ScenarioSpec:
    return loads_spec(read_text(path))
