"""Every audit metric: the flip characterization and the proportionality metrics.

A flip is any disagreement between a predicted label and its corrected
label. Favorable flips grant the favorable outcome (0 -> 1); unfavorable
(harmful) flips withdraw it (1 -> 0). Every metric result carries a short
annotation so degenerate cases (no flips, all flips harmful, ...) stay
visible all the way into reports and charts.

The eight proportionality metrics compare the privileged and unprivileged
groups' flip rates and harmful flip proportions: absolute differences,
max/min ratios, gaps normalized by the overall flip rate, and gaps
normalized by the sum of the group rates. Degenerate cases follow fixed
conventions (infinity when exactly one rate is zero, neutral values when
both are). ``audit_values`` reads every one of them from a count table.
"""

from __future__ import annotations

from .frame import PRIVILEGED, UNPRIVILEGED, FlipCounts, Record, ValidationError

# Annotation strings, shared by every metric producer.
REGULAR = "Regular calculation"
NO_FLIPS = "No flips"
ONLY_HARMFUL = "Only harmful flips"
ONLY_BENEFICIAL = "Only beneficial flips"
NO_HARMFUL = "No harmful flips"
ONE_ZERO = "One value is zero"
BOTH_ZERO = "Both values are zero"


class MetricValue(Record):
    """Extended-real metric result: a finite value or positive infinity.

    ``annotation`` records how the value was obtained, distinguishing a
    regular evaluation from one of the fixed degenerate-case conventions.
    """

    kind: str  # "finite" | "inf"
    value: float | None
    annotation: str

    def __post_init__(self):
        if self.kind not in ("finite", "inf"):
            raise ValueError(f"bad MetricValue kind: {self.kind!r}")
        if self.kind == "inf" and self.value is not None:
            raise ValueError("infinite MetricValue cannot carry a value")
        if self.kind == "finite" and self.value is None:
            raise ValueError("finite MetricValue requires a value")
        if not self.annotation:
            raise ValueError("annotation must not be empty")

    @classmethod
    def finite(cls, value: float, annotation: str = REGULAR) -> "MetricValue":
        return cls(kind="finite", value=float(value), annotation=annotation)

    @classmethod
    def infinite(cls, annotation: str) -> "MetricValue":
        return cls(kind="inf", value=None, annotation=annotation)

    @property
    def is_infinite(self) -> bool:
        return self.kind == "inf"


def flip_rate(n_flips: int, n: int) -> MetricValue:
    """Proportion of instances whose label was flipped."""
    if n < 1:
        raise ValidationError("flip rate needs at least one instance", code="empty")
    if n_flips == 0:
        return MetricValue.finite(0.0, NO_FLIPS)
    return MetricValue.finite(n_flips / n, REGULAR)


def directional_flip_ratio(n_favorable: int, n_unfavorable: int) -> MetricValue:
    """Ratio of favorable to unfavorable flips.

    Conventions: +inf when only beneficial flips exist, 0 when only harmful
    flips exist, and 1 in the absence of any flip.
    """
    if n_favorable == 0 and n_unfavorable == 0:
        return MetricValue.finite(1.0, NO_FLIPS)
    if n_unfavorable == 0:
        return MetricValue.infinite(ONLY_BENEFICIAL)
    if n_favorable == 0:
        return MetricValue.finite(0.0, ONLY_HARMFUL)
    return MetricValue.finite(n_favorable / n_unfavorable, REGULAR)


def harmful_flip_proportion(n_unfavorable: int, n_flips: int) -> MetricValue:
    """Share of harmful flips among all flips; 0 by convention when no flips."""
    if n_flips == 0:
        return MetricValue.finite(0.0, NO_FLIPS)
    value = n_unfavorable / n_flips
    if value == 1.0:
        return MetricValue.finite(1.0, ONLY_HARMFUL)
    if value == 0.0:
        return MetricValue.finite(0.0, NO_HARMFUL)
    return MetricValue.finite(value, REGULAR)


def _both_rates_zero(rate_priv: MetricValue, rate_unpriv: MetricValue) -> MetricValue:
    """0 for two zero group rates, noting whether either group flipped."""
    # A zero HFP of a group that did flip carries NO_HARMFUL.
    flipped = NO_HARMFUL in (rate_priv.annotation, rate_unpriv.annotation)
    return MetricValue.finite(0.0, BOTH_ZERO if flipped else NO_FLIPS)


def rate_difference(rate_priv: MetricValue, rate_unpriv: MetricValue) -> MetricValue:
    """Absolute difference of two group rates (serves FRD and HFPD)."""
    a, b = rate_priv.value, rate_unpriv.value
    if a == 0.0 and b == 0.0:
        return _both_rates_zero(rate_priv, rate_unpriv)
    return MetricValue.finite(abs(a - b), REGULAR)


def disparity_index(rate_a: MetricValue, rate_b: MetricValue) -> MetricValue:
    """max/min ratio of two group rates (serves DI and HDI)."""
    a, b = rate_a.value, rate_b.value
    if a == 0.0 and b == 0.0:
        return MetricValue.finite(1.0, BOTH_ZERO)
    if a == 0.0 or b == 0.0:
        return MetricValue.infinite(ONE_ZERO)
    return MetricValue.finite(max(a, b) / min(a, b), REGULAR)


def flip_disparity(
    rate_priv: MetricValue, rate_unpriv: MetricValue, overall_fr: MetricValue
) -> MetricValue:
    """Between-group gap normalized by the overall flip rate (serves FD and HFD).

    When exactly one group rate is zero the result is +inf by convention,
    even though the raw formula would stay finite; when both are zero the
    result is 1.
    """
    a, b = rate_priv.value, rate_unpriv.value
    if a == 0.0 and b == 0.0:
        return MetricValue.finite(1.0, BOTH_ZERO)
    if a == 0.0 or b == 0.0:
        return MetricValue.infinite(ONE_ZERO)
    fr = overall_fr.value
    return MetricValue.finite(abs(a / fr - b / fr), REGULAR)


def relative_disparity(
    diff: MetricValue, rate_priv: MetricValue, rate_unpriv: MetricValue
) -> MetricValue:
    """Gap normalized by the sum of the group rates (serves RFD and RHFD)."""
    total = rate_priv.value + rate_unpriv.value
    if total == 0.0:
        return _both_rates_zero(rate_priv, rate_unpriv)
    return MetricValue.finite(diff.value / total, REGULAR)


def audit_values(counts: FlipCounts) -> dict[str, int | MetricValue]:
    """Every value the report shows, keyed by its row: counts as ints, metrics as ``MetricValue``s.

    Each group's values, and the overall ones, are read from its (pred,
    corr) table: kept unfavorable, favorable flips; harmful flips, kept
    favorable. The proportionality metrics compare the groups' FR, then
    their HFP, four ways.
    """
    groups = counts.margin("group", "pred", "corr")
    values = {}
    for prefix, table in (("", counts.margin("pred", "corr")),
                          ("group0_", groups[UNPRIVILEGED]), ("group1_", groups[PRIVILEGED])):
        (kept_unfavorable, favorable), (harmful, kept_favorable) = table
        n_flips = favorable + harmful
        n = kept_unfavorable + n_flips + kept_favorable
        total = prefix or "total_"
        values.update({
            f"{total}samples": n,
            f"{total}flips": n_flips,
            f"{prefix}harmful_flips": harmful,
            f"{prefix}fr": flip_rate(n_flips, n),
            f"{prefix}hfp": harmful_flip_proportion(harmful, n_flips),
            f"{prefix}dfr": directional_flip_ratio(favorable, harmful),
        })
    for rate, keys in (("fr", ("frd", "di", "fd", "rfd")),
                       ("hfp", ("hfpd", "hdi", "hfd", "rhfd"))):
        priv, unpriv = values[f"group1_{rate}"], values[f"group0_{rate}"]
        diff = rate_difference(priv, unpriv)
        values.update(zip(keys, (diff, disparity_index(priv, unpriv),
                                 flip_disparity(priv, unpriv, values["fr"]),
                                 relative_disparity(diff, priv, unpriv))))
    return values
