import math

from hypothesis import assume, given, settings, strategies as st

import oracle
from conftest import flip_summaries, report_metrics
from flipaudit import (
    AuditFrame,
    Band,
    MetricValue,
    ThresholdConfig,
    classify,
)

CFG = ThresholdConfig.default()


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    pred = draw(bits)
    corr = draw(bits)
    group = draw(bits)
    assume(0 < sum(group) < n)
    return AuditFrame(y_predicted=pred, y_corrected=corr, group=group)


@given(frames())
def test_flip_partition(frame):
    counts = oracle.counts(frame.y_predicted.tolist(), frame.y_corrected.tolist(),
                           frame.group.tolist())
    s, _, _ = flip_summaries(frame)
    assert counts["n"] == s.n == frame.n
    assert counts["fav"] == s.n_favorable
    assert counts["unfav"] == s.n_unfavorable
    assert counts["flips"] == s.n_flips
    assert s.n_favorable + s.n_unfavorable == s.n_flips


@given(frames())
def test_fr_bounds_and_zero_iff_identity(frame):
    s, _, _ = flip_summaries(frame)
    assert 0.0 <= s.flip_rate.value <= 1.0
    identical = frame.y_predicted == frame.y_corrected  # by content
    assert (s.flip_rate.value == 0.0) == identical


@given(frames())
def test_hfp_complement(frame):
    s, _, _ = flip_summaries(frame)
    assert 0.0 <= s.hfp.value <= 1.0
    if s.n_flips > 0:
        assert math.isclose(s.hfp.value + s.n_favorable / s.n_flips, 1.0)


@given(frames())
def test_pred_corr_swap_law(frame):
    s, _, _ = flip_summaries(frame)
    swapped, _, _ = flip_summaries(
        AuditFrame(frame.y_corrected, frame.y_predicted, frame.group)
    )
    assert swapped.n_flips == s.n_flips
    assert swapped.n_favorable == s.n_unfavorable
    assert swapped.n_unfavorable == s.n_favorable
    assert swapped.flip_rate.value == s.flip_rate.value
    # DFR maps x -> 1/x, with infinity and zero exchanging.
    if s.dfr.is_infinite:
        assert swapped.dfr.value == 0.0
    elif s.dfr.value == 0.0:
        assert swapped.dfr.is_infinite
    else:
        assert math.isclose(swapped.dfr.value, 1.0 / s.dfr.value)


@given(frames())
def test_fr_aggregation_identity(frame):
    s, unpriv, priv = flip_summaries(frame)
    lhs = frame.n * s.flip_rate.value
    rhs = priv.n * priv.flip_rate.value + unpriv.n * unpriv.flip_rate.value
    assert math.isclose(lhs, rhs, abs_tol=1e-9)


def _metric_key(mv: MetricValue):
    return (mv.kind, None if mv.is_infinite else round(mv.value, 12))


@given(frames())
def test_group_swap_symmetry(frame):
    p = report_metrics(frame)
    swapped = [1 - g for g in frame.group]
    q = report_metrics(AuditFrame(frame.y_predicted, frame.y_corrected, swapped))
    for name in ("frd", "hfpd", "di", "hdi", "fd", "hfd", "rfd", "rhfd"):
        assert _metric_key(p[name]) == _metric_key(q[name])


@given(frames())
def test_proportionality_bounds(frame):
    p = report_metrics(frame)
    for name in ("frd", "hfpd", "rfd", "rhfd"):
        mv = p[name]
        assert 0.0 <= mv.value <= 1.0 + 1e-12
    for name in ("di", "hdi"):
        mv = p[name]
        if not mv.is_infinite:
            assert mv.value >= 1.0
    for name in ("fd", "hfd"):
        mv = p[name]
        if not mv.is_infinite:
            assert mv.value >= 0.0


@given(frames())
def test_one_sided_relative_disparity_is_one(frame):
    # |a - 0| / (a + 0) = 1 whenever exactly one group rate is positive.
    p = report_metrics(frame)
    a = p["group1_fr"].value
    b = p["group0_fr"].value
    if (a == 0.0) != (b == 0.0):
        assert math.isclose(p["rfd"].value, 1.0)


@given(
    st.sampled_from(sorted(CFG.entries)),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_threshold_monotonicity(name, d1, d2):
    ideal = CFG.entry(name).ideal
    lo, hi = sorted((d1, d2))
    band_lo = classify(name, MetricValue.finite(ideal + lo), CFG)
    band_hi = classify(name, MetricValue.finite(ideal + hi), CFG)
    assert band_lo <= band_hi
    assert classify(name, MetricValue.infinite("One value is zero"), CFG) \
        is Band.DISPROPORTIONATE
