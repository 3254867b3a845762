import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqiv._rng import stream
from crqiv.smoothing import (
    SmoothedCurve,
    default_bandwidth,
    epanechnikov_cdf,
    rule_of_thumb_bandwidth,
    smooth,
)
from crqiv.surface import SmoothedSurvivalSurface
from crqiv.survival import StepFunction

KINDS = ("local_linear", "convolution")
GRID = np.linspace(0.0, 4.0, 601)  # holds 0.5 and 1.0 exactly


# -- kernel CDF ----------------------------------------------------------


def test_epanechnikov_cdf_anchor_values():
    assert epanechnikov_cdf(-1.0) == 0.0
    assert epanechnikov_cdf(0.0) == 0.5
    assert epanechnikov_cdf(1.0) == 1.0
    # 0.75 * (1/2 - 1/24) + 1/2 = 27/32 + ... check the closed form at 0.5
    assert epanechnikov_cdf(0.5) == pytest.approx(0.75 * (0.5 - 0.125 / 3.0) + 0.5, abs=1e-15)
    assert epanechnikov_cdf(0.5) == pytest.approx(27 / 32, abs=1e-15)


def test_epanechnikov_cdf_clamps_and_monotone():
    assert epanechnikov_cdf(-7.0) == 0.0
    assert epanechnikov_cdf(9.0) == 1.0
    xs = np.linspace(-1.5, 1.5, 101)
    vals = epanechnikov_cdf(xs)
    assert np.all(np.diff(vals) >= 0)
    assert vals.shape == xs.shape


# -- bandwidth rules -------------------------------------------------------


def test_rule_of_thumb_exact_values():
    # 32 ** (-1/5) = 1/2, so the constants come out exactly
    assert rule_of_thumb_bandwidth(2.0, 32) == pytest.approx(2.34, abs=1e-15)
    assert rule_of_thumb_bandwidth(1.0, 32) == pytest.approx(1.17, abs=1e-15)


def test_rule_of_thumb_validation():
    with pytest.raises(ValueError):
        rule_of_thumb_bandwidth(0.0, 100)
    with pytest.raises(ValueError):
        rule_of_thumb_bandwidth(1.0, 1)


def test_default_bandwidth_normal_sample():
    rng = stream(3, "test")
    x = rng.normal(size=10_000)
    # sigma-hat close to 1, so close to 2.34 * 10000^(-0.2) = 0.37085
    assert default_bandwidth(x) == pytest.approx(2.34 * 10_000 ** -0.2, abs=0.02)


def test_default_bandwidth_degenerate():
    with pytest.raises(ValueError, match="at least 2"):
        default_bandwidth([1.0])
    with pytest.raises(ValueError, match="zero spread"):
        default_bandwidth([2.0, 2.0, 2.0])


# -- smoothing of step functions -------------------------------------------


def unit_step(t0=1.0):
    return StepFunction(np.array([t0]), np.array([0.0]), 1.0)


@pytest.mark.parametrize("kind", KINDS)
def test_constant_step_stays_constant(kind):
    step = StepFunction(np.empty(0), np.empty(0), 1.0)
    curve = smooth(step, 0.3, kind, GRID)
    ts = np.linspace(0, 2, 50)
    assert np.allclose(curve(ts), 1.0, atol=1e-12)


def test_convolution_halves_at_jump():
    # symmetric kernel centred at the jump averages the two plateau levels
    curve = smooth(unit_step(1.0), 0.2, "convolution", GRID)
    assert curve(1.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_exact_far_from_jumps(kind):
    bw = 0.2
    curve = smooth(unit_step(1.0), bw, kind, GRID)
    assert curve(0.5) == pytest.approx(1.0, abs=1e-12)
    assert curve(1.0 + 2 * bw) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_boundary_shrinkage_is_exact_at_origin(kind):
    # the window shrinks to nothing at t = 0, so the raw value is recovered
    curve = smooth(unit_step(0.05), 0.5, kind, GRID)
    assert curve(0.0) == pytest.approx(1.0, abs=1e-12)


@st.composite
def random_step(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    jumps = np.sort(draw(st.lists(
        st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        min_size=k, max_size=k, unique=True)))
    vals = np.sort(draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=k, max_size=k)))[::-1]
    return StepFunction(jumps, np.ascontiguousarray(vals), 1.0)


@settings(max_examples=40, deadline=None)
@given(random_step(), st.sampled_from(KINDS), st.floats(min_value=0.05, max_value=0.8))
def test_range_and_monotone(step, kind, bw):
    curve = smooth(step, bw, kind, GRID)
    ts = np.linspace(0.0, 4.0, 200)
    vals = curve(ts)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) <= 1e-12)


@settings(max_examples=40, deadline=None)
@given(random_step(), st.sampled_from(KINDS), st.floats(min_value=0.05, max_value=0.8))
def test_window_oscillation_bound(step, kind, bw):
    # at its own knots the smoothed value stays inside the step's range over
    # the (boundary-shrunk) window; the linear fit rings at discontinuities,
    # but by well under 5% of the step's total variation
    slack = 0.0 if kind == "convolution" else 0.05 * (1.0 - float(step.values.min()))
    curve = smooth(step, bw, kind, GRID)
    ts = curve.knots
    h = np.minimum(bw, ts)
    lo = step(ts + h)
    left = np.where(ts - h > 0, np.nextafter(ts - h, -np.inf), 0.0)
    hi = np.where(ts - h > 0, step(left), step.value_at_zero)
    v = curve.values
    assert np.all(lo - 1e-12 - slack <= v)
    assert np.all(v <= hi + 1e-12 + slack)


@pytest.mark.parametrize("kind", KINDS)
def test_fast_eval_matches_call(kind):
    # a smoothed curve on a surface row: the scalar closure agrees with the
    # vectorized evaluation, with the slopes of right-closed segments
    rng = stream(11, "test")
    jumps = np.sort(rng.uniform(0.1, 2.0, size=5))
    vals = np.sort(rng.uniform(0, 1, size=5))[::-1]
    curve = smooth(StepFunction(jumps, np.ascontiguousarray(vals), 1.0), 0.3, kind, GRID)
    surf = SmoothedSurvivalSurface(GRID, 0.25 * curve.values[None, None], np.array([[0.25]]), {}, kind)
    ev = surf.cell_value_slope(0, 0)
    ts = np.concatenate((rng.uniform(-0.5, 5.0, size=200), GRID[::7]))
    for t in ts:
        v, s = ev(float(t))
        assert v == pytest.approx(0.25 * float(curve(t)), abs=1e-14)
        assert v == pytest.approx(float(surf.evaluate(t, 0, 0)), abs=1e-14)
        # the slope is that of the segment (a, b] holding t, [a, b] for the first
        i = max(int(np.searchsorted(GRID, t, side="left")), int(t == GRID[0]))
        if 0 < i < GRID.size:
            a, b = GRID[i - 1], GRID[i]
            assert s == pytest.approx(0.25 * (float(curve(b)) - float(curve(a))) / (b - a), rel=1e-9, abs=1e-12)
            assert s <= 0.0
        else:
            assert s == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_curve_held_flat_past_its_own_range(kind):
    # the grid runs past the step's last jump + bandwidth: the curve keeps
    # its value there, and its values inside its own range do not
    # depend on how far the grid runs
    step = StepFunction(np.array([0.4, 0.9]), np.array([0.6, 0.2]), 1.0)
    own = 0.9 + 0.3
    long = smooth(step, 0.3, kind, GRID)
    short = smooth(step, 0.3, kind, GRID[GRID <= own])
    assert np.array_equal(long.values[: short.values.size], short.values)
    held = long.values[GRID >= own]
    assert np.all(held == held[0])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        smooth(unit_step(), 0.3, "cubic", GRID)


def test_smoothed_curve_is_plain_interpolator():
    c = SmoothedCurve(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.3, "convolution")
    assert c(0.25) == pytest.approx(0.75)
    assert c(-1.0) == 1.0
    assert c(9.0) == 0.0
