import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqiv import smoothing
from crqiv._rng import stream
from crqiv.estimator import QuantileGrid, fit_curve
from crqiv.inference import BootstrapConfig, bootstrap_band
from crqiv.simulate import DgpSpec, generate
from crqiv.smoothing import SmoothedCurve, bandwidth_rows, rule_of_thumb_bandwidth, smooth
from crqiv.surface import SmoothedSurvivalSurface
from crqiv.survival import StepFunction

KINDS = ("local_linear", "convolution")
GRID = np.linspace(0.0, 4.0, 601)  # holds 0.5 and 1.0 exactly
# the convolution kind's window sums come from prefix sums taken about each
# bandwidth-wide block's left edge, so their rounding does not grow as the
# bandwidth shrinks; measured at most 6.3e-15 against the knot loop
# (250,000-jump curves at bandwidths 1e-4 to 0.8)
CONVOLUTION_TOL = 1e-12


# -- kernel CDF, the knot loop's weights -----------------------------------------


def epanechnikov_cdf(x):
    """Integral of K(s) = 3/4 (1 - s^2) on [-1, 1] from -1 to x."""
    x = np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0)
    return 0.75 * (x - x**3 / 3.0) + 0.5


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


def test_bandwidth_rule_normal_sample():
    rng = stream(3, "test")
    x = rng.normal(size=10_000)
    # sigma-hat close to 1, so close to 2.34 * 10000^(-0.2) = 0.37085
    (h,), (reason,) = bandwidth_rows(np.sort(x))
    assert reason is None
    assert h == pytest.approx(2.34 * 10_000 ** -0.2, abs=0.02)


def test_bandwidth_rule_degenerate():
    for sample, why in (([1.0], "at least 2"), ([2.0, 2.0, 2.0], "zero spread")):
        (h,), (reason,) = bandwidth_rows(np.array(sample))
        assert np.isnan(h) and why in reason


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
    check_window_oscillation(step, kind, bw)


@pytest.mark.xfail(strict=True, reason=(
    "local_linear returns values about 1.75e-12 below the step at the knots from t = 3.2 to the curve's range "
    "3.25, where the window holds the tiny jump near its left edge: cancellation in the moment sums, past the "
    "1e-12 allowance (the ringing slack is 5% of a 1.1e-16 drop); mending it changes smoothed bits"))
def test_window_oscillation_tiny_last_jump():
    # one jump at 2.75 from 1 to 1 - 2^-53, a draw that test_window_oscillation_bound can meet
    check_window_oscillation(StepFunction(np.array([2.75]), np.array([np.nextafter(1.0, 0.0)]), 1.0),
                             "local_linear", 0.5)


def check_window_oscillation(step, kind, bw):
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
    # a smoothed curve on a surface row: its value is the curve's, and the
    # batched slopes are those of right-closed segments
    rng = stream(11, "test")
    jumps = np.sort(rng.uniform(0.1, 2.0, size=5))
    vals = np.sort(rng.uniform(0, 1, size=5))[::-1]
    curve = smooth(StepFunction(jumps, np.ascontiguousarray(vals), 1.0), 0.3, kind, GRID)
    surf = SmoothedSurvivalSurface(GRID, 0.25 * curve.values[None, None], np.array([[0.25]]), {}, kind)
    ts = np.concatenate((rng.uniform(-0.5, 5.0, size=200), GRID[::7]))
    slopes = surf.slopes(ts[:, None])[:, 0, 0]
    for t, s in zip(ts, slopes):
        v = float(surf.evaluate(t, 0, 0))
        assert v == pytest.approx(0.25 * float(curve(t)), abs=1e-14)
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


# -- convolution kind against its one-knot-at-a-time reference ----------------


def convolution_loop(step, bandwidth, knots):
    """The convolution smoother knot by knot: each window's jumps weighted by K's CDF."""
    jumps = step.jump_times
    padded = np.concatenate(([step.value_at_zero], step.values))
    deltas = np.diff(padded)
    h = np.minimum(bandwidth, knots)
    out = np.empty(knots.shape)
    for i, (t, ht) in enumerate(zip(knots, h)):
        if ht <= 0.0:
            out[i] = step(t)
            continue
        jlo = np.searchsorted(jumps, t - ht, side="right")
        jhi = np.searchsorted(jumps, t + ht, side="left")
        base = padded[jlo]  # value after all jumps fully below the window
        if jhi > jlo:
            g = epanechnikov_cdf((t - jumps[jlo:jhi]) / ht)
            base = base + float(np.dot(deltas[jlo:jhi], g))
        out[i] = base
    return out


def convolution_loop_rows(jumps, padded, bandwidth, knots, t_max):
    """``convolution_loop`` row by row, on ``_smooth_convolution``'s padded rows."""
    out = np.empty(knots.shape)
    for b, row in enumerate(jumps):
        own = np.isfinite(row)
        step = StepFunction(row[own], padded[b, 1 : 1 + own.sum()], padded[b, 0])
        out[b] = convolution_loop(step, bandwidth[b], knots[b])
    return out


@pytest.mark.parametrize("n, bw", [
    (1_000, None), (10_000, None), (100_000, None), (1_000_000, None),
    # the rounding does not grow as the bandwidth shrinks against the range
    (80_000, 1e-4), (80_000, 0.002), (80_000, 0.005), (80_000, 0.8),
])
def test_convolution_matches_knot_loop(n, bw):
    # a cell of a sample of size n holds at most about n / 4 jumps; the
    # bandwidth is the rule of thumb on them unless given
    rng = stream(12, "test", n)
    jumps = np.unique(rng.uniform(0.0, 3.0, size=n // 4))
    drops = rng.exponential(size=jumps.size)
    step = StepFunction(jumps, 1.0 - 0.8 * np.cumsum(drops) / drops.sum(), 1.0)
    bw = bandwidth_rows(jumps)[0][0] if bw is None else bw
    curve = smooth(step, bw, "convolution", GRID)
    want = convolution_loop(step, bw, np.minimum(GRID, jumps[-1] + bw))
    want = np.minimum.accumulate(np.clip(want, 0.0, 1.0))
    assert np.max(np.abs(curve.values - want)) <= CONVOLUTION_TOL
    assert curve.values[0] == 1.0  # the zero-width window at t = 0


def test_knot_loop_agrees_on_small_steps():
    # the pieces a loop handles one by one: no jumps, a jump on a knot,
    # jumps at the window edges and at t = 0
    steps = [
        StepFunction(np.empty(0), np.empty(0), 0.7),
        StepFunction(np.array([0.0, 1.0]), np.array([0.9, 0.4]), 1.0),
        StepFunction(np.array([0.5, 0.7, 0.9]), np.array([0.8, 0.5, 0.1]), 1.0),
    ]
    for step in steps:
        own = step.jump_times.max(initial=0.0) + 0.2
        want = convolution_loop(step, 0.2, np.minimum(GRID, own))
        got = smooth(step, 0.2, "convolution", GRID).values
        assert np.max(np.abs(got - np.minimum.accumulate(np.clip(want, 0.0, 1.0)))) <= CONVOLUTION_TOL


def expanded_window_sums(x, g, tq, lo, hi):
    """Local-linear's window moments, each binomial expansion written out."""
    powers = [np.ones_like(x), x, x**2, x**3, x**4]
    pm = [np.concatenate(([0.0], np.cumsum(p))) for p in powers]
    pg = [np.concatenate(([0.0], np.cumsum(g * p))) for p in powers[:4]]
    m0, m1, m2, m3, m4 = (p[hi] - p[lo] for p in pm)
    g0, g1, g2, g3 = (p[hi] - p[lo] for p in pg)
    t1, t2, t3, t4 = tq, tq**2, tq**3, tq**4
    d0 = m0
    d1 = m1 - t1 * m0
    d2 = m2 - 2 * t1 * m1 + t2 * m0
    d3 = m3 - 3 * t1 * m2 + 3 * t2 * m1 - t3 * m0
    d4 = m4 - 4 * t1 * m3 + 6 * t2 * m2 - 4 * t3 * m1 + t4 * m0
    e0 = g0
    e1 = g1 - t1 * g0
    e2 = g2 - 2 * t1 * g1 + t2 * g0
    e3 = g3 - 3 * t1 * g2 + 3 * t2 * g1 - t3 * g0
    return [d0, d1, d2, d3, d4], [e0, e1, e2, e3]


def test_window_sums_keep_the_expanded_local_linear_bits():
    rng = stream(13, "test")
    for n in (5, 300, 20_000):
        x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 512), rng.uniform(0.0, 1.0, size=n))))
        g = np.sort(rng.uniform(0.0, 1.0, size=x.size))[::-1]
        h = np.minimum(float(rng.uniform(0.02, 0.2)), GRID / 4.0)
        tq = GRID / 4.0
        lo = np.searchsorted(x, tq - h, side="left")
        hi = np.searchsorted(x, tq + h, side="right")
        d, e = expanded_window_sums(x, g, tq, lo, hi)
        # one row of the block
        got_d, got_e = ([s[0] for s in smoothing._window_sums(x[None], w[None], tq[None], lo[None], hi[None], p)]
                        for w, p in ((np.ones_like(x), 4), (g, 3)))
        assert all(np.array_equal(a, b) for a, b in zip(got_d + got_e, d + e))


def test_convolution_fit_and_band_match_knot_loop(monkeypatch):
    data, _ = generate(DgpSpec(design=2, n=2_000, seed=1))
    kwargs = {"grid": QuantileGrid.default(40), "kind": "convolution"}
    boot = BootstrapConfig(draws=10, seed=0)
    fit = fit_curve(data, **kwargs)
    band = bootstrap_band(data, boot, fit=fit, **kwargs)
    monkeypatch.setattr(smoothing, "_smooth_convolution", convolution_loop_rows)
    ref = fit_curve(data, **kwargs)
    ref_band = bootstrap_band(data, boot, fit=ref, **kwargs)
    assert fit.frontiers.u_hat == ref.frontiers.u_hat
    assert np.array_equal(fit.reported_mask, ref.reported_mask)
    assert np.allclose(fit.theta, ref.theta, rtol=0.0, atol=1e-12, equal_nan=True)
    assert np.array_equal(band.valid, ref_band.valid)
    assert np.array_equal(band.n_reported, ref_band.n_reported)
    for a, b in ((band.lower, ref_band.lower), (band.point, ref_band.point), (band.upper, ref_band.upper)):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12, equal_nan=True)
