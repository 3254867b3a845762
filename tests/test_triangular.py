"""The exact path of ``fit_curve`` for triangular instrumental systems.

With a structural zero such as one-sided noncompliance's cell (1, 0), the
system solves one unknown per equation: each is a generalized inverse of
one cell curve, taken over the whole quantile grid at once.  Gauss-Newton
stays for every other system, and serves here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crqiv.estimator as estimator
from crqiv.data import CellIndex, Dataset
from crqiv.estimator import NO_ROOT, QuantileGrid, fit_curve, residual_vector
from crqiv.inference import BootstrapConfig, bootstrap_band
from crqiv.optim import CERT_TOL
from crqiv.simulate import DgpSpec, generate
from crqiv.smoothing import SmoothedCurve
from crqiv.surface import assemble_surface
from tests._synthetic import surface_on_union_grid


def unit_support_data(L, zeros):
    """One primary-cause event at t = 1 in every open cell, so y1_hat = 1 per level."""
    cells = [(z, w) for z in range(L) for w in range(L) if (z, w) not in zeros]
    z, w = zip(*cells)
    n = len(cells)
    return Dataset(np.ones(n), np.ones(n, dtype=np.int64), z, w, list(range(L)), list(range(L)), zeros)


def fit_at(u, surface, zeros):
    """Fit on the grid (u, u + 0.05) with y1_hat = 1 and a cushion of 1e-3."""
    data = unit_support_data(surface.n_treatment_levels, zeros)
    return fit_curve(data, grid=QuantileGrid(np.array([u, u + 0.05])), delta=1e-3, surface=surface)


def gauss_newton_only(monkeypatch):
    """Force every fit through the Gauss-Newton sweep."""
    monkeypatch.setattr(estimator, "_triangular_order", lambda p_hat: None)


def no_solver(monkeypatch):
    """Make any call of the Gauss-Newton solver fail the test."""

    def fail(*args, **kwargs):
        raise AssertionError("minimize_box_multistart called on a triangular system")

    monkeypatch.setattr(estimator, "minimize_box_multistart", fail)


LOWER_2 = frozenset({(1, 0)})
UPPER_2 = frozenset({(0, 1)})
LOWER_3 = frozenset((l, k) for l in range(3) for k in range(3) if l > k)
# a 3x3 triangular pattern under a permutation of both level orders
PERMUTED_3 = frozenset({(0, 1), (0, 2), (2, 1)})


@st.composite
def planted_triangular_surfaces(draw, L, zeros):
    """Random strictly decreasing piecewise-linear cells, zero on ``zeros``, with a root planted at theta*.

    Each instrument level's shares are rescaled so every equation holds at
    theta* for the same drawn level 1 - u.
    """
    unit = st.floats(0.05, 0.95)
    curves = {}
    for z in range(L):
        for w in range(L):
            if (z, w) in zeros:
                continue
            inner = sorted(draw(st.sets(st.integers(1, 19), max_size=6)))
            knots = np.array([0.0] + [i / 20 for i in inner] + [1.0])
            drops = np.array(draw(st.lists(unit, min_size=knots.size - 1, max_size=knots.size - 1)))
            top = draw(st.floats(0.5, 1.0))
            values = top - np.concatenate(([0.0], np.cumsum(drops))) * (draw(unit) * top / drops.sum())
            curves[CellIndex(z, w)] = SmoothedCurve(knots, values, 0.1, "local_linear")
    p_hat = np.zeros((L, L))
    for cell in curves:
        p_hat[cell] = draw(unit)
    theta_star = np.array([draw(unit) for _ in range(L)])
    level = draw(st.floats(0.1, 0.9))
    for w in range(L):
        at_root = sum(p_hat[z, w] * float(curves[CellIndex(z, w)](theta_star[z])) for z in range(L) if (z, w) in curves)
        p_hat[:, w] *= level / at_root
    return surface_on_union_grid(curves, p_hat), 1.0 - level, theta_star


@pytest.mark.parametrize(
    "L, zeros", [(2, LOWER_2), (2, UPPER_2), (3, LOWER_3), (3, PERMUTED_3)], ids=["z1w0", "z0w1", "lower3", "permuted3"]
)
def test_planted_root_found_exactly(L, zeros):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(planted_triangular_surfaces(L, zeros))
    def check(case):
        surface, u, theta_star = case
        assert np.abs(residual_vector(theta_star, u, surface)).max() <= 1e-12
        with pytest.MonkeyPatch.context() as mp:
            no_solver(mp)
            fit = fit_at(u, surface, zeros)
        assert fit.reported_mask[0]
        assert np.abs(residual_vector(fit.theta[0], u, surface)).max() <= 1e-12
        assert fit.residual[0] <= CERT_TOL
        # strictly decreasing cells: the planted root is the only one
        assert fit.theta[0] == pytest.approx(theta_star, abs=1e-9)

    check()


def flat_stretch_surface():
    """Cell (0, 0) falls from 1 to 0.6 on [0, 0.3], is flat to 0.5, then falls to 0.2 at 1."""
    c00 = SmoothedCurve(np.array([0.0, 0.3, 0.5, 1.0]), np.array([1.0, 0.6, 0.6, 0.2]), 0.1, "local_linear")
    c01 = SmoothedCurve(np.array([0.0, 1.0]), np.array([0.9, 0.1]), 0.1, "local_linear")
    c11 = SmoothedCurve(np.array([0.0, 1.0]), np.array([1.0, 0.2]), 0.1, "local_linear")
    p_hat = np.array([[1.0, 0.5], [0.0, 0.5]])
    return surface_on_union_grid({CellIndex(0, 0): c00, CellIndex(0, 1): c01, CellIndex(1, 1): c11}, p_hat)


def test_flat_stretch_at_target_returns_left_end(monkeypatch):
    # at u = 0.4 cell (0, 0) equals 1 - u on all of [0.3, 0.5]: every theta_0
    # there is a root, and the exact path reports the left end
    surface = flat_stretch_surface()
    no_solver(monkeypatch)
    fit = fit_at(0.4, surface, LOWER_2)
    assert fit.reported_mask[0]
    assert fit.theta[0, 0] == 0.3
    assert np.abs(residual_vector(fit.theta[0], 0.4, surface)).max() <= 1e-12


def test_flat_start_at_target_returns_zero(monkeypatch):
    # a target equal to the cell's value at 0, on a stretch flat from 0
    c00 = SmoothedCurve(np.array([0.0, 0.2, 1.0]), np.array([0.75, 0.75, 0.25]), 0.1, "local_linear")
    c01 = SmoothedCurve(np.array([0.0, 1.0]), np.array([1.0, 0.5]), 0.1, "local_linear")
    c11 = SmoothedCurve(np.array([0.0, 1.0]), np.array([1.0, 0.25]), 0.1, "local_linear")
    p_hat = np.array([[1.0, 0.5], [0.0, 0.5]])
    surface = surface_on_union_grid({CellIndex(0, 0): c00, CellIndex(0, 1): c01, CellIndex(1, 1): c11}, p_hat)
    no_solver(monkeypatch)
    fit = fit_at(0.25, surface, LOWER_2)
    assert fit.reported_mask[0]
    assert fit.theta[0, 0] == 0.0


def test_root_past_box_named_in_warning():
    # y1_hat = 1 but cell (0, 0) stays above 1 - u = 0.15 up to t = 1, and a
    # cushion below the box clamp keeps the points below the frontier
    surface = flat_stretch_surface()
    data = unit_support_data(2, LOWER_2)
    fit = fit_curve(data, grid=QuantileGrid(np.array([0.85, 0.9])), delta=1e-12, surface=surface)
    assert not fit.frontiers.triggered
    assert not fit.reported_mask.any()
    assert fit.status.tolist() == [NO_ROOT + 1] * 2  # k = 0, l = 0, above
    assert "no root in the box at u = 0.85, 0.9: instrument level 0 needs treatment level 0 above 1" in fit.warnings


def test_solver_never_called_on_design_fit(monkeypatch):
    no_solver(monkeypatch)
    for design in (1, 2):
        data, _ = generate(DgpSpec(design=design, n=2_000, seed=0))
        fit = fit_curve(data)
        assert fit.reported_mask.sum() >= 10


def test_solver_still_called_on_non_triangular_surface(monkeypatch):
    # every cell open: no equation has a single unknown, so Gauss-Newton runs
    curves = {
        CellIndex(l, k): SmoothedCurve(np.array([0.0, 1.0]), np.array([1.0, 0.2 + 0.1 * (l + k)]), 0.1, "local_linear")
        for l in range(2)
        for k in range(2)
    }
    surface = surface_on_union_grid(curves, np.array([[0.7, 0.4], [0.3, 0.6]]))
    calls = []
    real = estimator.minimize_box_multistart

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimator, "minimize_box_multistart", counted)
    fit = fit_at(0.2, surface, frozenset())
    assert len(calls) == 2
    assert fit.converged[0]


@pytest.mark.parametrize("n", [2_000, 10_000])
@pytest.mark.parametrize("design", [1, 2])
def test_exact_path_matches_gauss_newton_where_both_certify(design, n):
    for seed in range(3):
        data, _ = generate(DgpSpec(design=design, n=n, seed=seed))
        surface = assemble_surface(data)
        exact = fit_curve(data, surface=surface)
        with pytest.MonkeyPatch.context() as mp:
            gauss_newton_only(mp)
            gn = fit_curve(data, surface=surface)
        assert exact.frontiers.m_hat == gn.frontiers.m_hat
        # the exact path loses no point that Gauss-Newton reports
        assert not (gn.reported_mask & ~exact.reported_mask).any()
        both = exact.converged & gn.converged
        assert both.sum() >= 10
        assert np.abs(exact.theta[both] - gn.theta[both]).max() <= 1e-12


def test_design1_seed1_lowest_root_found():
    # Gauss-Newton stalls on the theta_1 = 0 face here (residual 7.2e-4
    # after every restart) although an interior root exists
    data, _ = generate(DgpSpec(design=1, n=2_000, seed=1))
    surface = assemble_surface(data)
    fit = fit_curve(data, stop_at_frontier=True, surface=surface)
    assert fit.grid.points[0] == pytest.approx(0.01)
    assert fit.reported_mask[0]
    assert np.abs(residual_vector(fit.theta[0], 0.01, surface)).max() <= 1e-12
    assert fit.theta[0] == pytest.approx([0.01599, 0.00581], abs=1e-5)


def test_design2_seed0_no_root_reason_named():
    # the w = 1 arm would need theta_1 < 0 at u = 0.01
    data, _ = generate(DgpSpec(design=2, n=10_000, seed=0))
    fit = fit_curve(data, stop_at_frontier=True)
    assert not fit.reported_mask[0]
    assert fit.theta[0, 1] == 0.0
    assert fit.status[0] == NO_ROOT + 2 * (1 * 2 + 1)  # k = 1, l = 1, below
    assert "no root in the box at u = 0.01: instrument level 1 needs treatment level 1 below 0" in fit.warnings


@pytest.mark.parametrize("seed", range(3))
def test_bootstrap_band_matches_gauss_newton(seed):
    # the bench's estimate_boot settings: design 2, n = 1e4, 100 grid
    # points, 40 draws, bootstrap seed 1
    data, _ = generate(DgpSpec(design=2, n=10_000, seed=seed))
    grid = QuantileGrid.default(100)
    boot = BootstrapConfig(draws=40, seed=1)
    exact = bootstrap_band(data, boot, grid=grid)
    with pytest.MonkeyPatch.context() as mp:
        gauss_newton_only(mp)
        gn = bootstrap_band(data, boot, grid=grid)
    assert np.array_equal(exact.n_reported, gn.n_reported)
    assert np.array_equal(exact.valid, gn.valid)
    assert exact.n_failed_replicates == gn.n_failed_replicates == 0
    for a, b in ((exact.point, gn.point), (exact.lower, gn.lower), (exact.upper, gn.upper)):
        assert np.array_equal(np.isnan(a), np.isnan(b))
        ok = ~np.isnan(a)
        assert ok.sum() >= 20
        assert np.abs(a - b)[ok].max() <= 1e-12
