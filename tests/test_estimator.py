import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqiv import estimator
from crqiv.bounds import BoundFrontiers, estimate_caps, estimate_y1, outer_set
from crqiv.data import CellIndex, Dataset
from crqiv.estimator import EstimationError, QuantileGrid, fit_curve, fit_replicates, naive_curve
from crqiv.inference import BootstrapConfig, bootstrap_band
from crqiv.optim import CERT_TOL, minimize_box_multistart
from crqiv.simulate import DgpSpec, GroundTruth, generate
from crqiv.smoothing import SmoothedCurve
from crqiv.surface import assemble_surface, residual_vector
from test_replicate_counts import no_structural_zero
from tests._synthetic import surface_on_union_grid

# population pooled-by-treatment quantiles of the cause-1 incidence for
# design 2, from quadrature on the latent model (no censoring binds there)
NAIVE_D2 = {
    0.2: (0.2420735530457537, 0.3636348643962712),
    0.3: (0.37632454847627517, 0.46202116190703957),
}


@pytest.fixture(scope="module")
def d2_fit():
    data, _ = generate(DgpSpec(design=2, n=10_000, seed=3))
    return data, fit_curve(data, grid=QuantileGrid.default(50))


# -- grid ------------------------------------------------------------------


def test_default_grid():
    g = QuantileGrid.default(100)
    assert g.size == 100
    assert g.points[0] == pytest.approx(0.01)
    assert g.points[-1] == 1.0


@pytest.mark.parametrize("pts", [[0.5], [0.2, 0.2], [0.3, 0.1], [0.0, 0.5], [0.5, 1.1]])
def test_grid_validation(pts):
    with pytest.raises(ValueError):
        QuantileGrid(np.asarray(pts))


# -- residuals on the exact population surface ------------------------------


def _system(surface, u):
    """f(theta) = (r, J) at u: the residual the fit certifies and its Jacobian, as Gauss-Newton solves on."""
    return lambda theta: (residual_vector(theta, u, surface), surface.slopes(theta))


@pytest.mark.parametrize("design", [1, 2])
def test_residual_is_zero_at_truth(design):
    truth = GroundTruth(design)
    surf = truth.surface()
    for u in (0.05, 0.2, 0.35, 0.45):
        phi = [truth.phi1(0, u), truth.phi1(1, u)]
        r = residual_vector(phi, u, surf)
        assert np.all(np.abs(r) < 1e-12)


def test_residual_at_origin_equals_u():
    surf = GroundTruth(2).surface()
    for u in (0.1, 0.4, 0.9):
        r = residual_vector([0.0, 0.0], u, surf)
        assert r == pytest.approx([u, u], abs=1e-12)


def test_residual_monotone_in_theta():
    # survival is nonincreasing in t, so each residual coordinate is
    # nonincreasing in every component of theta
    surf = GroundTruth(2).surface()
    base = residual_vector([0.3, 0.2], 0.3, surf)
    for bump in ([0.4, 0.2], [0.3, 0.35], [0.6, 0.5]):
        r = residual_vector(bump, 0.3, surf)
        assert np.all(r <= base + 1e-12)


def test_residual_length_check():
    surf = GroundTruth(1).surface()
    with pytest.raises(ValueError, match="length 2"):
        residual_vector([0.1, 0.2, 0.3], 0.2, surf)


@pytest.mark.parametrize("design", [1, 2])
def test_population_solution_recovered(design):
    # solve the exact-surface system cold (no warm start) and compare
    # against the known structural quantiles
    truth = GroundTruth(design)
    surf = truth.surface()
    hi = [truth.y1[0], truth.y1[1]]
    for u in np.arange(0.05, truth.u_y - 0.02, 0.05):
        res = minimize_box_multistart(_system(surf, float(u)), [0.0, 0.0], hi)
        want = [truth.phi1(0, u), truth.phi1(1, u)]
        assert res.x == pytest.approx(want, abs=1e-2)


def _linear_surface(starts, ends, p_hat):
    """Surface whose cell (l, k) falls linearly from starts[l][k] at 0 to ends[l][k] at 1."""
    curves = {
        CellIndex(l, k): SmoothedCurve(np.array([0.0, 1.0]), np.array([starts[l][k], ends[l][k]]), 0.1, "local_linear")
        for l in range(len(starts))
        for k in range(len(starts[0]))
    }
    return surface_on_union_grid(curves, p_hat)


def fewer_instrument_levels(n=2_000, seed=0):
    """Three treatment levels but two instrument levels (K < L), with cell (2, 0) structurally empty.

    Treatment is exogenous and the cause-1 time at level z is uniform on
    [0, 1 + z/2], so its u-quantile is u (1 + z/2).
    """
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 2, n)
    z = rng.integers(0, 2 + w)  # treatment level 2 only under instrument level 1
    t1, t2, c = rng.uniform(size=(3, n)) * [[1.0], [3.0], [4.0]]
    t1 = t1 * (1 + z / 2)
    event = np.where(c < np.minimum(t1, t2), 0, np.where(t1 <= t2, 1, 2))
    return Dataset(np.minimum(np.minimum(t1, t2), c), event, z, w, ["a", "b", "c"], ["u", "v"],
                   structural_zeros=[(2, 0)])


def test_fewer_instrument_than_treatment_levels_raise_before_assembly(monkeypatch):
    # K equations in L > K unknowns have a continuum of roots: a solver would certify an arbitrary one
    data = fewer_instrument_levels()

    def never(*args, **kwargs):
        raise AssertionError("a surface was built")

    monkeypatch.setattr(estimator, "assemble_surface", never)
    monkeypatch.setattr(estimator, "assemble_surfaces", never)
    for fit in (lambda: fit_curve(data), lambda: fit_replicates(data, np.ones((2, data.n), np.uint8))):
        with pytest.raises(EstimationError, match=r"^K = 2 instrument levels cannot point-identify L = 3 "):
            fit()
    # the treatment-only comparator solves no system
    naive = naive_curve(data, QuantileGrid.default(20))
    assert naive.shape == (20, 3) and np.isfinite(naive[:4]).all()


def test_overidentified_weighted_least_squares_minimum():
    # K=3 > L=2 with affine residuals r = A theta - c: the minimum of
    # r' r over the box is the least-squares solution, which no certificate passes
    starts = [[1.0, 0.9, 0.8], [1.0, 0.7, 0.95]]
    ends = [[0.2, 0.3, 0.1], [0.5, 0.1, 0.4]]
    p_hat = [[0.6, 0.5, 0.3], [0.4, 0.5, 0.7]]
    surf = _linear_surface(starts, ends, p_hat)
    u = 0.4
    p = np.asarray(p_hat)
    A = (p * (np.asarray(ends) - np.asarray(starts))).T
    c = (1.0 - u) - (p * np.asarray(starts)).sum(axis=0)
    want = np.linalg.solve(A.T @ A, A.T @ c)
    assert np.all((want > 0.05) & (want < 0.95))  # interior: the box does not bind
    min_obj = float((A @ want - c) @ (A @ want - c))
    assert np.abs(A @ want - c).max() > CERT_TOL  # no root: the system is overidentified

    res = minimize_box_multistart(_system(surf, u), [0.0, 0.0], [1.0, 1.0], warm=[0.9, 0.1])
    assert res.x == pytest.approx(want, abs=1e-10)
    assert res.fun == pytest.approx(min_obj, rel=1e-10)
    r = residual_vector(res.x, u, surf)
    assert res.fun == pytest.approx(float(r @ r), rel=1e-12)
    assert not res.converged


@st.composite
def planted_root_surfaces(draw):
    """Random decreasing piecewise-linear 2x2 surface with a root planted at theta*.

    The share of cell (1, 0) is capped so that |J00 J11| > |J01 J10| at
    every theta: det J > 0 on the whole box, so by the Gale-Nikaido
    univalence theorem theta* is the system's only root there.
    """
    unit = st.floats(0.05, 0.95)
    curves, steepest, flattest = {}, {}, {}
    for l in range(2):
        for k in range(2):
            inner = sorted(draw(st.sets(st.integers(1, 19), max_size=6)))
            knots = np.array([0.0] + [i / 20 for i in inner] + [1.0])
            drops = np.array(draw(st.lists(unit, min_size=knots.size - 1, max_size=knots.size - 1)))
            top = draw(st.floats(0.5, 1.0))
            values = top - np.concatenate(([0.0], np.cumsum(drops))) * (draw(unit) * top / drops.sum())
            slopes = -np.diff(values) / np.diff(knots)
            curves[CellIndex(l, k)] = SmoothedCurve(knots, values, 0.1, "local_linear")
            steepest[l, k], flattest[l, k] = slopes.max(), slopes.min()
    p_hat = np.array([[draw(unit), draw(unit)], [draw(unit), draw(unit)]])
    dominance = p_hat[0, 0] * p_hat[1, 1] * flattest[0, 0] * flattest[1, 1]
    p_hat[1, 0] = min(p_hat[1, 0], draw(unit) * dominance / (p_hat[0, 1] * steepest[1, 0] * steepest[0, 1]))
    theta_star = np.array([draw(unit), draw(unit)])
    # rescale the k=1 shares so both instrument levels share the level 1 - u
    level = [sum(p_hat[l, k] * float(curves[CellIndex(l, k)](theta_star[l])) for l in range(2)) for k in range(2)]
    p_hat[:, 1] *= level[0] / level[1]
    surf = surface_on_union_grid(curves, p_hat)
    warm = [draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))]
    return surf, 1.0 - level[0], theta_star, warm


@settings(max_examples=150, deadline=None, derandomize=True)
@given(planted_root_surfaces())
def test_random_monotone_surfaces_certify_planted_root(case):
    surf, u, theta_star, warm = case
    assert np.all(np.abs(residual_vector(theta_star, u, surf)) < 1e-12)
    res = minimize_box_multistart(_system(surf, u), [0.0, 0.0], [1.0, 1.0], warm=warm)
    assert res.converged
    assert np.abs(residual_vector(res.x, u, surf)).max() <= CERT_TOL
    assert res.x == pytest.approx(theta_star, abs=1e-4)


@pytest.mark.parametrize(
    "design, n",
    [(1, 4_000), (2, 4_000), ("two-sided", 2_000), ("two-sided", 10_000)],
    ids=["1", "2", "two-sided-2000", "two-sided-10000"],
)
def test_every_reported_point_is_certified(design, n):
    # the residual r at each reported point, recomputed through the
    # surface's vectorized evaluator, is within the certificate, and the
    # fit's objective is its squared norm.  The two-sided data have no
    # triangular order, so they run the Gauss-Newton path
    for seed in range(4):
        if design == "two-sided":
            data = no_structural_zero(n, seed)
        else:
            data, _ = generate(DgpSpec(design=design, n=n, seed=seed))
        surf = assemble_surface(data)
        fit = fit_curve(data, surface=surf)
        assert fit.reported_mask.sum() >= 10
        for m in np.flatnonzero(fit.reported_mask):
            r = residual_vector(fit.theta[m], float(fit.grid.points[m]), surf)
            assert fit.residual[m] <= CERT_TOL
            assert np.abs(r).max() <= CERT_TOL
            assert fit.objective[m] == pytest.approx(r @ r, rel=1e-12, abs=0.0)


def test_solver_residual_is_the_certified_residual(monkeypatch):
    # Gauss-Newton's restart test and fit_curve's certificate read the same
    # bits: the f that grid point m's solve ran on gives, at each reported
    # point, the residual the fit certified there
    systems = []

    def recording(f, *args, **kwargs):
        systems.append(f)
        return minimize_box_multistart(f, *args, **kwargs)

    monkeypatch.setattr(estimator, "minimize_box_multistart", recording)
    for seed in range(2):
        systems.clear()
        fit = fit_curve(no_structural_zero(2_000, seed))
        assert len(systems) == fit.grid.size and fit.reported_mask.sum() >= 10
        for m in np.flatnonzero(fit.reported_mask):
            r, J = systems[m](fit.theta[m])
            assert np.abs(r).max() == fit.residual[m]
            assert J.shape == (2, 2)


def test_design2_seed0_lowest_point_has_no_root():
    # no root lies in the box here: the w = 1 arm would need theta_1 < 0.
    # The best point sits on the theta_1 = 0 face with a residual of order
    # 1e-6: its objective is below 1e-10, so only a residual bound rejects it
    data, _ = generate(DgpSpec(design=2, n=10_000, seed=0))
    fit = fit_curve(data, stop_at_frontier=True)
    assert fit.grid.points[0] == pytest.approx(0.01)
    assert not fit.converged[0] and not fit.reported_mask[0]
    assert 1e-7 < fit.residual[0] < 1e-5
    assert fit.objective[0] <= 1e-10
    assert fit.theta[0] == pytest.approx([0.019, 0.0], abs=1e-3)
    assert fit.converged[1:10].all()
    assert any(w.startswith("no certified root (residual > 1e-12) at u = 0.01 (") for w in fit.warnings), fit.warnings


def test_uncertified_points_named_in_warning():
    # at n=4000 this draw has no exact root at a few low quantile levels
    data, _ = generate(DgpSpec(design=2, n=4_000, seed=5))
    fit = fit_curve(data, stop_at_frontier=True)
    before = np.arange(fit.grid.size) < fit.frontiers.m_hat
    missed = before & ~fit.converged
    assert missed.any()
    assert not fit.reported_mask[missed].any()
    assert np.all(fit.residual[missed] > CERT_TOL)
    us = ", ".join(f"{u:g}" for u in fit.grid.points[missed])
    want = f"no certified root (residual > 1e-12) at u = {us} (largest residual {fit.residual[missed].max():.3g})"
    assert any(w.startswith(want) for w in fit.warnings), fit.warnings


# -- support bounds ---------------------------------------------------------


def test_estimate_y1_takes_max_event_time():
    d = Dataset(
        (0.2, 0.9, 0.5, 1.4, 0.8, 0.6, 0.2, 0.4),
        (1, 1, 2, 0, 1, 1, 0, 2),
        (0, 0, 0, 0, 1, 1, 1, 1),
        (0, 1, 0, 1, 0, 1, 0, 1),
        [0, 1],
        [0, 1],
    )
    assert estimate_y1(d) == pytest.approx([0.9, 0.8])
    assert estimate_caps(d) == pytest.approx([1.4, 0.8])


def test_estimate_y1_errors_name_the_level():
    d = Dataset(
        (0.2, 0.9, 0.5, 1.4),
        (1, 1, 2, 0),
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        ["ctrl", "treat"],
        [0, 1],
    )
    with pytest.raises(EstimationError, match="'treat'"):
        estimate_y1(d)


def test_default_delta_positive(d2_fit):
    _, fit = d2_fit
    assert fit.frontiers.delta.shape == (2,)
    assert (fit.frontiers.delta > 0).all()


def test_delta_validation(d2_fit):
    data, _ = d2_fit
    with pytest.raises(ValueError, match="positive"):
        fit_curve(data, grid=QuantileGrid.default(5), delta=-0.1)
    with pytest.raises(ValueError, match="positive"):
        fit_curve(data, grid=QuantileGrid.default(5), delta=[0.1, 0.2, 0.3])


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, [0.1, math.nan], [math.inf, 0.1]])
def test_non_finite_delta_is_rejected(d2_fit, delta):
    # NaN would report a NaN cushion and no frontier, inf would put the frontier at the first point
    data, fit = d2_fit
    with pytest.raises(ValueError, match="positive"):
        fit_curve(data, grid=QuantileGrid.default(5), delta=delta)
    with pytest.raises(ValueError, match="positive"):
        bootstrap_band(data, BootstrapConfig(draws=2, seed=0), fit=fit, delta=delta)


# -- full curve fits ---------------------------------------------------------


def test_fit_respects_box_and_reporting(d2_fit):
    data, fit = d2_fit
    y1 = estimate_y1(data)
    assert fit.theta.shape == (50, 2)
    assert np.all(fit.theta >= 0)
    assert np.all(fit.theta < y1[None, :])
    # reported points precede the frontier and converged
    m_hat = fit.frontiers.m_hat
    if fit.frontiers.triggered:
        assert not fit.reported_mask[m_hat:].any()
        assert fit.reported_mask[:m_hat].sum() == fit.converged[:m_hat].sum()
    assert fit.frontiers.u_hat == fit.grid.points[m_hat]


def test_fit_accurate_at_low_quantiles(d2_fit):
    _, fit = d2_fit
    truth = GroundTruth(2)
    for m, u in enumerate(fit.grid.points):
        if u > 0.4 or not fit.reported_mask[m]:
            continue
        assert fit.theta[m, 0] == pytest.approx(truth.phi1(0, u), abs=0.05)
        assert fit.theta[m, 1] == pytest.approx(truth.phi1(1, u), abs=0.05)
    # QTE equals -u in both designs
    qte = fit.qte()
    for m, u in enumerate(fit.grid.points):
        if u <= 0.4 and fit.reported_mask[m]:
            assert qte[m] == pytest.approx(-u, abs=0.06)


def test_qte_masks_unreported(d2_fit):
    _, fit = d2_fit
    masked = fit.qte()
    assert np.isnan(masked[~fit.reported_mask]).all()
    raw = fit.theta[:, 1] - fit.theta[:, 0]
    assert np.isfinite(raw).all()
    assert masked[fit.reported_mask].tolist() == raw[fit.reported_mask].tolist()
    assert fit.qte(level=0, baseline=1) == pytest.approx(-masked, nan_ok=True)


def test_stop_at_frontier_prefix_equal(d2_fit):
    data, full = d2_fit
    early = fit_curve(data, grid=QuantileGrid.default(50), stop_at_frontier=True)
    m = early.frontiers.m_hat
    assert early.frontiers.triggered
    assert early.frontiers.u_hat == full.frontiers.u_hat
    assert np.array_equal(early.theta[: m + 1], full.theta[: m + 1])
    assert np.isnan(early.theta[m + 1 :]).all()


def test_fit_deterministic(d2_fit):
    data, fit = d2_fit
    again = fit_curve(data, grid=QuantileGrid.default(50))
    assert np.array_equal(fit.theta, again.theta)
    assert np.array_equal(fit.reported_mask, again.reported_mask)


def test_frontier_near_truth(d2_fit):
    _, fit = d2_fit
    # design 2: identification ends at u = 0.5
    assert 0.36 <= fit.frontiers.u_hat <= 0.5


def test_no_trigger_warning():
    # a grid confined well below the frontier never hits the cushion
    data, _ = generate(DgpSpec(design=2, n=4_000, seed=5))
    fit = fit_curve(data, grid=QuantileGrid(np.array([0.05, 0.1, 0.15, 0.2])))
    assert not fit.frontiers.triggered
    assert fit.frontiers.u_hat == 0.2
    assert any("frontier" in w for w in fit.warnings)


def test_fits_compare_by_identity_and_hash(d2_fit):
    # array fields have no truth value, so == between two fits of the same
    # data means identity rather than raising, and each object hashes
    data, a = d2_fit
    b = fit_curve(data, grid=QuantileGrid.default(50))
    assert np.array_equal(a.theta, b.theta, equal_nan=True)
    for x, y in ((a, b), (a.surface, b.surface), (a.frontiers, b.frontiers), (a.grid, b.grid)):
        assert x == x and not x == y and x != y
        assert len({x, y, x}) == 2


def test_to_dict_is_json_ready(d2_fit):
    _, fit = d2_fit
    d = fit.to_dict()
    s = json.dumps(d)
    back = json.loads(s)
    assert back["u_hat"] == fit.frontiers.u_hat
    assert len(back["theta"]) == fit.grid.size
    assert back["treatment_levels"] == ["0", "1"]
    assert back["status"] == fit.status.tolist()


# -- the fitted surface -------------------------------------------------------


def test_fit_keeps_the_surface_it_was_given(d2_fit):
    data, fit = d2_fit
    surface = assemble_surface(data)
    given = fit_curve(data, grid=fit.grid, surface=surface)
    assert given.surface is surface
    assert given.to_dict() == fit.to_dict()
    assert "surface" not in repr(given)


def test_fit_keeps_the_surface_it_built(d2_fit, monkeypatch):
    import crqiv.estimator

    data, _ = d2_fit
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble_surface(*args, **kwargs)

    monkeypatch.setattr(crqiv.estimator, "assemble_surface", counted)
    fit = fit_curve(data, grid=QuantileGrid.default(25), kind="convolution")
    assert len(calls) == 1
    assert np.array_equal(fit.surface.values, assemble_surface(data, kind="convolution").values)
    assert "surface" not in fit.to_dict()


def test_outer_set_on_the_fitted_surface(d2_fit):
    data, fit = d2_fit
    frontiers = BoundFrontiers.from_data(data, fit.frontiers.u_hat)
    got = outer_set(0.9, fit.surface, frontiers)
    assert got.to_dict() == outer_set(0.9, assemble_surface(data), frontiers).to_dict()
    assert got.case in ("i", "ii", "iii", "iv")
    assert got.pieces
    with pytest.raises(ValueError, match="point-identified"):
        outer_set(0.01, fit.surface, frontiers)


# -- treatment-only benchmark ------------------------------------------------


def test_naive_uncensored_is_order_statistic():
    y = np.array([0.1, 0.7, 0.4, 0.9, 0.2, 0.55, 0.35, 0.8])
    d = Dataset(
        np.concatenate([y, y + 0.01]),
        np.ones(16, dtype=np.int64),
        np.repeat([0, 1], 8),
        np.tile([0, 1], 8),
        [0, 1],
        [0, 1],
    )
    got = naive_curve(d, QuantileGrid(np.array([0.25, 0.5, 1.0])))
    ys = np.sort(y)
    assert got[:, 0] == pytest.approx([ys[1], ys[3], ys[7]])
    assert got[:, 1] == pytest.approx([ys[1] + 0.01, ys[3] + 0.01, ys[7] + 0.01])


def test_naive_infinite_past_attained_incidence():
    # every record censored: no incidence at all, sentinel everywhere
    d = Dataset(
        (0.5, 0.6, 0.7, 0.8),
        (0, 0, 0, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        [0, 1],
        [0, 1],
    )
    got = naive_curve(d, QuantileGrid(np.array([0.1, 0.9])))
    assert np.isinf(got).all()


def test_naive_population_values_design2():
    data, _ = generate(DgpSpec(design=2, n=200_000, seed=11))
    grid = QuantileGrid(np.array([0.2, 0.3]))
    got = naive_curve(data, grid)
    for i, u in enumerate(grid.points):
        want = NAIVE_D2[float(u)]
        assert got[i, 0] == pytest.approx(want[0], abs=0.01)
        assert got[i, 1] == pytest.approx(want[1], abs=0.01)
