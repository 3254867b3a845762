import numpy as np
import pytest

from crqiv.data import CellIndex, Dataset
from crqiv.estimator import fit_curve
from crqiv.optim import CERT_TOL
from crqiv.simulate import DgpSpec, generate
from crqiv.surface import GRID_POINTS, assemble_surface

# design-2 subdistribution survival at t = 0.3 given w = 1, from the
# closed-form latent model (quadrature, independent of this package)
S1_D2_W1expected = {0: 0.15751417065760134, 1: 0.6233718796134429}


@pytest.fixture(scope="module")
def d2_surface():
    data, _ = generate(DgpSpec(design=2, n=10_000, seed=7))
    return assemble_surface(data)


def small_data():
    y = np.array([0.5, 1.0, 1.5, 2.0, 0.7, 1.2, 0.9, 1.8])
    e = np.array([1, 2, 1, 0, 1, 1, 2, 1])
    z = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    w = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    return Dataset(y, e, z, w, [0, 1], [0, 1])


def test_shares_sum_to_one_at_origin(d2_surface):
    for w in (0, 1):
        total = sum(float(d2_surface.evaluate(0.0, z, w)) for z in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(d2_surface.p_hat.sum(axis=0), 1.0, atol=1e-12)


def test_surface_bounded_by_cell_share(d2_surface):
    ts = np.linspace(0, 3, 50)
    for z in (0, 1):
        for w in (0, 1):
            vals = d2_surface.evaluate(ts, z, w)
            assert np.all(vals >= 0)
            assert np.all(vals <= d2_surface.p_hat[z, w] + 1e-12)
            assert np.all(np.diff(vals) <= 1e-12)


def test_design2_values_near_population(d2_surface):
    for z, want in S1_D2_W1expected.items():
        got = float(d2_surface.evaluate(0.3, z, 1))
        assert got == pytest.approx(want, abs=0.02)


def test_cell_eval_matches_evaluate(d2_surface):
    ts = (0.0, 0.17, 0.3, 1.0, 5.0)
    # one batched call: theta row i puts t_i on level 0 and t_{i+1} on level 1
    theta = np.array([ts, ts[1:] + ts[:1]]).T
    slopes = d2_surface.slopes(theta)
    assert slopes.shape == (len(ts), 2, 2)
    for z in (0, 1):
        for w in (0, 1):
            for i, t in enumerate(theta[:, z]):
                s = slopes[i, w, z]
                # slopes belong to segments closed on the right, the first closed on both ends
                a, b = (t, t + 1e-9) if t == 0.0 else (t - 1e-9, t)
                fd = (float(d2_surface.evaluate(b, z, w)) - float(d2_surface.evaluate(a, z, w))) / (b - a)
                assert s == pytest.approx(fd, abs=1e-5)
                assert np.array_equal(d2_surface.slopes(theta[i])[w, z], s)


def test_structural_zero_cell_is_identically_zero():
    y = np.array([0.5, 1.0, 0.7, 1.2, 0.9, 1.8])
    e = np.array([1, 2, 1, 1, 2, 1])
    z = np.array([0, 0, 0, 0, 1, 1])
    w = np.array([0, 0, 1, 1, 1, 1])
    data = Dataset(y, e, z, w, [0, 1], [0, 1], structural_zeros=[(1, 0)])
    surf = assemble_surface(data, bandwidth=0.3)
    assert CellIndex(1, 0) not in surf.bandwidths
    assert np.all(surf.values[1, 0] == 0.0)  # zero on the whole grid
    assert np.all(surf.evaluate(np.linspace(0, 2, 9), 1, 0) == 0.0)
    assert surf.evaluate(0.4, 1, 0) == 0.0
    assert np.all(surf.slopes([[0.4, 0.4], [0.0, 0.9]])[:, 0, 1] == 0.0)
    # the reachable cell carries the whole share for that instrument level
    assert surf.p_hat[0, 0] == 1.0
    assert surf.p_hat[1, 0] == 0.0


def test_level_knots_are_the_grid(d2_surface):
    kn = d2_surface.level_knots(0)
    assert kn is d2_surface.grid and d2_surface.level_knots(1) is kn
    assert kn.size == GRID_POINTS and kn[0] == 0.0
    assert np.all(np.diff(kn) > 0)


def test_bandwidth_policies():
    data = small_data()
    scalar = assemble_surface(data, bandwidth=0.4)
    assert all(bw == 0.4 for bw in scalar.bandwidths.values())

    auto = assemble_surface(data)
    assert all(bw > 0 for bw in auto.bandwidths.values())


def test_kind_forwarded_and_validated():
    data = small_data()
    conv = assemble_surface(data, bandwidth=0.3, kind="convolution")
    assert conv.kind == "convolution"
    assert not np.array_equal(conv.values, assemble_surface(data, bandwidth=0.3).values)
    with pytest.raises(ValueError, match="kind"):
        assemble_surface(data, bandwidth=0.3, kind="nope")


def test_level_shape_properties(d2_surface):
    assert d2_surface.n_treatment_levels == 2
    assert d2_surface.n_instrument_levels == 2
    assert d2_surface.treatment_levels == [0, 1]
    assert d2_surface.instrument_levels == [0, 1]


# -- the shared grid on edge inputs ----------------------------------------


@pytest.mark.parametrize("n", [2_000, 100_000])
def test_grid_size_does_not_grow_with_n(n):
    data, _ = generate(DgpSpec(design=1, n=n, seed=2))
    surf = assemble_surface(data)
    assert surf.grid.shape == (GRID_POINTS,)
    assert surf.values.shape == (2, 2, GRID_POINTS)
    # the grid ends where the last cell finishes: last cause-1 jump + bandwidth
    ends = [
        data.y[(data.z == cell.z) & (data.w == cell.w) & (data.event == 1)].max() + bw
        for cell, bw in surf.bandwidths.items()
    ]
    assert surf.grid[-1] == max(ends)


@pytest.mark.parametrize("kind", ["local_linear", "convolution"])
def test_cell_without_primary_events_is_flat_at_its_share(kind):
    y = np.array([0.5, 1.0, 1.5, 2.0, 0.7, 1.2, 0.9, 1.8, 1.1])
    e = np.array([1, 2, 1, 0, 1, 1, 2, 0, 2])  # cell (1, 1): no cause-1 events
    z = np.array([0, 0, 1, 1, 0, 0, 1, 1, 1])
    w = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1])
    surf = assemble_surface(Dataset(y, e, z, w, [0, 1], [0, 1]), bandwidth=0.3, kind=kind)
    assert surf.p_hat[1, 1] == 0.6
    assert np.all(surf.values[1, 1] == 0.6)
    assert np.all(surf.evaluate(np.linspace(0.0, 2.0 * surf.grid[-1], 50), 1, 1) == 0.6)


def test_zero_times_and_heavy_ties_fit_and_name_what_they_miss():
    data, _ = generate(DgpSpec(design=2, n=2_000, seed=3))
    y, e = data.y.copy(), data.event.copy()
    y[:40] = 0.0  # zero follow-up, events of every kind
    tied = np.arange(100, 900)
    y[tied], e[tied] = np.median(data.y), 0  # 40% censored at one time
    edge = Dataset(y, e, data.z, data.w, data.treatment_levels, data.instrument_levels,
                   structural_zeros=data.structural_zeros)
    fit = fit_curve(edge, stop_at_frontier=True)
    assert fit.reported_mask.sum() >= 20
    assert np.all(fit.residual[fit.reported_mask] <= CERT_TOL)
    assert np.all(fit.theta[fit.reported_mask] >= 0.0)
    # the lowest levels have no root in the box on this input
    missed = (np.arange(fit.grid.size) < fit.frontiers.m_hat) & ~fit.reported_mask
    assert missed.any()
    us = ", ".join(f"{u:g}" for u in fit.grid.points[missed])
    assert any(w.startswith(f"no certified root (residual > 1e-12) at u = {us} (") for w in fit.warnings)
