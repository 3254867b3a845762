"""The shared 601-point surface grid against per-curve jump-merged grids.

The reference, ``jump_merged_surface``, smooths each cell onto a grid of
its own: 601 uniform points from 0 to the cell's last primary-cause jump
plus its bandwidth, merged with every jump time, so its knot count grows
with n.  The smoother's value at a point does not depend on the other
knots, and the union of the cells' grids holds each piecewise-linear curve
exactly, so this is the surface on jump-merged grids to rounding.  The shared grid moves the surface, the
reported quantiles and the bootstrap band by at most the tolerances below,
and leaves the reported set and u_hat as they were.
"""

import numpy as np
import pytest

from crqiv.estimator import QuantileGrid, fit_curve
from crqiv.inference import BootstrapConfig
from crqiv.simulate import DgpSpec, generate
from crqiv.smoothing import smooth
from crqiv.surface import assemble_surface
from crqiv.survival import aalen_johansen_cause1, build_counting_processes
from tests._reference_band import reference_band
from tests._synthetic import surface_on_union_grid

SURFACE_TOL = 5e-4  # S1_hat(t, z | w) at every knot of either grid
THETA_TOL = 2e-4  # reported quantiles
BAND_TOL = 1e-4  # band endpoints and point estimate, u > 0.05
LOW_U_BAND_TOL = 1e-3  # the same at u <= 0.05
LOW_U_COUNT_TOL = 2  # replicates reporting a point at u <= 0.05, of 40


def jump_merged_surface(data, kind):
    """The surface on per-cell grids of 601 uniform points merged with every jump time."""
    cp = build_counting_processes(data)
    shared = assemble_surface(data, kind=kind)  # same shares and bandwidths
    curves = {}
    for cell, bw in shared.bandwidths.items():
        step = aalen_johansen_cause1(cp, cell)
        own = (step.jump_times[-1] if step.jump_times.size else 0.0) + bw
        knots = np.unique(np.concatenate((np.linspace(0.0, own, 601), step.jump_times)))
        curves[cell] = smooth(step, bw, kind, knots)
    return surface_on_union_grid(curves, shared.p_hat, kind)


@pytest.mark.parametrize("kind", ["local_linear", "convolution"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("design", [1, 2])
def test_shared_grid_within_tolerance_of_jump_merged(design, seed, kind):
    data, _ = generate(DgpSpec(design=design, n=10_000, seed=seed))
    new = assemble_surface(data, kind=kind)
    ref = jump_merged_surface(data, kind)
    ts = np.union1d(new.grid, ref.grid)
    for z, w in np.ndindex(new.p_hat.shape):
        assert np.abs(new.evaluate(ts, z, w) - ref.evaluate(ts, z, w)).max() <= SURFACE_TOL
    got = fit_curve(data, stop_at_frontier=True, surface=new)
    want = fit_curve(data, stop_at_frontier=True, surface=ref)
    assert np.array_equal(got.reported_mask, want.reported_mask)
    assert got.frontiers.u_hat == want.frontiers.u_hat
    rep = got.reported_mask
    assert rep.sum() >= 20
    assert np.abs(got.theta[rep] - want.theta[rep]).max() <= THETA_TOL


@pytest.mark.parametrize("seed", range(3))
def test_bootstrap_band_within_tolerance_of_jump_merged(seed):
    # the bench's estimate_boot settings: design 2, n = 1e4, 100 grid
    # points, 40 draws, bootstrap seed 1, on its three input sets.  At
    # u <= 0.05 a replicate's theta_1 sits in the grid's first segments,
    # where the boundary-shrunk smoother follows the raw step and the
    # shared grid interpolates across it; there the band moves by up to
    # LOW_U_BAND_TOL, and at u = 0.01 a few replicates can switch between
    # a root and a near-root on the theta_1 = 0 face
    data, _ = generate(DgpSpec(design=2, n=10_000, seed=seed))
    grid = QuantileGrid.default(100)
    boot = BootstrapConfig(draws=40, seed=1)

    def fit_on(make_surface):
        return lambda d, **kw: fit_curve(d, surface=make_surface(d), stop_at_frontier=True, **kw)

    got, want = (
        reference_band(data, boot, fit_fn=fit_on(make), grid=grid)
        for make in (assemble_surface, lambda d: jump_merged_surface(d, "local_linear"))
    )
    low = grid.points <= 0.05
    assert np.array_equal(got.n_reported[~low], want.n_reported[~low])
    assert np.abs(got.n_reported[low] - want.n_reported[low]).max() <= LOW_U_COUNT_TOL
    assert np.array_equal(got.valid, want.valid)
    assert got.n_failed_replicates == want.n_failed_replicates == 0
    for a, b in ((got.point, want.point), (got.lower, want.lower), (got.upper, want.upper)):
        assert np.array_equal(np.isnan(a), np.isnan(b))
        ok = ~np.isnan(a)
        assert (ok & ~low).sum() >= 20
        assert np.abs(a - b)[ok & ~low].max() <= BAND_TOL
        assert np.abs(a - b)[ok & low].max() <= LOW_U_BAND_TOL
