"""Synthetic step surfaces for exact outer-set membership checks.

A StepSurface is a right-continuous piecewise-constant joint subsurvival
surface: per cell (z, w) the value starts at a cell share, drops at a few
knots, and is flat from the last knot (placed at the level's support
bound) onward. Piecewise-constant inputs make the outer-set construction
exact away from bisection brackets, so constructed-set membership can be
compared to direct verification on a lattice with no statistical slack.

``surface_on_union_grid`` puts piecewise-linear cell curves with knots of
their own onto one estimated-surface grid.
"""

import numpy as np

from crqiv.bounds import BISECT_RTOL, BoundFrontiers, outer_set, verify_membership
from crqiv.surface import SmoothedSurvivalSurface


class StepSurface:
    def __init__(self, knots, values, starts, L, K):
        self.knots = knots  # (z, w) -> ascending knot locations
        self.values = values  # (z, w) -> value on [knot_i, knot_{i+1})
        self.starts = starts  # (z, w) -> value on [0, knot_0)
        self._L = L
        self._K = K

    @property
    def n_treatment_levels(self):
        return self._L

    @property
    def n_instrument_levels(self):
        return self._K

    def evaluate(self, t, z, w):
        ks = self.knots[(z, w)]
        vs = self.values[(z, w)]
        tt = np.atleast_1d(np.asarray(t, dtype=np.float64))
        idx = np.searchsorted(ks, tt, side="right") - 1
        out = np.where(idx < 0, self.starts[(z, w)], vs[np.clip(idx, 0, vs.size - 1)])
        return out if np.ndim(t) else float(out[0])

    def level_knots(self, z):
        return np.unique(np.concatenate([self.knots[(z, w)] for w in range(self._K)]))


def random_step_surface(rng, L=2, K=2):
    """Random valid surface; returns (surface, y1, caps).

    Cell start values sum to 1 over z within each w; each cell keeps a
    random terminal mass (the never-failing share) past its last knot.
    """
    y1 = rng.uniform(0.5, 2.0, size=L)
    knots, values, starts = {}, {}, {}
    for w in range(K):
        start = rng.dirichlet(np.full(L, 2.0))
        for z in range(L):
            nk = int(rng.integers(3, 9))
            inner = rng.uniform(0.0, y1[z], size=nk - 1)
            ks = np.unique(np.concatenate([inner, [y1[z]]]))
            tail = start[z] * rng.uniform(0.0, 0.7)
            drop = rng.dirichlet(np.ones(ks.size)) * (start[z] - tail)
            after = start[z] - np.cumsum(drop)
            after[-1] = tail
            knots[(z, w)] = ks
            values[(z, w)] = after
            starts[(z, w)] = float(start[z])
    caps = y1 * (1.0 + rng.uniform(0.0, 0.3, size=L))
    return StepSurface(knots, values, starts, L, K), y1, caps


def lattice_axes(caps, points_per_dim):
    return [np.linspace(0.0, 1.25 * float(c), points_per_dim) for c in caps]


def compare_on_lattice(surface, y1, caps, u, points_per_dim=30):
    """(checked, disagreements, excused) between pieces and direct checks.

    A mismatch is excused only when the point sits within the bisection
    bracket of a constructed piece edge.
    """
    frontiers = BoundFrontiers(y1, caps)
    os_ = outer_set(u, surface, frontiers)
    tol = 2.0 * BISECT_RTOL * float(np.max(caps))

    def near_edge(theta):
        for p in os_.pieces:
            for t, a, b in zip(theta, p.lower, p.upper):
                if a > 0.0 and abs(t - a) <= tol:
                    return True
                if np.isfinite(b) and abs(t - b) <= tol:
                    return True
        return False

    axes = lattice_axes(caps, points_per_dim)
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    verdicts = verify_membership(lattice, u, surface, frontiers)
    checked = disagreements = excused = 0
    for theta, want in zip(lattice.tolist(), verdicts.tolist()):
        checked += 1
        got = os_.contains(theta)
        if want != got:
            if near_edge(theta):
                excused += 1
            else:
                disagreements += 1
    return checked, disagreements, excused


def surface_on_union_grid(curves, p_hat, kind="local_linear"):
    """SmoothedSurvivalSurface from per-cell curves, keyed by (z, w).

    The shared grid is the union of the curves' knots, on which each
    piecewise-linear curve is represented exactly; a cell missing from
    ``curves`` is a row of zeros.
    """
    p_hat = np.asarray(p_hat, dtype=np.float64)
    grid = np.unique(np.concatenate([c.knots for c in curves.values()]))
    values = np.zeros(p_hat.shape + grid.shape)
    for (z, w), curve in curves.items():
        values[z, w] = curve(grid) * p_hat[z, w]
    bandwidths = {cell: curve.bandwidth for cell, curve in curves.items()}
    return SmoothedSurvivalSurface(grid, values, p_hat, bandwidths, kind)
