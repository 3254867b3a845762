"""Assembled estimate of the joint subdistribution survival surface.

For every cell (z, w) the primary-cause survival curve is estimated by the
cumulative-incidence complement, smoothed, and scaled by the estimated
cell share p_hat(z, w) = P(Z = z | W = w).  The surface evaluates

    S1_hat(t, z | w) = smoothed_curve_{z,w}(t) * p_hat(z, w)

which is the quantity entering the instrumental system of equations.
Every cell lives on one uniform grid of ``GRID_POINTS`` points, from 0 to
the largest "last primary-cause jump + bandwidth" over the cells, so the
surface is that grid plus an (L, K, G) value array whatever the sample
size.  Cells declared structurally unreachable are rows of zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import CellIndex, Dataset
from .smoothing import default_bandwidth, smooth
from .survival import aalen_johansen_cause1, build_counting_processes, presort

__all__ = ["EstimationError", "SmoothedSurvivalSurface", "assemble_surface"]

GRID_POINTS = 601  # knots of the grid shared by a surface's cells


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SmoothedSurvivalSurface:
    """Evaluable S1_hat(t, z | w): cell curves on one shared grid."""

    grid: np.ndarray  # (G,) ascending knots from 0
    values: np.ndarray  # (L, K, G) curves scaled by p_hat; zero rows for structural zeros
    p_hat: np.ndarray  # (L, K) cell shares, columns sum to 1
    bandwidths: dict  # CellIndex -> float, absent for structural zeros
    kind: str
    treatment_levels: list = field(default_factory=list)
    instrument_levels: list = field(default_factory=list)

    @property
    def n_treatment_levels(self) -> int:
        return self.p_hat.shape[0]

    @property
    def n_instrument_levels(self) -> int:
        return self.p_hat.shape[1]

    def evaluate(self, t, z: int, w: int):
        """S1_hat(t, z | w); vectorized over t, flat beyond the grid."""
        return np.interp(t, self.grid, self.values[z, w])

    def slopes(self, theta) -> np.ndarray:
        """Slope in t of S1_hat(t, l | k) at t = theta_l, batched: theta (..., L) -> (..., K, L).

        Entry [k, l] is the slope of the segment (g_i-1, g_i] holding
        theta_l on row (l, k) of the value array, and that of the first
        segment at the first knot, so a box face on a knot sees the slope on
        the box's side.  It is 0 outside the grid, where the cell is flat.
        This is the Jacobian of the residual vector in theta.
        """
        knots, table = self._slope_table
        s = table[np.arange(self.n_treatment_levels), np.searchsorted(knots, theta)]
        return np.swapaxes(s, -1, -2)

    @cached_property
    def _slope_table(self):
        """(knots, table) for ``slopes``: table[l, i] holds the K slopes of
        level l's cells on the segment ending at knot i, a zero row before the
        grid and one past it.  The first knot is moved down one ulp, so that
        ``searchsorted`` puts t = g_0 on the first segment and t < g_0 on the
        zero row."""
        L, K, G = self.values.shape
        table = np.zeros((L, G + 1, K))
        table[:, 1:G] = np.swapaxes(np.diff(self.values, axis=-1) / np.diff(self.grid), 1, 2)
        knots = self.grid.copy()
        knots[0] = np.nextafter(knots[0], -np.inf)
        return knots, table

    def level_knots(self, z: int) -> np.ndarray:
        """Knots on which every cell of level z is piecewise linear, for set tiling."""
        return self.grid


def _resolve_bandwidth(policy, data: Dataset, cell: CellIndex, counts) -> float:
    if policy is None:
        if counts is None:
            sample, weights = data.y[data.cell_mask(cell)], None
        else:
            sc = presort(data).cells[cell]
            sample, weights = sc.y, counts[sc.order]
        try:
            return default_bandwidth(sample, weights)
        except ValueError as exc:
            z, w = data.treatment_levels[cell.z], data.instrument_levels[cell.w]
            raise EstimationError(f"cell (treatment {z!r}, instrument {w!r}): {exc}") from None
    if isinstance(policy, dict):
        return float(policy[tuple(cell)])
    if callable(policy):
        if counts is not None:
            raise ValueError("a callable bandwidth needs the replicate as a dataset; pass it resampled")
        return float(policy(data, cell))
    return float(policy)


def assemble_surface(
    data: Dataset,
    bandwidth=None,
    kind: str = "local_linear",
    counts: np.ndarray | None = None,
) -> SmoothedSurvivalSurface:
    """Estimate the full surface from a dataset.

    ``bandwidth`` may be None (per-cell rule of thumb on the cell's
    follow-up times), a number applied to every cell, a dict keyed by
    (z, w), or a callable (data, cell) -> float.  A cell too thin for the
    rule of thumb raises ``EstimationError``.  ``counts`` gives each
    record's multiplicity, a bootstrap replicate without a resampled copy
    (None counts every record once); a callable bandwidth cannot take it.
    """
    cp = build_counting_processes(data, counts)
    L, K = data.n_treatment_levels, data.n_instrument_levels
    p_hat = np.zeros((L, K))
    steps = {}
    bandwidths: dict[CellIndex, float] = {}
    for cell in data.cells():
        if cell in data.structural_zeros:
            continue
        p_hat[cell.z, cell.w] = cp.cell(cell).size / cp.instrument_sizes[cell.w]
        steps[cell] = aalen_johansen_cause1(cp, cell)
        bandwidths[cell] = _resolve_bandwidth(bandwidth, data, cell, counts)
    t_max = max(s.jump_times.max(initial=0.0) + bandwidths[cell] for cell, s in steps.items())
    grid = np.linspace(0.0, t_max, GRID_POINTS)
    values = np.zeros((L, K, GRID_POINTS))
    for cell, step in steps.items():
        curve = smooth(step, bandwidths[cell], kind, grid)
        values[cell.z, cell.w] = curve.values * p_hat[cell.z, cell.w]
    return SmoothedSurvivalSurface(
        grid, values, p_hat, bandwidths, kind, list(data.treatment_levels), list(data.instrument_levels)
    )
