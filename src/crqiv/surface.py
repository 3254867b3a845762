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

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import CellIndex, DataValidationError, Dataset
from .smoothing import bandwidth_rows, default_bandwidth, left_pack, smooth_rows
from .survival import CellProcess, build_counting_processes, incidence_values, presort

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


def _resolve_bandwidth(policy, data: Dataset, cell: CellIndex) -> float:
    if policy is None:
        try:
            return default_bandwidth(np.compress(data.cell_mask(cell), data.y))
        except ValueError as exc:
            raise _thin_cell(data, cell, exc) from None
    if isinstance(policy, dict):
        h = float(policy[tuple(cell)])
    elif callable(policy):
        h = float(policy(data, cell))
    else:
        h = float(policy)
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("bandwidth must be positive")
    return h


def _thin_cell(data: Dataset, cell: CellIndex, reason) -> EstimationError:
    z, w = data.treatment_levels[cell.z], data.instrument_levels[cell.w]
    return EstimationError(f"cell (treatment {z!r}, instrument {w!r}): {reason}")


def assemble_surface(
    data: Dataset,
    bandwidth=None,
    kind: str = "local_linear",
) -> SmoothedSurvivalSurface:
    """Estimate the full surface from a dataset.

    ``bandwidth`` may be None (per-cell rule of thumb on the cell's
    follow-up times), a number applied to every cell, a dict keyed by
    (z, w), or a callable (data, cell) -> float.  A cell too thin for the
    rule of thumb raises ``EstimationError``.  The counting processes go
    through ``_surfaces`` as a block of one row, so the surface is that of
    ``assemble_surfaces`` under a row of ones, bit for bit, whatever the
    order of the records.
    """
    # before the counting processes exist, so the rule's sorted cell samples do not add to their peak
    bandwidths = {
        cell: np.array([_resolve_bandwidth(bandwidth, data, cell)])
        for cell in data.cells()
        if cell not in data.structural_zeros
    }
    cp = build_counting_processes(data)
    sizes = np.zeros((1, data.n_treatment_levels, data.n_instrument_levels), np.int64)
    processes = []
    for cell in bandwidths:
        c = cp.cells[cell]
        sizes[0, cell.z, cell.w] = c.size
        processes.append((cell, CellProcess(c.times, c.dn1[None], c.dn[None], c.at_risk[None], np.array([c.size]))))
    return _surfaces(data, sizes, processes, bandwidths, kind)[0]


def assemble_surfaces(data: Dataset, counts: np.ndarray, bandwidth=None, kind: str = "local_linear") -> list:
    """The surface of each count-weighted replicate of ``data``, one per row of counts (B, n).

    Every stage runs on the whole block along its rows, and each row gets
    the bits of its own resampled dataset.  An entry is the row's
    ``SmoothedSurvivalSurface``, or the error that stops it: a
    ``DataValidationError`` for an emptied cell, an ``EstimationError``
    for a cell too thin for the bandwidth rule, with the text its
    resampled dataset would raise.  ``bandwidth`` is as for
    ``assemble_surface``, except that a callable, which needs each
    replicate as a dataset, is rejected.
    """
    if callable(bandwidth):
        raise ValueError("a callable bandwidth needs the replicate as a dataset; pass it resampled")
    B, L, K = len(counts), data.n_treatment_levels, data.n_instrument_levels
    cells = presort(data).cells
    sizes = np.zeros((B, L, K), np.int64)
    empty = np.zeros(B, bool)
    bandwidths, thin, ordered = {}, {}, {}
    for cell, sc in cells.items():
        c = ordered[cell] = counts[:, sc.order]
        sizes[:, cell.z, cell.w] = c.sum(axis=1)
        empty |= sizes[:, cell.z, cell.w] == 0
        if bandwidth is None:
            bandwidths[cell], thin[cell] = bandwidth_rows(sc.y, c)
        else:
            bandwidths[cell] = np.full(B, _resolve_bandwidth(bandwidth, data, cell))
    # a row's first error, in the order its resampled dataset meets them:
    # an emptied cell, then the first cell too thin for the bandwidth rule
    out: list = [None] * B
    for b in np.flatnonzero(empty).tolist():
        try:
            data.check_occupancy(sizes[b] > 0)
        except DataValidationError as exc:
            out[b] = exc
    for cell, reasons in thin.items():
        for b, reason in enumerate(reasons):
            if reason and out[b] is None:
                out[b] = _thin_cell(data, cell, reason)
    live = np.array([o is None for o in out], dtype=bool)
    if not live.any():
        return out
    processes = ((cell, sc.process(ordered.pop(cell)[live])) for cell, sc in cells.items())
    surfaces = _surfaces(data, sizes[live], processes, {cell: h[live] for cell, h in bandwidths.items()}, kind)
    for b, surface in zip(np.flatnonzero(live).tolist(), surfaces):
        out[b] = surface
    return out


def _surfaces(data: Dataset, sizes: np.ndarray, processes, bandwidths: dict, kind: str) -> list:
    """Surfaces from per-row cell sizes (B, L, K), (cell, process rows) pairs and bandwidths (B,) per cell.

    dn1, dn and at_risk are (B, T); a block passes the pairs as a
    generator, so that one cell's rows live at a time.  Every stage runs
    along the rows: the full sample, one row, gets a block row's bits.
    """
    B = len(sizes)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_hat = sizes / sizes.sum(axis=1, keepdims=True)
    jumps = {}
    for cell, proc in processes:
        # a row's jumps are the times its counted records fail at by cause 1
        jumping = proc.dn1 > 0
        inc = incidence_values(proc, proc.dn1)
        np.subtract(1.0, inc, out=inc)  # 1 - F_hat in place: one (B, T) array less at the peak
        jumps[cell] = left_pack(jumping, proc.times, np.inf), left_pack(jumping, inc, 0.0)
        del proc, inc
    # every cell's own range is its last jump plus its bandwidth
    t_max = np.max([np.max(j, axis=1, where=np.isfinite(j), initial=0.0) + bandwidths[cell]
                    for cell, (j, _) in jumps.items()], axis=0)
    grid = np.linspace(0.0, t_max, GRID_POINTS, axis=-1)
    values = np.zeros(p_hat.shape + (GRID_POINTS,))
    for cell, (j, v) in jumps.items():
        curves = smooth_rows(j, v, np.ones(B), bandwidths[cell], kind, grid)
        values[:, cell.z, cell.w] = curves * p_hat[:, cell.z, cell.w, None]
    levels = list(data.treatment_levels), list(data.instrument_levels)
    return [
        SmoothedSurvivalSurface(grid[b], values[b], p_hat[b], {cell: float(h[b]) for cell, h in bandwidths.items()},
                                kind, *levels)
        for b in range(B)
    ]
