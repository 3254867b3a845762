"""Assembled estimate of the joint subdistribution survival surface.

For every cell (z, w) the primary-cause survival curve is estimated by the
cumulative-incidence complement, smoothed, and scaled by the estimated
cell share p_hat(z, w) = P(Z = z | W = w).  The surface evaluates

    S1_hat(t, z | w) = smoothed_curve_{z,w}(t) * p_hat(z, w)

which is the quantity entering the instrumental system of equations;
``residual_vector`` evaluates that system's residuals at a batch of theta.
Every cell lives on one uniform grid of ``GRID_POINTS`` points, from 0 to
the largest "last primary-cause jump + bandwidth" over the cells, so the
surface is that grid plus an (L, K, G) value array whatever the sample
size.  Cells declared structurally unreachable are rows of zeros.  The
sample and each row of a bootstrap block of record counts run one
assembly, which takes a cell from its sorted records to its cause-1
jumps before it starts the next.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

# data, smoothing and survival are imported where a surface is assembled,
# so that one read back from a fit's file loads none of them
if TYPE_CHECKING:
    from .data import CellIndex, Dataset

__all__ = ["EstimationError", "SmoothedSurvivalSurface", "assemble_surface", "residual_vector"]

GRID_POINTS = 601  # knots of the grid shared by a surface's cells


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class SmoothedSurvivalSurface:
    """Evaluable S1_hat(t, z | w): cell curves on one shared grid.

    ``save`` writes its grid and values, and a surface that ``load``
    reads back has those only: its ``p_hat`` and ``bandwidths`` are None.
    """

    grid: np.ndarray  # (G,) ascending knots from 0
    values: np.ndarray  # (L, K, G) curves scaled by p_hat; zero rows for structural zeros
    p_hat: np.ndarray | None  # (L, K) cell shares, columns sum to 1
    bandwidths: dict | None  # CellIndex -> float, absent for structural zeros
    kind: str
    treatment_levels: list = field(default_factory=list)
    instrument_levels: list = field(default_factory=list)

    @property
    def n_treatment_levels(self) -> int:
        return self.values.shape[0]

    @property
    def n_instrument_levels(self) -> int:
        return self.values.shape[1]

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

    def save(self, path) -> None:
        """Write the grid and values to path as one .npy array: row 0 the grid, then a row per cell in (z, w) order."""
        np.save(path, np.vstack([self.grid, self.values.reshape(-1, self.grid.size)]))

    @classmethod
    def load(cls, path, L: int, K: int, kind: str) -> "SmoothedSurvivalSurface":
        """The surface of L·K cells, made by ``kind``, that ``save`` wrote to path.

        A file that is not a float64 array of 1 + L·K rows of two or more
        finite values, the first ascending, raises ValueError naming it.
        """
        with open(path, "rb") as fh:
            try:
                rows = np.lib.format.read_array(fh, allow_pickle=False)
            except ValueError as exc:  # not an .npy file, cut short, or holding objects
                raise ValueError(f"{path}: not a surface file: {exc}") from None
        if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[0] != 1 + L * K or rows.shape[1] < 2:
            raise ValueError(f"{path}: must hold float64 rows of 2 or more values, the grid and {L * K} cells, "
                             f"got {rows.dtype} of shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError(f"{path}: holds a value that is not finite")
        if not (np.diff(rows[0]) > 0).all():
            raise ValueError(f"{path}: its grid, row 0, does not ascend")
        return cls(rows[0], rows[1:].reshape(L, K, -1), None, None, kind)


def residual_vector(theta, u, surface: SmoothedSurvivalSurface) -> np.ndarray:
    """Instrument-level residuals at (theta, u), batched: theta (..., L) -> (..., K).

    ``u`` is a float or an array of theta's leading shape, one level per
    row.  Cells are evaluated on whole theta columns and summed over l in
    order from 0.0, so each row equals its single-point result bit for bit.
    """
    theta = np.asarray(theta, dtype=np.float64)
    L, K = surface.n_treatment_levels, surface.n_instrument_levels
    if theta.ndim == 0 or theta.shape[-1] != L:
        raise ValueError(f"theta must have length {L}")
    out = np.empty(theta.shape[:-1] + (K,))
    for k in range(K):
        s = 0.0
        for l in range(L):
            s = s + surface.evaluate(theta[..., l], l, k)
        out[..., k] = s - (1.0 - u)
    return out


def _columns(a: np.ndarray) -> np.ndarray:
    """a's slices along its last axis, a short one (L or K), which numpy combines far faster than it reduces it."""
    return np.moveaxis(a, -1, 0)


def _given_bandwidth(bandwidth) -> float | None:
    """A given bandwidth as a float, None for the rule of thumb; it must be a finite positive number."""
    if bandwidth is None:
        return None
    if not isinstance(bandwidth, numbers.Real):
        raise ValueError(f"bandwidth must be a number or None, got {bandwidth!r}")
    if not (bandwidth > 0 and math.isfinite(bandwidth)):
        raise ValueError("bandwidth must be positive")
    return float(bandwidth)


def _thin_cell(data: Dataset, cell: CellIndex, reason) -> EstimationError:
    z, w = data.treatment_levels[cell.z], data.instrument_levels[cell.w]
    return EstimationError(f"cell (treatment {z!r}, instrument {w!r}): {reason}")


def _no_primary_events(data: Dataset, level: int) -> EstimationError:
    return EstimationError(
        f"treatment level {data.treatment_levels[level]!r} has no primary-cause events; "
        "its quantile support bound cannot be estimated"
    )


def assemble_surface(
    data: Dataset,
    bandwidth=None,
    kind: str = "local_linear",
) -> SmoothedSurvivalSurface:
    """Estimate the full surface from a dataset.

    ``bandwidth`` may be None (per-cell rule of thumb on the cell's
    follow-up times) or a positive number applied to every cell.  A cell
    too thin for the rule of thumb raises ``EstimationError``.  The sample runs the
    assembly of ``assemble_surfaces`` as one row that counts every record
    once, so the surface is that of ``assemble_surfaces`` under a row of
    ones, bit for bit, whatever the order of the records.
    """
    (out,) = assemble_surfaces(data, None, bandwidth, kind)
    if isinstance(out, Exception):
        raise out
    return out


def assemble_surfaces(data: Dataset, counts=None, bandwidth=None, kind: str = "local_linear") -> list:
    """The surface, or the first error, of each row of counts (B, n), or of the sample itself (counts None).

    An entry is the row's ``SmoothedSurvivalSurface``, or the error that
    stops it: a ``DataValidationError`` for an emptied cell, an
    ``EstimationError`` for a cell too thin for the bandwidth rule, with
    the text its resampled dataset would raise.  ``bandwidth`` is as for
    ``assemble_surface``.

    A first pass takes each cell's sizes, bandwidths and range (its last
    cause-1 jump plus its bandwidth), which give a row's errors and grid.
    A second pass takes each cell from the counts of the rows without an
    error to its jumps and smooths them at once, so that one cell's jumps
    live at a time.  A block's cells come from ``sorted_cells``, kept
    across blocks; the sample's are built by ``level_cells`` in each pass
    and not kept.  Every stage runs along the rows: the sample, one row,
    gets a block row's bits.
    """
    from .data import DataValidationError
    from .smoothing import bandwidth_rows, smooth_rows
    from .survival import level_cells, sorted_cells

    bandwidth = _given_bandwidth(bandwidth)
    B = 1 if counts is None else len(counts)
    sizes = np.zeros((B, data.n_treatment_levels, data.n_instrument_levels), np.int64)
    bandwidths, thin, ranges = {}, {}, []
    cells = (lambda: level_cells(data)) if counts is None else sorted_cells(data).items
    for cell, sc in cells():
        if cell in data.structural_zeros:
            continue
        c = None if counts is None else np.take(counts, sc.records, axis=1)
        if bandwidth is None:
            bandwidths[cell], thin[cell] = bandwidth_rows(sc.y, c)
        else:
            bandwidths[cell] = np.full(B, bandwidth)
        sizes[:, cell.z, cell.w] = sc.y.size if c is None else c.sum(axis=1)
        # the latest time a counted record fails at by cause 1, 0 without one
        primary = np.flatnonzero(sc.event == 1)
        primary = primary[-1:] if c is None else primary  # y ascends: the sample's latest is its last
        counted = np.ones((1, primary.size), bool) if c is None else np.take(c, primary, axis=1) > 0
        ranges.append(np.max(np.broadcast_to(sc.y[primary], counted.shape), axis=1, where=counted, initial=0.0)
                      + bandwidths[cell])
        del sc, c, primary, counted  # before the next cell is gathered
    # a row's first error, in the order its resampled dataset meets them:
    # an emptied cell, then the first cell too thin for the bandwidth rule
    out: list = [None] * B
    for b in range(B):
        try:
            data.check_occupancy(sizes[b] > 0)
        except DataValidationError as exc:
            out[b] = exc
    for cell, reasons in thin.items():
        for b, reason in enumerate(reasons):
            if reason and out[b] is None:
                out[b] = _thin_cell(data, cell, reason)
    live = np.flatnonzero([o is None for o in out])
    if not live.size:
        return out
    if live.size < B:
        sizes, ranges, counts = sizes[live], [r[live] for r in ranges], counts[live]
        bandwidths = {cell: h[live] for cell, h in bandwidths.items()}
    with np.errstate(invalid="ignore", divide="ignore"):
        p_hat = sizes / sizes.sum(axis=1, keepdims=True)
    grid = np.linspace(0.0, np.max(ranges, axis=0), GRID_POINTS, axis=-1)
    values = np.zeros(p_hat.shape + (GRID_POINTS,))
    for cell, sc in cells():
        if cell not in bandwidths:
            continue
        # a sample cell is used once, and goes as its processes are built
        j, v = _jumps(sc.process(None if counts is None else np.take(counts, sc.records, axis=1)))
        np.subtract(1.0, v, out=v)  # 1 - F_hat; smooth_rows reads no value past a row's jumps
        curves = smooth_rows(j, v, np.ones(live.size), bandwidths[cell], kind, grid)
        del j, v
        values[:, cell.z, cell.w] = curves * p_hat[:, cell.z, cell.w, None]
    levels = list(data.treatment_levels), list(data.instrument_levels)
    for i, b in enumerate(live.tolist()):
        out[b] = SmoothedSurvivalSurface(grid[i], values[i], p_hat[i],
                                         {cell: float(h[i]) for cell, h in bandwidths.items()}, kind, *levels)
    return out


def _jumps(proc) -> tuple:
    """The cause-1 jump times of each row of a cell's processes and F_hat there, left-packed; overwrites proc.

    Given the only reference to proc, its spent at-risk and failure counts
    go before the jumps are packed.
    """
    from .smoothing import left_pack
    from .survival import incidence_values

    # a row's jumps are the times its counted records fail at by cause 1
    jumping = np.atleast_2d(proc.dn1 > 0)
    times, inc = proc.times, incidence_values(proc, proc.dn1, overwrite=True)
    del proc
    return left_pack(jumping, times, np.inf), left_pack(jumping, inc, 0.0)
