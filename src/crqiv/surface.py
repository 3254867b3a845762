"""Assembled estimate of the joint subdistribution survival surface.

For every cell (z, w) the primary-cause survival curve is estimated by the
cumulative-incidence complement, smoothed, and scaled by the estimated
cell share p_hat(z, w) = P(Z = z | W = w).  The surface evaluates

    S1_hat(t, z | w) = smoothed_curve_{z,w}(t) * p_hat(z, w)

which is the quantity entering the instrumental system of equations.
Cells declared structurally unreachable evaluate to 0 identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CellIndex, Dataset
from .smoothing import SmoothedCurve, default_bandwidth, smooth
from .survival import aalen_johansen_cause1, build_counting_processes

__all__ = ["SmoothedSurvivalSurface", "assemble_surface"]


@dataclass(frozen=True)
class SmoothedSurvivalSurface:
    """Evaluable S1_hat(t, z | w) over all cells."""

    curves: dict  # CellIndex -> SmoothedCurve, absent for structural zeros
    p_hat: np.ndarray  # (L, K) cell shares, columns sum to 1
    bandwidths: dict  # CellIndex -> float
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
        """S1_hat(t, z | w); vectorized over t."""
        curve = self.curves.get(CellIndex(z, w))
        if curve is None:
            return np.zeros_like(np.asarray(t, dtype=np.float64)) + 0.0
        return curve(t) * self.p_hat[z, w]

    def cell_value_slope(self, z: int, w: int):
        """Scalar closure t -> (S1_hat(t, z | w), its slope in t), for hot loops."""
        curve = self.curves.get(CellIndex(z, w))
        if curve is None:
            return lambda t: (0.0, 0.0)
        return curve.value_slope(float(self.p_hat[z, w]))

    def level_knots(self, z: int) -> np.ndarray:
        """Union of curve knots across instrument levels, for set tiling."""
        parts = [
            c.knots for cell, c in self.curves.items() if cell.z == z
        ]
        if not parts:
            return np.array([0.0])
        return np.unique(np.concatenate(parts))


def _resolve_bandwidth(policy, data: Dataset, cell: CellIndex, cell_y: np.ndarray) -> float:
    if policy is None:
        return default_bandwidth(cell_y)
    if isinstance(policy, dict):
        return float(policy[tuple(cell)])
    if callable(policy):
        return float(policy(data, cell))
    return float(policy)


def assemble_surface(
    data: Dataset,
    bandwidth=None,
    kind: str = "local_linear",
) -> SmoothedSurvivalSurface:
    """Estimate the full surface from a dataset.

    ``bandwidth`` may be None (per-cell rule of thumb on the cell's
    follow-up times), a number applied to every cell, a dict keyed by
    (z, w), or a callable (data, cell) -> float.
    """
    cp = build_counting_processes(data)
    L, K = data.n_treatment_levels, data.n_instrument_levels
    p_hat = np.zeros((L, K))
    curves: dict[CellIndex, SmoothedCurve] = {}
    bandwidths: dict[CellIndex, float] = {}
    for cell in data.cells():
        if cell in data.structural_zeros:
            continue
        proc = cp.cell(cell)
        p_hat[cell.z, cell.w] = proc.size / cp.instrument_sizes[cell.w]
        step = aalen_johansen_cause1(cp, cell)
        cell_y = data.y[data.cell_mask(cell)]
        eps = _resolve_bandwidth(bandwidth, data, cell, cell_y)
        curves[cell] = smooth(step, eps, kind=kind)
        bandwidths[cell] = eps
    return SmoothedSurvivalSurface(
        curves,
        p_hat,
        bandwidths,
        kind,
        list(data.treatment_levels),
        list(data.instrument_levels),
    )
