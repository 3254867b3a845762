"""Instrumental estimation of structural quantile functions.

The estimand is the vector of per-treatment-level quantile functions of
the primary-cause duration, evaluated on a grid of quantile levels u.  At
each u the estimator solves, over the box prod_l [0, y1_hat_l), the
system r(theta) = 0 with

    r_k(theta) = sum_l S1_hat(theta_l, z_l | w_k) - (1 - u),

where y1_hat_l is the largest follow-up time observed with a
primary-cause event at level l.  When the system is square and its zero
cells make it triangular (one-sided noncompliance, as in both designs),
every unknown is an exact generalized inverse of one cell curve, taken
over the whole grid at once; otherwise projected Gauss-Newton minimizes
r' r point by point.  Results are reported only below the estimated
identification frontier u_hat, the first grid point where some coordinate
of the solution comes within a cushion delta_l of its box edge, and only
where the solution is certified: every component of its residual is at
most ``optim.CERT_TOL`` = 1e-12 in absolute value, a root to machine
precision rather than a near-root on a box face.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress

import numpy as np

from .data import Dataset
from .optim import CERT_TOL, minimize_box_multistart
from .smoothing import _rows_searchsorted, _take_rows, bandwidth_rows
from .surface import (EstimationError, SmoothedSurvivalSurface, _columns, _jumps, _no_primary_events,
                      assemble_surface, assemble_surfaces, residual_vector)
from .survival import SortedCell, level_order, primary_records

__all__ = [
    "EstimationError",
    "QuantileGrid",
    "FrontierEstimates",
    "QuantileCurveFit",
    "fit_curve",
    "naive_curve",
]

# relative clamp representing the half-open box [0, y1_hat): the optimizer
# works on the closed box [0, y1_hat * (1 - BOX_CLAMP)]
BOX_CLAMP = 1e-9

# the status of a grid point in a fit, as QuantileCurveFit describes
REPORTED, PAST_FRONTIER, NOT_CERTIFIED, NO_ROOT = range(4)


@dataclass(frozen=True, eq=False)
class QuantileGrid:
    """Strictly increasing quantile levels in (0, 1]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] <= 0 or pts[-1] > 1:
            raise ValueError("grid points must lie in (0, 1]")
        object.__setattr__(self, "points", pts)

    @classmethod
    def default(cls, m: int = 100) -> "QuantileGrid":
        return cls(np.arange(1, m + 1) / m)

    @property
    def size(self) -> int:
        return self.points.size


@dataclass(frozen=True, eq=False)
class FrontierEstimates:
    """Estimated support bounds and identification frontier."""

    y_hat: np.ndarray  # (L,) largest primary-cause event time per level
    delta: np.ndarray  # (L,) frontier cushion per level
    u_hat: float  # estimated frontier quantile (a grid point)
    m_hat: int  # 0-based grid index of u_hat
    u_prev: float  # grid point before u_hat (0.0 when u_hat is the first)
    triggered: bool  # False when no grid point hit the cushion


@dataclass(eq=False)
class QuantileCurveFit:
    """A fit's solution, residual and frontier on its grid, and the status of each point.

    A status is ``REPORTED``, ``PAST_FRONTIER`` (at or past u_hat), ``NOT_CERTIFIED`` (below it, residual
    above ``CERT_TOL``) or, on the triangular path, ``NO_ROOT + 2 (k L + l) + face``: instrument level k
    needs treatment level l below the box (face 0) or above it (face 1).
    """

    grid: QuantileGrid
    theta: np.ndarray  # (M, L) solution vectors
    objective: np.ndarray  # (M,) r' r at theta
    residual: np.ndarray  # (M,) max |r_k| at theta
    status: np.ndarray  # (M,) int: REPORTED, or why the point is not reported
    frontiers: FrontierEstimates
    treatment_levels: list
    instrument_levels: list
    # the surface solved on; left out of repr and to_dict()
    surface: SmoothedSurvivalSurface | None = field(default=None, repr=False)

    @property
    def converged(self) -> np.ndarray:  # (M,) bool: residual <= CERT_TOL
        return self.residual <= CERT_TOL

    @property
    def reported_mask(self) -> np.ndarray:  # (M,) bool: u < u_hat and converged
        return self.status == REPORTED

    @property
    def warnings(self) -> list:
        """Text on the points below the frontier that go unreported, and on a frontier never reached."""
        u, missed, out = [f"{x:g}" for x in self.grid.points.tolist()], self.status >= NOT_CERTIFIED, []
        if missed.any():
            out.append(f"no certified root (residual > {CERT_TOL:g}) at u = {', '.join(compress(u, missed))} "
                       f"(largest residual {self.residual[missed].max():.3g}); they are not reported")
        for code in dict.fromkeys(self.status[self.status >= NO_ROOT].tolist()):
            (k, l), face = divmod((code - NO_ROOT) // 2, len(self.treatment_levels)), (code - NO_ROOT) % 2
            bound = f"above {self.frontiers.y_hat[l]:g}" if face else "below 0"
            out.append(f"no root in the box at u = {', '.join(compress(u, self.status == code))}: instrument level "
                       f"{self.instrument_levels[k]} needs treatment level {self.treatment_levels[l]} {bound}")
        if not self.frontiers.triggered:
            out.append("frontier cushion never reached on the grid; reporting the whole grid "
                       "(the identification frontier may exceed the grid range)")
        return out

    def qte(self) -> np.ndarray:
        """Quantile treatment effect curve theta_1 - theta_0; NaN outside the reported range."""
        return np.where(self.reported_mask, self.theta[:, 1] - self.theta[:, 0], np.nan)

    def to_dict(self) -> dict:
        fr = self.frontiers
        return {
            "grid": self.grid.points.tolist(),
            "treatment_levels": [str(v) for v in self.treatment_levels],
            "instrument_levels": [str(v) for v in self.instrument_levels],
            "theta": [[_json_float(v) for v in row] for row in self.theta],
            "objective": [_json_float(v) for v in self.objective],
            "residual": [_json_float(v) for v in self.residual],
            "converged": self.converged.tolist(),
            "reported": self.reported_mask.tolist(),
            "status": self.status.tolist(),
            "u_hat": fr.u_hat,
            "m_hat": fr.m_hat,
            "u_prev": fr.u_prev,
            "frontier_triggered": fr.triggered,
            "y1_hat": fr.y_hat.tolist(),
            "delta": fr.delta.tolist(),
            "warnings": self.warnings,
        }


def _json_float(v: float):
    v = float(v)
    if np.isnan(v):
        return None
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _primary_times(data: Dataset, level: int, counts) -> tuple:
    """A level's primary-cause times, ascending, and their counts in each row of counts (B, n), or None.

    A block of counts takes the level's primary-cause records from the
    cache that ``primary_records`` keeps for blocks.
    """
    primary = primary_records(data, level, cache=counts is not None)
    return np.take(data.y, primary), None if counts is None else np.take(counts, primary, axis=1)


def _frontier_rows(data: Dataset, counts, delta) -> tuple:
    """Support bounds and cushions under each row of counts (B, n), or of the sample (counts None, one row).

    Returns (y1 (B, L), delta (B, L), errors).  errors[b] is the first
    error row b meets (support bounds, then cushions, level by level), or
    None.
    """
    B, L = 1 if counts is None else len(counts), data.n_treatment_levels
    y1, deltas = np.full((B, L), np.nan), np.full((B, L), np.nan)
    bound_errors, cushion_errors = [None] * B, [None] * B
    for level, level_name in enumerate(data.treatment_levels):
        times, c = _primary_times(data, level, counts)
        counted = np.ones((1, times.size), bool) if c is None else c > 0
        y1[:, level] = np.where(counted, times, -np.inf).max(axis=1, initial=-np.inf)
        for b in np.flatnonzero(~counted.any(axis=1)).tolist():
            bound_errors[b] = bound_errors[b] or _no_primary_events(data, level)
        if delta is None:
            deltas[:, level], reasons = bandwidth_rows(times, c)
            for b, reason in enumerate(reasons):
                if reason and not cushion_errors[b]:
                    cushion_errors[b] = EstimationError(f"frontier cushion at treatment level {level_name!r}: {reason}")
    if delta is not None:
        given = np.asarray(delta, dtype=np.float64)
        if given.shape not in ((), (L,)) or not (np.isfinite(given) & (given > 0)).all():
            raise ValueError("delta must be a positive scalar or one positive value per level")
        deltas[:] = given
    return y1, deltas, [a or b for a, b in zip(bound_errors, cushion_errors)]


def _triangular_order(p_hat: np.ndarray):
    """Equation-by-equation order [(k, l), ...] of a square triangular system.

    Each step takes an instrument level k whose equation has exactly one
    unsolved treatment level l among its nonzero cells, and solves it for
    theta_l.  None when the system is not square or no such order exists.
    """
    L, K = p_hat.shape
    if L != K:
        return None
    nonzero = p_hat != 0.0
    solved = np.zeros(L, dtype=bool)
    left, order = list(range(K)), []
    while left:
        for k in left:
            free = np.flatnonzero(nonzero[:, k] & ~solved)
            if free.size == 1:
                break
        else:
            return None
        order.append((k, int(free[0])))
        solved[free[0]] = True
        left.remove(k)
    return order


def _generalized_inverse(grid: np.ndarray, rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """inf{t >= 0 : v(t) <= target} per target (B, M), v each piecewise-linear row (B, G) on its grid (B, G).

    ``np.searchsorted`` on the negated running minimum of a row finds the
    first knot at or below the target; the crossing is then interpolated
    inside the segment ending there.  A target at or above v(0) gives 0, so
    a flat stretch at the target gives its left end; a target below every
    value gives inf.
    """
    G = grid.shape[1]
    low = np.minimum.accumulate(rows, axis=1)
    i = _rows_searchsorted(-low, -target)
    hi = np.minimum(i, G - 1)
    lo = np.maximum(hi - 1, 0)
    g_hi, v_hi = _take_rows(grid, hi), _take_rows(rows, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = g_hi - (target - v_hi) / (_take_rows(rows, lo) - v_hi) * (g_hi - _take_rows(grid, lo))
    return np.where(i == 0, 0.0, np.where(i == G, np.inf, t))


def _triangular_sweep(surfaces: list, order, u: np.ndarray, upper: np.ndarray):
    """theta (B, M, L) solving a triangular system on each surface over the whole grid u, clipped to [0, upper (B, L)].

    Also returns, per row and grid point, the status of the first step
    (k, l) whose inversion left the box: ``NO_ROOT + 2 (k L + l)`` below
    the box and one more above it, or ``NOT_CERTIFIED`` where none did.
    """
    B, L = upper.shape
    grid, values = (np.stack([getattr(s, name) for s in surfaces]) for name in ("grid", "values"))
    theta = np.zeros((B, u.size, L))
    why = np.full((B, u.size), NOT_CERTIFIED)
    for k, l in order:
        target = np.broadcast_to(1.0 - u, (B, u.size))
        for j in np.flatnonzero(surfaces[0].p_hat[:, k]):
            if j != l:
                target = target - np.stack([s.evaluate(t, j, k) for s, t in zip(surfaces, theta[:, :, j])])
        raw = _generalized_inverse(grid, values[:, l, k], target)
        theta[:, :, l] = np.clip(raw, 0.0, upper[:, l, None])
        below = target > np.array([[s.evaluate(0.0, l, k)] for s in surfaces])
        for face, out in enumerate((below, raw > upper[:, l, None])):
            why[out & (why == NOT_CERTIFIED)] = NO_ROOT + 2 * (k * L + l) + face
    return theta, why


def _gauss_newton_sweep(surface, u: np.ndarray, edge: np.ndarray, upper, stop_at_frontier: bool):
    """theta (M, L) from per-point Gauss-Newton solves on the certified residual, each warm-started from the last.

    Once a solution reaches the cushion edge the later solves make no
    restarts; with ``stop_at_frontier`` they are not made and stay NaN.
    """
    theta = np.full((u.size, edge.size), np.nan)
    lower = np.zeros(edge.size)
    past, warm = False, None
    for m in range(u.size):
        def f(x, at=float(u[m])):
            return residual_vector(x, at, surface), surface.slopes(x)

        res = minimize_box_multistart(f, lower, upper, warm=warm, restart=not past)
        theta[m] = warm = res.x
        past = past or bool(np.any(theta[m] >= edge))
        if past and stop_at_frontier:
            break
    return theta


def _check_identified(data: Dataset) -> None:
    """Raise unless the instrument has at least as many levels as the treatment (K >= L)."""
    L, K = data.n_treatment_levels, data.n_instrument_levels
    if K < L:
        raise EstimationError(f"K = {K} instrument levels cannot point-identify L = {L} treatment levels; "
                              "that needs K >= L")


def fit_curve(
    data: Dataset,
    grid: QuantileGrid | None = None,
    bandwidth=None,
    delta=None,
    kind: str = "local_linear",
    stop_at_frontier: bool = False,
    surface: SmoothedSurvivalSurface | None = None,
) -> QuantileCurveFit:
    """Solve the instrumental system at every point of the quantile grid.

    When the system is square and the zero cells of ``surface.p_hat`` admit
    a triangular order (one-sided noncompliance, as in both designs), each
    unknown is one generalized inverse inf{t : S1_hat(t, z_l | w_k) <= target}
    of a cell curve, taken over the whole grid at once, with the unknowns
    solved before it moved into the target.  A flat stretch at the target
    gives its left end.  Where a target has no crossing in the box the
    unknown is clipped to the box face, and the fit's warnings name the
    instrument level, treatment level and face.  Other systems (no
    triangular order, or more instrument than treatment levels) run
    projected Gauss-Newton on r' r point by point in increasing u, each
    solve starting from the previous solution; until the frontier cushion
    is hit a solve without a certified root restarts from a lattice of box
    points, and past it, where no root exists, it does not.

    Either path only proposes theta; the frontier, the NaN rows past it and
    the certificate are then taken once, from one batched residual.  A
    point is reported only below the frontier and with every residual
    component at most ``CERT_TOL`` in absolute value; a near-root on a box
    face, where no root lies inside the box, is not reported.  With
    ``stop_at_frontier`` the results past the first point that hits the
    frontier cushion are left NaN, which is enough for anything that only
    consumes reported points.

    Fewer instrument than treatment levels (K < L) leave the system
    underdetermined, so such data raise ``EstimationError`` before any
    surface is built.  Count-weighted replicates of the data take
    ``fit_replicates``; the sample is its row that counts every record once.

    The fit keeps the surface it solved on, the one given or the one
    built, as ``fit.surface``, so outer sets and diagnostics taken after
    the fit need not build it again.
    """
    _check_identified(data)
    grid = grid or QuantileGrid.default()
    if surface is None:
        surface = assemble_surface(data, bandwidth=bandwidth, kind=kind)
    y1, deltas, (error,) = _frontier_rows(data, None, delta)
    if error:
        raise error
    return _solve_rows(data, [surface], y1, deltas, grid, np.array([stop_at_frontier], bool))[0]


def fit_replicates(
    data: Dataset,
    counts: np.ndarray,
    grid: QuantileGrid | None = None,
    bandwidth=None,
    delta=None,
    kind: str = "local_linear",
    stop_at_frontier: bool | np.ndarray = False,
) -> list:
    """``fit_curve`` of each count-weighted replicate of ``data``, one per row of counts (B, n).

    The surfaces, support bounds and cushions are taken for the whole block
    at once (``assemble_surfaces``), and so is the solve.  Every row gets
    the bits of ``fit_curve`` on its resampled dataset, under one
    ``stop_at_frontier`` or one per row.  An entry is the
    row's ``QuantileCurveFit``, or the ``DataValidationError`` or
    ``EstimationError`` that stops it, with the text its resampled dataset
    would raise.
    """
    _check_identified(data)
    grid = grid or QuantileGrid.default()
    out = assemble_surfaces(data, counts, bandwidth, kind)
    y1, deltas, errors = _frontier_rows(data, counts, delta)
    for b, surface in enumerate(out):
        if not isinstance(surface, Exception) and errors[b]:
            out[b] = errors[b]
    live = [b for b, surface in enumerate(out) if not isinstance(surface, Exception)]
    if live:
        stop = np.broadcast_to(np.asarray(stop_at_frontier, bool), len(out))[live]
        fits = _solve_rows(data, [out[b] for b in live], y1[live], deltas[live], grid, stop)
        for b, fit in zip(live, fits):
            out[b] = fit
    return out


def _solve_rows(data: Dataset, surfaces: list, y_hat: np.ndarray, deltas: np.ndarray, grid: QuantileGrid,
                stop: np.ndarray) -> list:
    """``fit_curve`` on each surface, with its row of support bounds y_hat (B, L), cushions (B, L) and stop (B,).

    The surfaces share one grid size and one pattern of open cells, as the
    rows of one assembly do.  With a triangular order the rows are solved
    together, a step of the order at a time; otherwise each runs
    Gauss-Newton.  The frontier, the NaN rows past it and each point's
    status are then taken for every row at once, from each row's residual,
    so each row gets the bits it would get alone.
    """
    u, M = grid.points, grid.size
    upper = y_hat * (1.0 - BOX_CLAMP)
    edge = y_hat - deltas  # the frontier cushion
    order = _triangular_order(surfaces[0].p_hat)
    if order is None:
        theta = np.stack([_gauss_newton_sweep(s, u, edge[b], upper[b], bool(stop[b]))
                          for b, s in enumerate(surfaces)])
        why = NOT_CERTIFIED
    else:
        theta, why = _triangular_sweep(surfaces, order, u, upper)

    hit = reduce(np.logical_or, _columns(theta >= edge[:, None]))
    triggered = hit.any(axis=1)
    m_hat = np.where(triggered, hit.argmax(axis=1), M - 1)
    theta[stop[:, None] & (np.arange(M) > m_hat[:, None])] = np.nan
    r = np.stack([residual_vector(t, u, s) for t, s in zip(theta, surfaces)])
    resid = reduce(np.maximum, np.abs(_columns(r)))
    before = (np.arange(M) < m_hat[:, None]) | ~triggered[:, None]
    status = np.where(before, np.where(resid <= CERT_TOL, REPORTED, why), PAST_FRONTIER)

    fits = []
    for b, surface in enumerate(surfaces):
        m = int(m_hat[b])
        frontiers = FrontierEstimates(y_hat[b], deltas[b], float(u[m]), m, float(u[m - 1]) if m > 0 else 0.0,
                                      bool(triggered[b]))
        fits.append(QuantileCurveFit(grid, theta[b], np.einsum("mk,mk->m", r[b], r[b]), resid[b], status[b],
                                     frontiers, list(data.treatment_levels), list(data.instrument_levels), surface))
    return fits


def naive_curve(data: Dataset, grid: QuantileGrid | None = None) -> np.ndarray:
    """Quantiles of the primary-cause incidence conditional on treatment only.

    Pools over the instrument, ignoring endogeneity: the generalized
    u-quantile inf{t : F_hat(t) >= u} of the cumulative-incidence estimate
    per treatment level. Grid points above the attained incidence get an
    infinity sentinel. Returned as an (M, L) array.
    """
    grid = grid or QuantileGrid.default()
    M, L = grid.size, data.n_treatment_levels
    out = np.full((M, L), np.inf)
    for zi in range(L):
        # the level's records go as its counting processes are built, and those as its incidence is taken
        order = level_order(data, zi)
        (times,), (values,) = _jumps(SortedCell(np.take(data.y, order), np.take(data.event, order)).process())
        idx = np.searchsorted(values, grid.points, side="left")
        hit = idx < values.size
        out[hit, zi] = times[idx[hit]]
        del times, values  # before the next level is gathered
    return out
