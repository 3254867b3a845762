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
the weighted quadratic form r' V(u) r point by point.  Results are
reported only below the estimated identification frontier u_hat, the
first grid point where some coordinate of the solution comes within a
cushion delta_l of its box edge, and only where the solution is
certified: every component of its residual is at most ``optim.CERT_TOL``
= 1e-12 in absolute value, a root to machine precision rather than a
near-root on a box face.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .data import Dataset
from .optim import CERT_TOL, minimize_box_multistart
from .smoothing import _rows_searchsorted, _take_rows, bandwidth_rows
from .surface import EstimationError, SmoothedSurvivalSurface, _jumps, assemble_surface, assemble_surfaces
from .survival import SortedCell, level_order, primary_records

__all__ = [
    "EstimationError",
    "QuantileGrid",
    "WeightingPolicy",
    "FrontierEstimates",
    "QuantileCurveFit",
    "residual_vector",
    "objective",
    "residual_system",
    "estimate_y1",
    "default_delta",
    "estimate_caps",
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


class WeightingPolicy:
    """Residual weighting V(u): symmetric positive definite K x K.

    ``value`` may be None (identity), a constant matrix, or a callable
    u -> matrix. A constant matrix is checked and factored once, at
    configuration time; a callable's matrix once per evaluation.
    """

    def __init__(self, value=None):
        self._callable = None
        self._matrix = self._factor = None
        if value is None:
            pass
        elif callable(value):
            self._callable = value
        else:
            self._matrix = np.asarray(value, dtype=np.float64)
            self._factor = self._checked_factor(self._matrix)

    @staticmethod
    def _checked_factor(m: np.ndarray) -> np.ndarray:
        """C' with m = C C', C lower triangular; raises unless m is symmetric positive definite."""
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("weighting matrix must be square")
        if not np.allclose(m, m.T, atol=1e-10):
            raise ValueError("weighting matrix must be symmetric")
        try:
            return np.linalg.cholesky(m).T
        except np.linalg.LinAlgError:
            raise ValueError("weighting matrix must be positive definite") from None

    @property
    def is_identity(self) -> bool:
        return self._callable is None and self._matrix is None

    def _at(self, u: float, k: int):
        """(V(u), C') for a system of k instrument levels, both None for the identity."""
        m, ct = self._matrix, self._factor
        if self._callable is not None:
            m = np.asarray(self._callable(u), dtype=np.float64)
            ct = self._checked_factor(m)
        if m is not None and m.shape[0] != k:
            raise ValueError(f"weighting matrix is {m.shape[0]}x..., need {k}")
        return m, ct

    def matrix(self, u: float, k: int) -> np.ndarray:
        m = self._at(u, k)[0]
        return np.eye(k) if m is None else m

    def factor(self, u: float, k: int) -> np.ndarray | None:
        """C' with V(u) = C C', so that r' V(u) r = ||C' r||^2; None for the identity."""
        return self._at(u, k)[1]


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
    objective: np.ndarray  # (M,) r' V r at theta
    residual: np.ndarray  # (M,) max |(C' r)_k| at theta, V = C C'
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

    def qte(self, level: int = 1, baseline: int = 0, only_reported: bool = True) -> np.ndarray:
        """Quantile treatment effect curve; NaN outside the reported range."""
        out = self.theta[:, level] - self.theta[:, baseline]
        if only_reported:
            out = np.where(self.reported_mask, out, np.nan)
        return out

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


def objective(theta, u: float, surface, V: WeightingPolicy | None = None) -> float:
    """Weighted squared norm r(theta)' V(u) r(theta) = ||C' r||^2, V(u) = C C'; zero iff r = 0."""
    r = residual_vector(theta, u, surface)
    ct = None if V is None else V.factor(u, r.size)
    if ct is not None:
        r = ct @ r
    return float(r @ r)


def estimate_y1(data: Dataset) -> np.ndarray:
    """Largest follow-up time with a primary-cause event, per treatment level."""
    out = np.empty(data.n_treatment_levels)
    for zi in range(data.n_treatment_levels):
        times, _ = _primary_times(data, zi, None)
        if not times.size:
            raise _no_primary_events(data, zi)
        out[zi] = times[-1]
    return out


def _primary_times(data: Dataset, level: int, counts) -> tuple:
    """A level's primary-cause times, ascending, and their counts in each row of counts (B, n), or None.

    A block of counts takes the level's primary-cause records from the
    cache that ``primary_records`` keeps for blocks.
    """
    primary = primary_records(data, level, cache=counts is not None)
    return np.take(data.y, primary), None if counts is None else np.take(counts, primary, axis=1)


def _no_primary_events(data: Dataset, level: int) -> EstimationError:
    return EstimationError(
        f"treatment level {data.treatment_levels[level]!r} has no primary-cause events; "
        "its quantile support bound cannot be estimated"
    )


def default_delta(data: Dataset, level: int) -> float:
    """Frontier cushion: bandwidth rule on the level's primary-cause event times."""
    (h,), (reason,) = bandwidth_rows(*_primary_times(data, level, None))
    if reason:
        raise _no_cushion(data, level, reason)
    return float(h)


def _no_cushion(data: Dataset, level: int, reason) -> EstimationError:
    return EstimationError(f"frontier cushion at treatment level {data.treatment_levels[level]!r}: {reason}")


def _frontier_rows(data: Dataset, counts, delta) -> tuple:
    """Support bounds and cushions under each row of counts (B, n), or of the sample (counts None, one row).

    Returns (y1 (B, L), delta (B, L), errors).  errors[b] is the first
    error row b meets (support bounds, then cushions, level by level), or
    None.
    """
    B, L = 1 if counts is None else len(counts), data.n_treatment_levels
    y1, deltas = np.full((B, L), np.nan), np.full((B, L), np.nan)
    bound_errors, cushion_errors = [None] * B, [None] * B
    for level in range(L):
        times, c = _primary_times(data, level, counts)
        counted = np.ones((1, times.size), bool) if c is None else c > 0
        y1[:, level] = np.where(counted, times, -np.inf).max(axis=1, initial=-np.inf)
        for b in np.flatnonzero(~counted.any(axis=1)).tolist():
            bound_errors[b] = bound_errors[b] or _no_primary_events(data, level)
        if delta is None:
            deltas[:, level], reasons = bandwidth_rows(times, c)
            for b, reason in enumerate(reasons):
                if reason:
                    cushion_errors[b] = cushion_errors[b] or _no_cushion(data, level, reason)
    if delta is not None:
        given = np.asarray(delta, dtype=np.float64)
        if given.shape not in ((), (L,)) or not (np.isfinite(given) & (given > 0)).all():
            raise ValueError("delta must be a positive scalar or one positive value per level")
        deltas[:] = given
    return y1, deltas, [a or b for a, b in zip(bound_errors, cushion_errors)]


def estimate_caps(data: Dataset) -> np.ndarray:
    """Upper support estimate per treatment level: max observed y, any event."""
    out = np.empty(data.n_treatment_levels)
    for zi in range(data.n_treatment_levels):
        mask = data.z == zi
        if not mask.any():
            raise EstimationError(f"no records at treatment level {data.treatment_levels[zi]!r}")
        out[zi] = np.compress(mask, data.y).max()
    return out


def residual_system(surface, V: WeightingPolicy | None = None):
    """u -> f, where f(theta) = (C' r, C' J) with V(u) = C C' (C' = I unweighted).

    r is ``residual_vector`` at (theta, u) and J its Jacobian,
    ``surface.slopes(theta)``: J[k, l] is the slope of cell (l, k)'s
    segment at theta_l.  So ||C' r||^2 = r' V(u) r is the objective, and
    f's residual at theta is the one ``fit_curve`` certifies there, bit for
    bit.  Only the Gauss-Newton path of ``fit_curve`` (systems without a
    triangular order, or with more instrument than treatment levels) builds
    it, to propose theta.
    """
    K = surface.n_instrument_levels

    def at(u: float):
        ct = None if V is None else V.factor(u, K)

        def f(theta):
            r, J = residual_vector(theta, u, surface), surface.slopes(theta)
            return (r, J) if ct is None else (ct @ r, ct @ J)

        return f

    return at


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


def _gauss_newton_sweep(surface, V, u: np.ndarray, edge: np.ndarray, upper, stop_at_frontier: bool):
    """theta (M, L) from per-point projected Gauss-Newton solves, each warm-started from the last.

    Once a solution reaches the cushion edge the later solves make no
    restarts; with ``stop_at_frontier`` they are not made and stay NaN.
    """
    theta = np.full((u.size, edge.size), np.nan)
    lower = np.zeros(edge.size)
    system = residual_system(surface, V)
    past, warm = False, None
    for m in range(u.size):
        res = minimize_box_multistart(system(float(u[m])), lower, upper, warm=warm, restart=not past)
        theta[m] = warm = res.x
        past = past or bool(np.any(theta[m] >= edge))
        if past and stop_at_frontier:
            break
    return theta


def fit_curve(
    data: Dataset,
    grid: QuantileGrid | None = None,
    V: WeightingPolicy | None = None,
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
    unknown is clipped to the box face, whatever V is, and the fit's
    warnings name the instrument level, treatment level and face.  Other
    systems (no triangular order, or more instrument than treatment levels)
    run projected Gauss-Newton point by point in increasing u, each solve
    starting from the previous solution; until the frontier cushion is hit
    a solve without a certified root restarts from a lattice of box points,
    and past it, where no root exists, it does not.

    Either path only proposes theta; the frontier, the NaN rows past it and
    the certificate are then taken once, from one batched residual.  A
    point is reported only below the frontier and with every residual
    component (of C' r under a weighting V = C C') at most ``CERT_TOL`` in
    absolute value; a near-root on a box face, where no root lies inside
    the box, is not reported.  With ``stop_at_frontier`` the results past
    the first point that hits the frontier cushion are left NaN, which is
    enough for anything that only consumes reported points.

    Count-weighted replicates of the data take ``fit_replicates``; the
    sample is its row that counts every record once.

    The fit keeps the surface it solved on, the one given or the one
    built, as ``fit.surface``, so outer sets and diagnostics taken after
    the fit need not build it again.
    """
    grid = grid or QuantileGrid.default()
    if surface is None:
        surface = assemble_surface(data, bandwidth=bandwidth, kind=kind)
    y1, deltas, (error,) = _frontier_rows(data, None, delta)
    if error:
        raise error
    return _solve_rows(data, [surface], y1, deltas, grid, V, stop_at_frontier)[0]


def fit_replicates(
    data: Dataset,
    counts: np.ndarray,
    grid: QuantileGrid | None = None,
    V: WeightingPolicy | None = None,
    bandwidth=None,
    delta=None,
    kind: str = "local_linear",
    stop_at_frontier: bool = False,
) -> list:
    """``fit_curve`` of each count-weighted replicate of ``data``, one per row of counts (B, n).

    The surfaces, support bounds and cushions are taken for the whole block
    at once (``assemble_surfaces``), and so is the solve.  Every row gets
    the bits of ``fit_curve`` on its resampled dataset.  An entry is the
    row's ``QuantileCurveFit``, or the ``DataValidationError`` or
    ``EstimationError`` that stops it, with the text its resampled dataset
    would raise.
    """
    grid = grid or QuantileGrid.default()
    out = assemble_surfaces(data, counts, bandwidth, kind)
    y1, deltas, errors = _frontier_rows(data, counts, delta)
    for b, surface in enumerate(out):
        if not isinstance(surface, Exception) and errors[b]:
            out[b] = errors[b]
    live = [b for b, surface in enumerate(out) if not isinstance(surface, Exception)]
    if live:
        fits = _solve_rows(data, [out[b] for b in live], y1[live], deltas[live], grid, V, stop_at_frontier)
        for b, fit in zip(live, fits):
            out[b] = fit
    return out


def _solve_rows(data: Dataset, surfaces: list, y_hat: np.ndarray, deltas: np.ndarray, grid: QuantileGrid, V,
                stop_at_frontier: bool) -> list:
    """``fit_curve`` on each surface, with its row of support bounds y_hat (B, L) and cushions (B, L).

    The surfaces share one grid size and one pattern of open cells, as the
    rows of one assembly do.  With a triangular order the rows are solved
    together, a step of the order at a time; otherwise each runs
    Gauss-Newton.  The frontier, the NaN rows past it and each point's
    status are then taken for every row at once, from each row's residual,
    so each row gets the bits it would get alone.
    """
    u, M = grid.points, grid.size
    K = surfaces[0].n_instrument_levels
    upper = y_hat * (1.0 - BOX_CLAMP)
    edge = y_hat - deltas  # the frontier cushion
    order = _triangular_order(surfaces[0].p_hat)
    if order is None:
        theta = np.stack([_gauss_newton_sweep(s, V, u, edge[b], upper[b], stop_at_frontier)
                          for b, s in enumerate(surfaces)])
        why = NOT_CERTIFIED
    else:
        theta, why = _triangular_sweep(surfaces, order, u, upper)

    hit = (theta >= edge[:, None]).any(axis=2)
    triggered = hit.any(axis=1)
    m_hat = np.where(triggered, hit.argmax(axis=1), M - 1)
    if stop_at_frontier:
        theta[np.arange(M) > m_hat[:, None]] = np.nan
    r = np.stack([residual_vector(t, u, s) for t, s in zip(theta, surfaces)])
    if V is not None and not V.is_identity:
        factors = [V.factor(float(x), K) for x in u]
        r = np.stack([np.stack([ct @ row for ct, row in zip(factors, rb)]) for rb in r])
    resid = np.abs(r).max(axis=2)
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
