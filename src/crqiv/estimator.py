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

import numpy as np

from .data import Dataset
from .optim import CERT_TOL, minimize_box_multistart
from .smoothing import default_bandwidth
from .surface import EstimationError, SmoothedSurvivalSurface, assemble_surface
from .survival import _cell_process, incidence_from, presort

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FrontierEstimates:
    """Estimated support bounds and identification frontier."""

    y_hat: np.ndarray  # (L,) largest primary-cause event time per level
    delta: np.ndarray  # (L,) frontier cushion per level
    u_hat: float  # estimated frontier quantile (a grid point)
    m_hat: int  # 0-based grid index of u_hat
    u_prev: float  # grid point before u_hat (0.0 when u_hat is the first)
    triggered: bool  # False when no grid point hit the cushion


@dataclass
class QuantileCurveFit:
    grid: QuantileGrid
    theta: np.ndarray  # (M, L) solution vectors
    objective: np.ndarray  # (M,) r' V r at theta
    residual: np.ndarray  # (M,) max |(C' r)_k| at theta, V = C C'
    converged: np.ndarray  # (M,) bool: residual <= CERT_TOL
    reported_mask: np.ndarray  # (M,) bool: u < u_hat and converged
    frontiers: FrontierEstimates
    treatment_levels: list
    instrument_levels: list
    warnings: list = field(default_factory=list)

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
            "converged": self.converged.astype(bool).tolist(),
            "reported": self.reported_mask.astype(bool).tolist(),
            "u_hat": fr.u_hat,
            "m_hat": fr.m_hat,
            "u_prev": fr.u_prev,
            "frontier_triggered": fr.triggered,
            "y1_hat": fr.y_hat.tolist(),
            "delta": fr.delta.tolist(),
            "warnings": list(self.warnings),
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


def _cause1_times(data: Dataset, level: int, counts):
    """A level's primary-cause event times, and their counts (None: once each).

    With counts the times are in ascending order, as ``default_bandwidth``
    needs them with counts.
    """
    if counts is None:
        return data.y[(data.z == level) & (data.event == 1)], None
    idx = presort(data).cause1[level]
    return data.y[idx], counts[idx]


def estimate_y1(data: Dataset, counts: np.ndarray | None = None) -> np.ndarray:
    """Largest follow-up time with a primary-cause event, per treatment level.

    ``counts`` gives each record's multiplicity (None counts each once).
    """
    out = np.empty(data.n_treatment_levels)
    for zi in range(data.n_treatment_levels):
        times, c = _cause1_times(data, zi, counts)
        if c is not None:
            times = times[c > 0]
        if not times.size:
            raise EstimationError(
                f"treatment level {data.treatment_levels[zi]!r} has no primary-cause events; "
                "its quantile support bound cannot be estimated"
            )
        out[zi] = times.max()
    return out


def default_delta(data: Dataset, level: int, counts: np.ndarray | None = None) -> float:
    """Frontier cushion: bandwidth rule on the level's primary-cause event times."""
    try:
        return default_bandwidth(*_cause1_times(data, level, counts))
    except ValueError as exc:
        raise EstimationError(f"frontier cushion at treatment level {data.treatment_levels[level]!r}: {exc}") from None


def estimate_caps(data: Dataset) -> np.ndarray:
    """Upper support estimate per treatment level: max observed y, any event."""
    out = np.empty(data.n_treatment_levels)
    for zi in range(data.n_treatment_levels):
        mask = data.z == zi
        if not mask.any():
            raise EstimationError(f"no records at treatment level {data.treatment_levels[zi]!r}")
        out[zi] = data.y[mask].max()
    return out


def _resolve_delta(delta, data: Dataset, L: int, counts) -> np.ndarray:
    if delta is None:
        return np.array([default_delta(data, l, counts) for l in range(L)])
    arr = np.asarray(delta, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(L, float(arr))
    if arr.shape != (L,) or (arr <= 0).any():
        raise ValueError("delta must be a positive scalar or one positive value per level")
    return arr


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


def _generalized_inverse(grid: np.ndarray, row: np.ndarray, target: np.ndarray) -> np.ndarray:
    """inf{t >= 0 : v(t) <= target} per target, v the piecewise-linear row on grid.

    ``np.searchsorted`` on the negated running minimum of the row finds the
    first knot at or below the target; the crossing is then interpolated
    inside the segment ending there.  A target at or above v(0) gives 0, so
    a flat stretch at the target gives its left end; a target below every
    value gives inf.
    """
    low = np.minimum.accumulate(row)
    i = np.searchsorted(-low, -target)
    hi = np.minimum(i, grid.size - 1)
    lo = np.maximum(hi - 1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = grid[hi] - (target - row[hi]) / (row[lo] - row[hi]) * (grid[hi] - grid[lo])
    return np.where(i == 0, 0.0, np.where(i == grid.size, np.inf, t))


def _triangular_sweep(surface: SmoothedSurvivalSurface, order, u: np.ndarray, upper: np.ndarray):
    """theta (M, L) solving a triangular system over the whole grid u, clipped to [0, upper].

    Also returns, per grid point, the first step whose inversion left the
    box as (k, l, face) with face "below" or "above", or None.
    """
    theta = np.zeros((u.size, surface.n_treatment_levels))
    no_root = [None] * u.size
    for k, l in order:
        target = 1.0 - u
        for j in np.flatnonzero(surface.p_hat[:, k]):
            if j != l:
                target = target - surface.evaluate(theta[:, j], j, k)
        raw = _generalized_inverse(surface.grid, surface.values[l, k], target)
        theta[:, l] = np.clip(raw, 0.0, upper[l])
        for face, out in (("below", target > surface.evaluate(0.0, l, k)), ("above", raw > upper[l])):
            for m in np.flatnonzero(out):
                no_root[m] = no_root[m] or (k, l, face)
    return theta, no_root


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
    counts: np.ndarray | None = None,
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

    ``counts`` gives each record's multiplicity, so that a bootstrap
    replicate is fitted on the sample itself with no resampled copy; None
    counts every record once.  It enters every sample statistic: the
    surface (unless one is given), the support bounds and the cushions.
    """
    grid = grid or QuantileGrid.default()
    if surface is None:
        surface = assemble_surface(data, bandwidth=bandwidth, kind=kind, counts=counts)
    L = data.n_treatment_levels
    y_hat = estimate_y1(data, counts)
    deltas = _resolve_delta(delta, data, L, counts)
    upper = y_hat * (1.0 - BOX_CLAMP)
    edge = y_hat - deltas  # the frontier cushion
    u = grid.points
    M = grid.size
    warnings: list[str] = []

    order = _triangular_order(surface.p_hat)
    if order is None:
        theta = _gauss_newton_sweep(surface, V, u, edge, upper, stop_at_frontier)
        no_root = [None] * M
    else:
        theta, no_root = _triangular_sweep(surface, order, u, upper)

    hit = np.flatnonzero((theta >= edge).any(axis=1))
    triggered = hit.size > 0
    m_hat = int(hit[0]) if triggered else M - 1
    if stop_at_frontier:
        theta[m_hat + 1 :] = np.nan
    r = residual_vector(theta, u, surface)
    if V is not None and not V.is_identity:
        r = np.stack([V.factor(float(x), r.shape[1]) @ row for x, row in zip(u, r)])
    obj_vals = np.einsum("mk,mk->m", r, r)
    resid = np.abs(r).max(axis=1)
    converged = resid <= CERT_TOL
    before = (np.arange(M) < m_hat) | (not triggered)
    reported = converged & before
    missed = before & ~converged
    if missed.any():
        warnings.append(
            f"no certified root (residual > {CERT_TOL:g}) at u = "
            + ", ".join(f"{x:g}" for x in u[missed])
            + f" (largest residual {resid[missed].max():.3g}); they are not reported"
        )
    reasons: dict = {}
    for m in np.flatnonzero(missed):
        if no_root[m] is not None:
            reasons.setdefault(no_root[m], []).append(u[m])
    for (k, l, face), us in reasons.items():
        bound = "0" if face == "below" else f"{y_hat[l]:g}"
        warnings.append(
            "no root in the box at u = "
            + ", ".join(f"{x:g}" for x in us)
            + f": instrument level {data.instrument_levels[k]} needs treatment level "
            + f"{data.treatment_levels[l]} {face} {bound}"
        )
    if not triggered:
        warnings.append(
            "frontier cushion never reached on the grid; reporting the whole grid "
            "(the identification frontier may exceed the grid range)"
        )
    u_hat = float(u[m_hat])
    u_prev = float(u[m_hat - 1]) if m_hat > 0 else 0.0

    frontiers = FrontierEstimates(y_hat, deltas, u_hat, m_hat, u_prev, triggered)
    return QuantileCurveFit(
        grid,
        theta,
        obj_vals,
        resid,
        converged,
        reported,
        frontiers,
        list(data.treatment_levels),
        list(data.instrument_levels),
        warnings,
    )


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
        mask = data.z == zi
        inc = incidence_from(_cell_process(data.y[mask], data.event[mask]), cause=1)
        if inc.jump_times.size == 0:
            continue
        idx = np.searchsorted(inc.values, grid.points, side="left")
        hit = idx < inc.values.size
        out[hit, zi] = inc.jump_times[idx[hit]]
    return out
