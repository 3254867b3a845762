"""Quantities derived from a fitted quantile curve.

Given the estimated quantile function of the primary-cause duration at a
treatment level, the cumulative incidence is its generalized inverse, the
density along the curve is the reciprocal slope, and hazards follow by
dividing the density by the remaining risk mass. The secondary-cause
incidence needed for the cause-specific hazard comes from a second fit
with the event labels swapped (or any curve fit supplied in its place).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import QuantileCurveFit
from .surface import SmoothedSurvivalSurface

__all__ = [
    "MonotoneCurve",
    "DerivedLevel",
    "derived_quantities",
    "RankConditionReport",
    "rank_condition_diagnostic",
]


def pava_nondecreasing(values: np.ndarray) -> np.ndarray:
    """Least-squares projection onto nondecreasing sequences (equal weights).

    Pool-adjacent-violators; returns a new array.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    # blocks as (total, count), merged while out of order
    totals = []
    counts = []
    for x in v:
        totals.append(float(x))
        counts.append(1)
        while len(totals) > 1 and totals[-2] * counts[-1] > totals[-1] * counts[-2]:
            t, c = totals.pop(), counts.pop()
            totals[-1] += t
            counts[-1] += c
    out = np.empty(n)
    i = 0
    for t, c in zip(totals, counts):
        out[i : i + c] = t / c
        i += c
    return out


@dataclass(frozen=True, eq=False)
class MonotoneCurve:
    """Nondecreasing piecewise-linear curve through (0, 0) and given knots.

    It maps quantile level to time; ``inverse`` is the left-continuous
    generalized inverse inf{u : curve(u) >= t}, which is the cumulative
    incidence when the curve is a quantile function.
    """

    u: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64)
        if u.ndim != 1 or u.shape != t.shape or u.size == 0:
            raise ValueError("need matching 1-d knot arrays")
        if u[0] < 0 or np.any(np.diff(u) <= 0):
            raise ValueError("quantile knots must be strictly increasing and nonnegative")
        if np.any(np.diff(t) < 0) or t[0] < 0:
            raise ValueError("time knots must be nondecreasing and nonnegative")
        if u[0] > 0:
            u = np.concatenate(([0.0], u))
            t = np.concatenate(([0.0], t))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "t", t)

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    def inverse(self, t):
        # keep the first u of every flat stretch so the inverse is the inf
        keep = np.concatenate(([True], np.diff(self.t) > 0))
        return np.interp(t, self.t[keep], self.u[keep])


@dataclass(eq=False)
class DerivedLevel:
    """Derived curves for one treatment level, on its reported grid points."""

    level: int
    label: object
    u: np.ndarray  # reported quantile levels
    t: np.ndarray  # quantile curve values (isotonic-projected if needed)
    slope: np.ndarray  # d t / d u along the curve
    density: np.ndarray  # incidence density at t: 1 / slope
    subdist_hazard: np.ndarray  # density / (1 - u)
    cause_hazard: np.ndarray  # density / (1 - u - F2(t)); NaN where undefined
    cause_hazard_valid: np.ndarray  # bool mask for the line above
    isotonic_adjusted: bool
    curve: MonotoneCurve  # its inverse is the primary-cause cumulative incidence


def _level_points(fit: QuantileCurveFit, level: int):
    mask = fit.reported_mask & np.isfinite(fit.theta[:, level])
    return fit.grid.points[mask], fit.theta[mask, level]


def derived_quantities(fit: QuantileCurveFit, cause2_fit: QuantileCurveFit) -> dict[int, DerivedLevel]:
    """Incidence, density, and hazards per treatment level.

    Uses only reported grid points. Non-monotone quantile values are
    projected onto nondecreasing sequences first (flagged per level).
    Slopes use centered differences inside the reported range and one-sided
    differences at its ends. The cause-specific hazard needs the
    secondary-cause incidence, from ``cause2_fit``, a curve fit of the
    secondary cause (for instance on ``swap_causes(data)``); points where
    it gives no usable value are NaN and flagged invalid.
    """
    out: dict[int, DerivedLevel] = {}
    L = fit.theta.shape[1]
    for level in range(L):
        u, t = _level_points(fit, level)
        if u.size == 0:
            continue
        isotonic = bool(np.any(np.diff(t) < 0))
        if isotonic:
            t = pava_nondecreasing(t)
        curve = MonotoneCurve(u, t)
        if u.size >= 2:
            slope = np.gradient(t, u)
        else:
            slope = np.full(u.size, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            density = np.where(slope > 0, 1.0 / slope, np.nan)
            subdist = density / (1.0 - u)
        cause = np.full(u.size, np.nan)
        valid = np.zeros(u.size, dtype=bool)
        u2, t2 = _level_points(cause2_fit, level)
        if u2.size:
            c2 = MonotoneCurve(u2, t2)
            inside = t <= c2.t_max
            f2 = np.where(inside, c2.inverse(np.minimum(t, c2.t_max)), np.nan)
            denom = 1.0 - u - f2
            valid = inside & np.isfinite(density) & np.isfinite(denom) & (denom > 0)
            cause[valid] = density[valid] / denom[valid]
        out[level] = DerivedLevel(
            level,
            fit.treatment_levels[level],
            u,
            t,
            slope,
            density,
            subdist,
            cause,
            valid,
            isotonic,
            curve,
        )
    return out


@dataclass(frozen=True)
class RankConditionReport:
    """Outcome of the determinant-sign screen for instrument relevance.

    The screen evaluates, over a product grid of candidate time pairs, the
    determinant of the 2x2 matrix of primary-cause density estimates
    (rows: instrument level, columns: (time, treatment) pairs). The data
    are informative for the system when the determinant keeps one sign.
    """

    applicable: bool
    n_evaluated: int
    n_skipped: int  # grid points with a negative density estimate
    n_degenerate: int  # |det| below the resolution threshold
    majority_sign: int  # -1, 0, +1
    agreement: float  # share of evaluated points matching the majority sign
    passed: bool


# a determinant at most this share of the largest density squared counts as zero
DEGENERATE_RTOL = 1e-9


def _density_profile(surface: SmoothedSurvivalSurface, z: int, w: int, ts: np.ndarray, step: float):
    lo = surface.evaluate(np.maximum(ts - step, 0.0), z, w)
    hi = surface.evaluate(ts + step, z, w)
    return (np.asarray(lo) - np.asarray(hi)) / (ts + step - np.maximum(ts - step, 0.0))


def rank_condition_diagnostic(surface: SmoothedSurvivalSurface, y1) -> RankConditionReport:
    """Sign-agreement screen for the two-level, two-instrument system.

    Each treatment level's time grid spans the interior of its support
    bound in ``y1``, from 5% to 90% of it.  Density estimates are
    symmetric difference quotients of the smoothed survival surface with
    half-width half the largest curve bandwidth (5% of the largest grid
    time when no curve has one). Not applicable unless L = K = 2.
    """
    if surface.n_treatment_levels != 2 or surface.n_instrument_levels != 2:
        return RankConditionReport(False, 0, 0, 0, 0, 0.0, False)
    fr = np.linspace(0.05, 0.90, 18)
    t1, t2 = fr * float(y1[0]), fr * float(y1[1])
    step = 0.5 * max(surface.bandwidths.values(), default=0.0) or 0.05 * max(t1.max(), t2.max())
    f00, f01 = (_density_profile(surface, 0, w, t1, step) for w in (0, 1))
    f10, f11 = (_density_profile(surface, 1, w, t2, step) for w in (0, 1))

    det = np.outer(f00, f11) - np.outer(f01, f10)
    neg = (f00 < 0)[:, None] | (f01 < 0)[:, None] | (f10 < 0)[None, :] | (f11 < 0)[None, :]
    fscale = max(float(np.max(np.abs(f), initial=0.0)) for f in (f00, f01, f10, f11))
    tol = DEGENERATE_RTOL * max(fscale, 1e-300) ** 2

    n_skipped = int(np.count_nonzero(neg))
    use = ~neg
    n_evaluated = int(np.count_nonzero(use))
    signs = np.sign(det[use])
    signs[np.abs(det[use]) <= tol] = 0
    n_pos = int(np.count_nonzero(signs > 0))
    n_neg = int(np.count_nonzero(signs < 0))
    n_degenerate = int(np.count_nonzero(signs == 0))
    if n_pos == 0 and n_neg == 0:
        majority, agreement = 0, 0.0
    else:
        majority = 1 if n_pos >= n_neg else -1
        agreement = (n_pos if majority > 0 else n_neg) / n_evaluated if n_evaluated else 0.0
    passed = n_evaluated > 0 and agreement == 1.0
    return RankConditionReport(True, n_evaluated, n_skipped, n_degenerate, majority, agreement, passed)
