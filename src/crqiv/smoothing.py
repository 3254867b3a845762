"""Kernel smoothing of step functions with an Epanechnikov kernel.

Two smoother kinds are provided.  The convolution kind evaluates
integral step(t - s*eps) K(s) ds in closed form over the step function's
pieces.  The local-linear kind fits a degree-1 weighted least squares
polynomial to the step function sampled on a dense internal grid; the
window moment sums are accumulated with prefix sums, so the whole curve
costs O(grid size).

Both kinds use a boundary-shrinking bandwidth h(t) = min(eps, t) so the
kernel window never crosses zero: the smoothed curve starts exactly at the
step function's value at 0 and converges to the fixed-bandwidth smoother
for t >= eps.  Output is clipped to [0, 1] and made non-increasing with a
running minimum.

Curves are stored as piecewise-linear interpolants on a grid the caller
chooses; the surface passes one fixed-size uniform grid shared by all its
cells, so the stored size does not grow with the sample.  A curve is held
flat past its own range, the last jump plus the bandwidth, where it has
reached its final value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .survival import StepFunction

__all__ = [
    "SmoothedCurve",
    "smooth",
    "default_bandwidth",
    "rule_of_thumb_bandwidth",
    "epanechnikov_cdf",
]

SMOOTHER_KINDS = ("local_linear", "convolution")

# density of the local-linear smoother's internal sample grid
_SAMPLE_POINTS = 512


def epanechnikov_cdf(x):
    """Integral of K(s) = 3/4 (1 - s^2) on [-1, 1] from -1 to x."""
    x = np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0)
    return 0.75 * (x - x**3 / 3.0) + 0.5


def rule_of_thumb_bandwidth(sigma: float, n: int) -> float:
    """Normal-reference rule for the Epanechnikov kernel: 2.34 sigma n^(-1/5)."""
    if sigma <= 0 or not np.isfinite(sigma):
        raise ValueError("sigma must be positive and finite")
    if n < 2:
        raise ValueError("need at least 2 observations")
    return 2.34 * float(sigma) * float(n) ** (-0.2)


def default_bandwidth(sample, counts=None) -> float:
    """Rule-of-thumb bandwidth with robust scale min(sd, IQR/1.349).

    ``counts`` gives each sample point's multiplicity, as in a bootstrap
    replicate; the sample must then be in ascending order, and the
    quartiles are its exact order statistics under numpy's default
    ``linear`` percentile rule.  Raises ValueError on degenerate samples
    (fewer than 2 points or zero spread); pass an explicit bandwidth in
    that case.
    """
    x = np.asarray(sample, dtype=np.float64).ravel()
    size = x.size if counts is None else int(counts.sum())
    if size < 2:
        raise ValueError(
            "bandwidth rule needs at least 2 observations; pass an explicit bandwidth"
        )
    if counts is None:
        sd = float(np.std(x, ddof=1))
        q75, q25 = np.percentile(x, [75.0, 25.0])
    else:
        mean = float(counts @ x) / size
        sd = float(np.sqrt(counts @ (x - mean) ** 2 / (size - 1)))
        cum = np.cumsum(counts)
        q75, q25 = (_weighted_percentile(x, cum, size, q) for q in (0.75, 0.25))
    sigma = min(sd, (q75 - q25) / 1.349)
    if sigma <= 0 or not np.isfinite(sigma):
        raise ValueError(
            "degenerate sample (zero spread); pass an explicit bandwidth"
        )
    return rule_of_thumb_bandwidth(sigma, size)


def _weighted_percentile(x: np.ndarray, cum: np.ndarray, size: int, q: float) -> float:
    """np.percentile(.., 100 q) of ascending x with point i repeated as cum's increments.

    Interpolates between the order statistics at floor and floor + 1 of the
    virtual index (size - 1) q, both found on the cumulative counts, in
    numpy's own lerp form, so the result is numpy's to the bit.
    """
    virtual = (size - 1) * q
    lo = int(np.floor(virtual))
    a, b = x[np.searchsorted(cum, [lo, lo + 1], side="right")]
    gamma = virtual - lo
    diff = b - a
    return float(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)


@dataclass(frozen=True)
class SmoothedCurve:
    """Piecewise-linear curve on a knot grid, flat beyond the ends."""

    knots: np.ndarray
    values: np.ndarray
    bandwidth: float
    kind: str

    def __call__(self, t):
        return np.interp(t, self.knots, self.values)


def _smooth_convolution(step: StepFunction, bandwidth: float, knots: np.ndarray) -> np.ndarray:
    jumps = step.jump_times
    padded = np.concatenate(([step.value_at_zero], step.values))
    deltas = np.diff(padded)
    h = np.minimum(bandwidth, knots)
    out = np.empty(knots.shape)
    for i, (t, ht) in enumerate(zip(knots, h)):
        if ht <= 0.0:
            out[i] = step(t)
            continue
        jlo = np.searchsorted(jumps, t - ht, side="right")
        jhi = np.searchsorted(jumps, t + ht, side="left")
        base = padded[jlo]  # value after all jumps fully below the window
        if jhi > jlo:
            g = epanechnikov_cdf((t - jumps[jlo:jhi]) / ht)
            base = base + float(np.dot(deltas[jlo:jhi], g))
        out[i] = base
    return out


def _smooth_local_linear(
    step: StepFunction, bandwidth: float, knots: np.ndarray, t_max: float
) -> np.ndarray:
    xs = np.unique(
        np.concatenate((np.linspace(0.0, t_max, _SAMPLE_POINTS), step.jump_times))
    )
    g = step(xs)

    # normalize the abscissa so high-order moment sums stay well conditioned
    scale = t_max if t_max > 0 else 1.0
    x = xs / scale
    tq = knots / scale
    h = np.minimum(bandwidth / scale, tq)

    powers = [np.ones_like(x), x, x**2, x**3, x**4]
    pm = [np.concatenate(([0.0], np.cumsum(p))) for p in powers]
    pg = [np.concatenate(([0.0], np.cumsum(g * p))) for p in powers[:4]]

    lo = np.searchsorted(x, tq - h, side="left")
    hi = np.searchsorted(x, tq + h, side="right")

    def wsum(prefix, j):
        return prefix[j][hi] - prefix[j][lo]

    m0, m1, m2, m3, m4 = (wsum(pm, j) for j in range(5))
    g0, g1, g2, g3 = (wsum(pg, j) for j in range(4))

    t1, t2, t3, t4 = tq, tq**2, tq**3, tq**4
    d0 = m0
    d1 = m1 - t1 * m0
    d2 = m2 - 2 * t1 * m1 + t2 * m0
    d3 = m3 - 3 * t1 * m2 + 3 * t2 * m1 - t3 * m0
    d4 = m4 - 4 * t1 * m3 + 6 * t2 * m2 - 4 * t3 * m1 + t4 * m0
    e0 = g0
    e1 = g1 - t1 * g0
    e2 = g2 - 2 * t1 * g1 + t2 * g0
    e3 = g3 - 3 * t1 * g2 + 3 * t2 * g1 - t3 * g0

    with np.errstate(divide="ignore", invalid="ignore"):
        h2 = h**2
        s0 = d0 - d2 / h2
        s1 = d1 - d3 / h2
        s2 = d2 - d4 / h2
        u0 = e0 - e2 / h2
        u1 = e1 - e3 / h2
        det = s0 * s2 - s1**2
        beta0 = (s2 * u0 - s1 * u1) / det
        local_const = u0 / s0

    # fall back to local-constant, then to the raw step, where the window
    # holds too few points for a degree-1 fit
    det_ok = np.isfinite(det) & (det > 1e-12 * np.maximum(s0 * s2, 1e-300))
    out = np.where(det_ok, beta0, np.where(np.isfinite(local_const) & (s0 > 0), local_const, np.nan))
    return np.where(np.isfinite(out), out, step(knots))


def smooth(step: StepFunction, bandwidth: float, kind: str, grid: np.ndarray) -> SmoothedCurve:
    """Smooth a step function into a continuous non-increasing curve in [0, 1].

    The curve is evaluated on ``grid`` (ascending, from 0), clamped at the
    step's own range so that it stays flat beyond it.
    """
    if bandwidth <= 0 or not np.isfinite(bandwidth):
        raise ValueError("bandwidth must be positive")
    if kind not in SMOOTHER_KINDS:
        raise ValueError(f"unknown smoother kind {kind!r}; options: {SMOOTHER_KINDS}")
    own_range = step.jump_times.max(initial=0.0) + bandwidth
    knots = np.minimum(grid, own_range)
    if kind == "convolution":
        values = _smooth_convolution(step, bandwidth, knots)
    else:
        values = _smooth_local_linear(step, bandwidth, knots, own_range)
    values = np.minimum.accumulate(np.clip(values, 0.0, 1.0))
    return SmoothedCurve(grid, values, float(bandwidth), kind)
