"""Kernel smoothing of step functions with an Epanechnikov kernel.

Two smoother kinds are provided.  The convolution kind evaluates
integral step(t - s*eps) K(s) ds in closed form: K's CDF is a cubic, so
each value is the step below the window plus moments 0, 1 and 3 of the
jumps inside it.  The local-linear kind fits a degree-1 weighted least
squares polynomial to the step function sampled on a dense internal grid.
Both take their window moments from prefix sums (``_window_sums``), so a
whole curve costs O(jumps + grid size) whatever the bandwidth.

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

import math
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


def _window_sums(x, w, t, lo, hi, degree: int, width=None) -> list:
    """Sums of w * (x - t)^p over each window x[lo:hi], one array per p = 0..degree.

    Ascending ``x`` is cut into blocks [b width, (b + 1) width), or is one
    block from 0 without ``width``.  A window's piece in each block expands
    binomially about the block's left edge into prefix sums of
    w * (x - edge)^k, so a window costs O(1), and for windows up to 2 width
    wide the rounding stays near eps |w| width^p whatever the range of x.
    """
    if x.size == 0:
        return [np.zeros(t.shape) for _ in range(degree + 1)]
    block = np.zeros(x.size, np.intp) if width is None else (x // width).astype(np.intp)
    edge = 0.0 if width is None else width * block
    prefix = [np.concatenate(([0.0], np.cumsum(w * (x - edge) ** k))) for k in range(degree + 1)]
    # the blocks each nonempty window touches: first .. first + span at most
    first = block[np.minimum(lo, x.size - 1)]
    span = np.max(block[np.maximum(hi - 1, 0)] - first, where=hi > lo, initial=0)
    sums = None
    for r in range(int(span) + 1):
        q = first + r
        a = np.maximum(lo, np.searchsorted(block, q))
        b = np.maximum(np.minimum(hi, np.searchsorted(block, q + 1)), a)
        m = [pk[b] - pk[a] for pk in prefix]
        d = t if width is None else t - width * q
        piece = []
        for p in range(degree + 1):
            acc = m[p]
            for j in range(1, p + 1):
                term = math.comb(p, j) * d**j * m[p - j]
                acc = acc - term if j % 2 else acc + term
            piece.append(acc)
        sums = piece if sums is None else [s + c for s, c in zip(sums, piece)]
    return sums


def _smooth_convolution(
    step: StepFunction, bandwidth: float, knots: np.ndarray, t_max: float
) -> np.ndarray:
    # with d = s - t over jumps s strictly inside the window, K's CDF at
    # -d/h is 1/2 - 3/4 d/h + 1/4 (d/h)^3; jumps below the window count whole
    x = step.jump_times / t_max
    tq = knots / t_max
    h = np.minimum(bandwidth / t_max, tq)
    padded = np.concatenate(([step.value_at_zero], step.values))
    lo = np.searchsorted(x, tq - h, side="right")
    hi = np.maximum(np.searchsorted(x, tq + h, side="left"), lo)
    c0, c1, _, c3 = _window_sums(x, np.diff(padded), tq, lo, hi, 3, bandwidth / t_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = padded[lo] + 0.5 * c0 - 0.75 * c1 / h + 0.25 * c3 / h**3
    # a zero-width window at t = 0 is the step's own value there
    return np.where(h > 0.0, out, padded[lo])


def _smooth_local_linear(
    step: StepFunction, bandwidth: float, knots: np.ndarray, t_max: float
) -> np.ndarray:
    xs = np.unique(
        np.concatenate((np.linspace(0.0, t_max, _SAMPLE_POINTS), step.jump_times))
    )
    g = step(xs)

    # normalize the abscissa so high-order moment sums stay well conditioned
    x = xs / t_max
    tq = knots / t_max
    h = np.minimum(bandwidth / t_max, tq)

    lo = np.searchsorted(x, tq - h, side="left")
    hi = np.searchsorted(x, tq + h, side="right")
    d0, d1, d2, d3, d4 = _window_sums(x, np.ones_like(x), tq, lo, hi, 4)
    e0, e1, e2, e3 = _window_sums(x, g, tq, lo, hi, 3)

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
        values = _smooth_convolution(step, bandwidth, knots, own_range)
    else:
        values = _smooth_local_linear(step, bandwidth, knots, own_range)
    values = np.minimum.accumulate(np.clip(values, 0.0, 1.0))
    return SmoothedCurve(grid, values, float(bandwidth), kind)
