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

``smooth_rows`` smooths a block of step functions, one per row of padded
arrays; each row gets the bits it would get alone, and ``smooth`` is the
block of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .survival import StepFunction

__all__ = [
    "SmoothedCurve",
    "smooth",
    "rule_of_thumb_bandwidth",
]

SMOOTHER_KINDS = ("local_linear", "convolution")

# density of the local-linear smoother's internal sample grid
_SAMPLE_POINTS = 512


def rule_of_thumb_bandwidth(sigma: float, n: int) -> float:
    """Normal-reference rule for the Epanechnikov kernel: 2.34 sigma n^(-1/5)."""
    if sigma <= 0 or not np.isfinite(sigma):
        raise ValueError("sigma must be positive and finite")
    if n < 2:
        raise ValueError("need at least 2 observations")
    return 2.34 * float(sigma) * float(n) ** (-0.2)


_TOO_FEW = "bandwidth rule needs at least 2 observations; pass an explicit bandwidth"
_NO_SPREAD = "degenerate sample (zero spread); pass an explicit bandwidth"


def bandwidth_rows(x: np.ndarray, counts: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """The rule-of-thumb bandwidth of ascending ``x`` under each row of counts (B, n).

    Its scale is min(sd, IQR/1.349).  Returns the B bandwidths, NaN where
    the rule fails, and per row the reason it fails or None.  The
    quartiles are each row's exact order statistics under numpy's default
    ``linear`` percentile rule.  The moments are fixed-order ufunc
    reductions, one row at a time along the last axis, so each row's bits
    do not depend on B or on how many threads a BLAS library would use.  Without counts, every point counts
    once, as one row: that row's bits, with no product by the counts, no
    sum of them and no search for the quartiles.
    """
    size = np.array([x.size]) if counts is None else counts.sum(axis=1)
    h = np.full(size.shape, np.nan)
    reasons = [None if m >= 2 else _TOO_FEW for m in size.tolist()]
    ok = np.flatnonzero(size >= 2)
    m = size[ok]
    if counts is None:
        mean = np.add.reduce(x[None], axis=1) / m
        sd = np.sqrt(np.add.reduce((x[None] - mean[:, None]) ** 2, axis=1) / (m - 1))
        cum = None
    else:
        c = counts[ok]
        # one (B, n) buffer takes c x, then x - mean, its square and c (x - mean)^2 in turn
        buf = np.multiply(c, x)
        mean = np.add.reduce(buf, axis=1) / m
        np.subtract(x, mean[:, None], out=buf)
        np.multiply(c, np.square(buf, out=buf), out=buf)
        sd = np.sqrt(np.add.reduce(buf, axis=1) / (m - 1))
        del buf
        cum = np.cumsum(c, axis=1)
        del c
    q75, q25 = _quartiles(x, cum, m).T
    sigma = np.minimum(sd, (q75 - q25) / 1.349)
    for b, s, mb in zip(ok.tolist(), sigma.tolist(), m.tolist()):
        if s > 0 and math.isfinite(s):
            h[b] = rule_of_thumb_bandwidth(s, mb)
        else:
            reasons[b] = _NO_SPREAD
    return h, reasons


def _quartiles(x: np.ndarray, cum: np.ndarray | None, size: np.ndarray) -> np.ndarray:
    """np.percentile(.., [75, 25]) of ascending x with point i repeated as each row of cum's increments, (B, 2).

    Interpolates between the order statistics at floor and floor + 1 of
    each virtual index (size - 1) q, all four found on the cumulative
    counts in one search a row, or, with cum None (every point once), at
    those positions.
    """
    virtual = (size - 1)[:, None] * np.array([0.75, 0.25])
    lo = np.floor(virtual).astype(np.intp)
    at = np.concatenate((lo, lo + 1), axis=1)
    # the first position whose cumulative count passes each index, in each row
    stats = x[at if cum is None else _rows_searchsorted(cum, at, "right")]
    return _lerp(stats[:, :2], stats[:, 2:], virtual - lo)


def _lerp(a, b, gamma):
    """Between the order statistics a and b at fraction gamma, in numpy's percentile form to the bit."""
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[b, idx[b]] for every row b, as one flat ``np.take``."""
    return np.take(a, idx + np.arange(len(a))[:, None] * a.shape[1])


def _rows_searchsorted(a: np.ndarray, v: np.ndarray, side: str = "left") -> np.ndarray:
    """``np.searchsorted`` of each row of v (B, Q) in the same row of a (B, P)."""
    return np.array([np.searchsorted(ar, vr, side) for ar, vr in zip(a, v)], dtype=np.intp).reshape(v.shape)


@dataclass(frozen=True, eq=False)
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

    Rows are independent: x and w are (B, P), each row of x ascending (a
    row may end in padding above every window), and t, lo and hi are
    (B, Q); w = None weighs every point 1.
    A row of ascending ``x`` is cut into blocks [b width, (b + 1) width),
    with ``width`` one value per row, or is one block from 0 without it.
    A window's piece in each block expands binomially about the block's
    left edge into prefix sums of w * (x - edge)^k, so a window costs O(1),
    and for windows up to 2 width wide the rounding stays near
    eps |w| width^p whatever the range of x.  Prefix sums run along each
    row, so every row gets the bits it would get alone.
    """
    B, P = x.shape
    if P == 0:
        return [np.zeros(t.shape) for _ in range(degree + 1)]
    if width is None:
        # one block from 0: every window is one piece
        edge, span, pieces = 0.0, 0, [(lo, np.maximum(hi, lo), t)]
    else:
        block = (x // width[:, None]).astype(np.intp)
        edge = width[:, None] * block
        # the blocks each nonempty window touches: first .. first + span at most
        first = _take_rows(block, np.minimum(lo, P - 1))
        last = _take_rows(block, np.maximum(hi - 1, 0))
        pieces = []
        for r in range(int(np.max(last - first, where=hi > lo, initial=0)) + 1):
            q = first + r
            # block q's part of each window; r = 0 starts at the window's own start
            a = np.maximum(lo, _rows_searchsorted(block, q)) if r else lo
            b = np.maximum(np.minimum(hi, _rows_searchsorted(block, q + 1)), a)
            pieces.append((a, b, t - width[:, None] * q))
    # moments m[piece][k] of each window's points in each piece: differences
    # of the prefix sums of w * (x - edge)^k, one k at a time
    base = np.arange(B)[:, None] * (P + 1)  # each row's offset in the flat prefix sums
    pieces = [(a + base, b + base, d) for a, b, d in pieces]
    moments = [[] for _ in pieces]
    dx = x if width is None else x - edge
    prefix = np.zeros((B, P + 1))
    for k in range(degree + 1):
        # dx^0 = 1 and dx^1 = dx exactly, so those powers are not taken, and unweighted points are counted
        term = w if k == 0 else dx if k == 1 else dx**k
        if w is not None and k:
            term = np.multiply(w, term, out=term if k > 1 else None)
        if term is not None:
            np.cumsum(term, axis=1, out=prefix[:, 1:])
        counted, term = term is None, None
        for m, (a, b, _) in zip(moments, pieces):
            m.append(np.subtract(b, a, dtype=np.float64) if counted else np.take(prefix, b) - np.take(prefix, a))
    del prefix, dx
    sums = [None] * (degree + 1)
    for m, (_, _, d) in zip(moments, pieces):
        d_pow = [None, d] + [d**j for j in range(2, degree + 1)]
        # highest order first, so that each moment is dropped once no order needs it
        for p in range(degree, -1, -1):
            acc = m[p]
            for j in range(1, p + 1):
                term = math.comb(p, j) * d_pow[j] * m[p - j]
                acc = acc - term if j % 2 else acc + term
            m[p] = None
            sums[p] = acc if sums[p] is None else sums[p] + acc
    return sums


def _smooth_convolution(jumps, padded, bandwidth, knots, t_max) -> np.ndarray:
    """Rows of the convolution smoother; arguments as ``smooth_rows`` passes them."""
    # with d = s - t over jumps s strictly inside the window, K's CDF at
    # -d/h is 1/2 - 3/4 d/h + 1/4 (d/h)^3; jumps below the window count whole
    x = np.where(np.isfinite(jumps), jumps / t_max[:, None], _PAD)
    tq = knots / t_max[:, None]
    h = np.minimum((bandwidth / t_max)[:, None], tq)
    lo = _rows_searchsorted(x, tq - h, "right")
    hi = np.maximum(_rows_searchsorted(x, tq + h, "left"), lo)
    c0, c1, _, c3 = _window_sums(x, np.diff(padded, axis=1), tq, lo, hi, 3, bandwidth / t_max)
    below = _take_rows(padded, lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = below + 0.5 * c0 - 0.75 * c1 / h + 0.25 * c3 / h**3
    # a zero-width window at t = 0 is the step's own value there
    return np.where(h > 0.0, out, below)


def _smooth_local_linear(jumps, padded, bandwidth, knots, t_max) -> np.ndarray:
    """Rows of the local-linear smoother; arguments as ``smooth_rows`` passes them."""
    # each row's sample grid: the union of _SAMPLE_POINTS uniform points on
    # [0, t_max] and its jumps, sorted, left-packed and padded with _PAD
    xs = np.concatenate((np.linspace(0.0, t_max, _SAMPLE_POINTS, axis=-1), jumps), axis=1)
    order = np.argsort(xs, axis=1, kind="stable")
    xs = _take_rows(xs, order)
    # the step's value at a sample point: padded at the number of jumps up to it
    n_up_to = np.cumsum(order >= _SAMPLE_POINTS, axis=1)
    del order
    differs = xs[:, 1:] != xs[:, :-1]
    finite = np.isfinite(xs)
    first = np.concatenate((np.ones((len(xs), 1), bool), differs), axis=1) & finite
    last = np.concatenate((differs, np.ones((len(xs), 1), bool)), axis=1) & finite
    del differs, finite
    # normalize the abscissa so high-order moment sums stay well conditioned
    x = left_pack(first, np.divide(xs, t_max[:, None], out=xs), _PAD)
    del xs, first
    g = left_pack(last, _take_rows(padded, n_up_to), 0.0)
    del n_up_to, last

    tq = knots / t_max[:, None]
    h = np.minimum((bandwidth / t_max)[:, None], tq)

    lo = _rows_searchsorted(x, tq - h, "left")
    hi = _rows_searchsorted(x, tq + h, "right")
    # each set of window sums is folded into its moments before the next is taken, so fewer arrays are alive
    with np.errstate(divide="ignore", invalid="ignore"):
        h2 = h**2
        d0, d1, d2, d3, d4 = _window_sums(x, None, tq, lo, hi, 4)
        s0 = d0 - d2 / h2
        s1 = d1 - d3 / h2
        s2 = d2 - d4 / h2
        del d0, d1, d2, d3, d4
        e0, e1, e2, e3 = _window_sums(x, g, tq, lo, hi, 3)
        del x, g, lo, hi
        u0 = e0 - e2 / h2
        u1 = e1 - e3 / h2
        del e0, e1, e2, e3
        det = s0 * s2 - s1**2
        beta0 = (s2 * u0 - s1 * u1) / det
        local_const = u0 / s0

    # fall back to local-constant, then to the raw step, where the window
    # holds too few points for a degree-1 fit
    det_ok = np.isfinite(det) & (det > 1e-12 * np.maximum(s0 * s2, 1e-300))
    out = np.where(det_ok, beta0, np.where(np.isfinite(local_const) & (s0 > 0), local_const, np.nan))
    # (in practice only at t = 0, where the window is empty)
    raw = ~np.isfinite(out)
    for b in np.flatnonzero(raw.any(axis=1)).tolist():
        out[b, raw[b]] = padded[b, np.searchsorted(jumps[b], knots[b, raw[b]], "right")]
    return out


# padding past a row's own points, above every window (the abscissa is in [0, 1])
_PAD = 3.0


def left_pack(mask: np.ndarray, values: np.ndarray, fill: float) -> np.ndarray:
    """Each row's values under mask (B, P), packed left in a (B, largest count) array padded with fill."""
    values = np.broadcast_to(values, mask.shape)
    if len(mask) == 1:
        return np.compress(mask[0], values, axis=1)
    size = mask.sum(axis=1)
    out = np.full((len(mask), size.max(initial=0)), fill)
    for row, m, v, k in zip(out, mask, values, size.tolist()):
        np.compress(m, v, out=row[:k])  # a row at a time, with no array of every packed value
    return out


def smooth_rows(jumps, values, at_zero, bandwidth, kind: str, grid) -> np.ndarray:
    """Smoothed values on each row of ``grid`` (B, G), one step function per row.

    Row b's step function has value ``at_zero[b]`` before its first jump,
    jumps at the finite entries of ``jumps[b]`` (ascending, then +inf
    padding) and takes ``values[b, i]`` from jump i on.  Each row is
    smoothed with ``bandwidth[b]`` and clamped at its own range, the last
    jump plus the bandwidth, so that it stays flat beyond it; every row
    gets the bits it would get alone.
    """
    if kind not in SMOOTHER_KINDS:
        raise ValueError(f"unknown smoother kind {kind!r}; options: {SMOOTHER_KINDS}")
    finite = np.isfinite(jumps)
    own_range = np.max(jumps, axis=1, where=finite, initial=0.0) + bandwidth
    # the knots past a row's own range all sit at it: smooth up to the first
    # of them in every row, and repeat the last value computed
    n_knots = min(int(np.count_nonzero(grid < own_range[:, None], axis=1).max()) + 1, grid.shape[1])
    knots = np.minimum(grid[:, :n_knots], own_range[:, None])
    padded = np.concatenate((at_zero[:, None], np.where(finite, values, 0.0)), axis=1)
    smoother = _smooth_convolution if kind == "convolution" else _smooth_local_linear
    out = np.empty(grid.shape)
    out[:, :n_knots] = np.minimum.accumulate(np.clip(smoother(jumps, padded, bandwidth, knots, own_range), 0.0, 1.0),
                                             axis=1)
    out[:, n_knots:] = out[:, n_knots - 1 : n_knots]
    return out


def smooth(step: StepFunction, bandwidth: float, kind: str, grid: np.ndarray) -> SmoothedCurve:
    """Smooth a step function into a continuous non-increasing curve in [0, 1].

    The curve is evaluated on ``grid`` (ascending, from 0), clamped at the
    step's own range so that it stays flat beyond it.
    """
    if bandwidth <= 0 or not np.isfinite(bandwidth):
        raise ValueError("bandwidth must be positive")
    values = smooth_rows(step.jump_times[None], step.values[None], np.array([step.value_at_zero]),
                         np.array([float(bandwidth)]), kind, np.asarray(grid, dtype=np.float64)[None])
    return SmoothedCurve(grid, values[0], float(bandwidth), kind)
