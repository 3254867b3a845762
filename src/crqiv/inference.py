"""Bootstrap confidence bands and Monte Carlo coverage evaluation.

A band is taken of one contrast, the quantile treatment effect
theta_1 - theta_0 of ``QuantileCurveFit.qte``, and a coverage study counts
how often it holds the design's true one.
Resampling unit: whole records, i.i.d. with replacement (pairs bootstrap).
Intervals are pointwise percentile intervals over the replicates that
report the grid point; points that the full-sample fit does not report, or
that too few replicates report, are masked.
Every replicate draws from its own counter-based stream keyed by
(seed, replicate index).  A replicate is the count of each record in its
draw: it is fitted as count weights on the one sample, sorted once, with
no resampled copy, which is an exchangeably weighted bootstrap with
multinomial weights and the same statistic as the resampled dataset.
Replicates are fitted in blocks: up to ``block_size(n)`` rows form one
(B, n) count matrix that every stage carries along its rows, so the fixed
cost of a fit is paid once per block, and each row gets the bits it would
get alone, whatever B is.  The sample is the row of ones, so a band given
no fit fits it as its first row.  The coverage study is ``simulate.mc_study``'s
one loop, which draws each repetition once and bands it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import stream
from .data import Dataset
from .estimator import QuantileGrid, fit_replicates

__all__ = [
    "BootstrapConfig",
    "ConfidenceBand",
    "CoverageResult",
    "bootstrap_band",
    "coverage_study",
]

# a band point is valid only where at least this share of the replicates report it
REPORT_THRESHOLD = 0.5


@dataclass(frozen=True)
class BootstrapConfig:
    draws: int = 200
    seed: int = 0
    level: float = 0.95
    workers: int = 1  # accepted and checked; changes neither results nor speed

    def __post_init__(self):
        if self.draws < 2:
            raise ValueError("draws must be >= 2")
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must be in (0, 1)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _ranks(b: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """1-indexed percentile ranks ceil(alpha/2 * b) and ceil((1 - alpha/2) * b), clamped to [1, b]."""
    alpha = 1.0 - level
    # guard the ceilings against float fuzz: 1 - 0.95 is slightly above
    # 0.05, which would otherwise bump an exact-integer rank by one
    lo = np.maximum(1, np.ceil(0.5 * alpha * b - 1e-8).astype(np.intp))
    hi = np.minimum(b, np.ceil((1.0 - 0.5 * alpha) * b - 1e-8).astype(np.intp))
    return lo, hi


@dataclass(eq=False)
class ConfidenceBand:
    """Pointwise percentile band for the quantile treatment effect theta_1 - theta_0.

    lower <= point <= upper wherever all three are defined (the band is
    widened to include the point estimate if the raw percentile interval
    misses it; how often that happened is kept in raw_containment).
    """

    u: np.ndarray
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    valid: np.ndarray
    n_reported: np.ndarray
    draws: int
    level: float
    raw_containment: float = math.nan
    n_failed_replicates: int = 0
    notes: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (replicate index, reason) per failed replicate
    fit: object = field(default=None, repr=False)  # the point estimate's QuantileCurveFit

    def __post_init__(self):
        ok = self.valid & np.isfinite(self.point)
        if np.any(self.lower[ok] > self.point[ok]) or np.any(self.upper[ok] < self.point[ok]):
            raise ValueError("band does not contain the point estimate")

    def rows(self):
        """(u, lower, point, upper, n_reported) per grid point, NaN-masked."""
        for m in range(self.u.size):
            if self.valid[m]:
                yield (
                    float(self.u[m]),
                    float(self.lower[m]),
                    float(self.point[m]),
                    float(self.upper[m]),
                    int(self.n_reported[m]),
                )
            else:
                yield (float(self.u[m]), math.nan, float(self.point[m]), math.nan, int(self.n_reported[m]))


# bytes of one float64 row block: B replicates of n records and of the
# local-linear smoother's 512 sample points; a smaller block costs more
# fixed overhead per replicate, a larger one more peak memory per block
# (B = 26 / 6 / 1 at n = 2,000 / 10^4 / 10^5)
BLOCK_BYTES = 1 << 19


def block_size(n: int) -> int:
    """Replicates per block: every (B, n + 512) float64 working array within BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * (n + 512)))


def bootstrap_band(data: Dataset, boot: BootstrapConfig, fit=None, **fit_kwargs) -> ConfidenceBand:
    """Pairs-bootstrap percentile band for the quantile treatment effect theta_1 - theta_0 at every grid point.

    ``fit`` may carry a precomputed full-sample fit to reuse as the point
    estimate.  Without one, the sample is fitted as the row that counts
    every record once, leading the first block, with ``fit_curve``'s bits
    and, if it fails, its error; the band keeps that fit as ``band.fit``.
    Replicate b is the record counts of its draw from
    ``stream(seed, "bootstrap", b)``, fitted on ``data`` itself with no
    resampled copy; up to ``block_size(n)`` rows at a time are fitted as
    one (B, n) count block (``fit_replicates``), and each gets the bits it
    would get alone.  A replicate whose estimation or validation
    fails (an emptied cell, a cell too thin for the bandwidth rule, a
    level without primary-cause events) is dropped; ``failures`` holds its
    index and the error's text.  A replicate that fits but reports no
    point is not a failure.
    """
    fit_kwargs["grid"] = grid = fit_kwargs.get("grid") or (QuantileGrid.default() if fit is None else fit.grid)
    # replicates must live on the precomputed fit's grid
    if fit is not None and not np.array_equal(grid.points, fit.grid.points):
        raise ValueError("grid does not match the precomputed fit's grid")
    M = grid.size

    vals = np.full((boot.draws, M), np.nan)
    failures = []
    # the rows, the sample (-1) first when it is fitted here, in blocks of near-equal size, none above block_size(n)
    rows = np.arange(-(fit is None), boot.draws)
    for block in np.array_split(rows, -(-rows.size // block_size(data.n))):
        # a byte a count; a count above 255 (a record's count is at most n) widens the block
        counts = np.ones((block.size, data.n), np.uint8)
        for i, b in enumerate(block.tolist()):
            if b < 0:
                continue  # the sample's row counts every record once
            row = np.bincount(stream(boot.seed, "bootstrap", b).integers(0, data.n, data.n), minlength=data.n)
            if row.max() > np.iinfo(counts.dtype).max:
                counts = counts.astype(np.min_scalar_type(data.n))
            counts[i] = row
            del row
        # the sample is fitted past its frontier, as fit_curve fits it; a replicate stops there
        refits = fit_replicates(data, counts, stop_at_frontier=block >= 0, **fit_kwargs)
        for b, refit in zip(block.tolist(), refits):
            if b < 0:
                if isinstance(refit, Exception):
                    raise refit
                fit = refit
            elif isinstance(refit, Exception):
                failures.append((b, str(refit)))
            else:
                vals[b] = refit.qte()
        del counts, refits, refit  # the next block's peak meets none of this block's arrays
    n_failed = len(failures)
    if n_failed == boot.draws:
        raise RuntimeError("every bootstrap replicate failed")
    point = fit.qte()

    # the percentile ranks of every column at once: its reported values
    # sorted to the top, NaN below them
    n_reported = np.count_nonzero(np.isfinite(vals), axis=0)
    # a point is valid only where the fit reports it, and enough replicates do
    valid = (n_reported / boot.draws >= REPORT_THRESHOLD - 1e-12) & np.isfinite(point)
    lo_rank, hi_rank = _ranks(n_reported, boot.level)
    cols = np.flatnonzero(valid & (n_reported > 0))
    ordered = np.sort(vals[:, cols], axis=0)
    lower = np.full(M, np.nan)
    upper = np.full(M, np.nan)
    lower[cols] = ordered[lo_rank[cols] - 1, np.arange(cols.size)]
    upper[cols] = ordered[hi_rank[cols] - 1, np.arange(cols.size)]
    raw_total = cols.size
    raw_hits = int(np.count_nonzero((lower[cols] <= point[cols]) & (point[cols] <= upper[cols])))
    lower[cols] = np.minimum(lower[cols], point[cols])
    upper[cols] = np.maximum(upper[cols], point[cols])
    raw_containment = raw_hits / raw_total if raw_total else math.nan
    notes = []
    if n_failed:
        notes.append(f"{n_failed} of {boot.draws} bootstrap replicates failed and were dropped")
        notes.append(f"first failed replicate: {failures[0][0]}: {failures[0][1]}")
    if raw_total and raw_hits < raw_total:
        notes.append(
            f"raw percentile interval missed the point estimate at {raw_total - raw_hits} "
            f"of {raw_total} points; band widened to include it"
        )
    return ConfidenceBand(
        grid.points,
        np.asarray(point, dtype=np.float64),
        lower,
        upper,
        valid,
        n_reported.astype(np.int64),
        boot.draws,
        boot.level,
        raw_containment,
        n_failed,
        notes,
        failures,
        fit,
    )


@dataclass(eq=False)
class CoverageResult:
    u: np.ndarray
    hits: np.ndarray  # reps whose band contained the truth, per grid point
    n_valid: np.ndarray  # reps whose band was valid at the point
    reps: int

    @property
    def coverage(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.n_valid > 0, self.hits / self.n_valid, np.nan)

    def rows(self):
        cov = self.coverage
        for m in range(self.u.size):
            yield (float(self.u[m]), float(cov[m]), int(self.hits[m]), int(self.n_valid[m]))


def coverage_study(spec, reps: int, boot: BootstrapConfig, **fit_kwargs) -> CoverageResult:
    """Fraction of fresh-data replications whose band covers the true QTE: ``mc_study(...).coverage`` of
    ``spec`` (a ``DgpSpec``) with ``boot``, whose repetitions each band their data once."""
    from .simulate import mc_study

    return mc_study(spec, reps, boot=boot, **fit_kwargs).coverage
