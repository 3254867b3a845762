"""The bootstrap band one replicate at a time: the reference for ``bootstrap_band``.

``reference_band`` fits replicate b on its own, as the resampled
``Dataset`` of the same draw of ``stream(seed, "bootstrap", b)`` that the
band's count blocks take as record counts.  Its percentile step takes one
grid point at a time, through ``percentile_bounds``.  ``fit_fn(dataset,
**fit_kwargs)`` replaces the replicate fitter, so that a test can fit the
replicates on surfaces of its own.
"""

import math

import numpy as np

from crqiv._rng import stream
from crqiv.data import DataValidationError, resample
from crqiv.estimator import EstimationError, fit_curve
from crqiv.inference import REPORT_THRESHOLD, BootstrapConfig, ConfidenceBand, _ranks


def percentile_bounds(sorted_values: np.ndarray, level: float) -> tuple[float, float]:
    """Percentile interval endpoints: order statistics at ranks
    ceil(alpha/2 * B) and ceil((1 - alpha/2) * B), 1-indexed, B = len(values)."""
    if sorted_values.size == 0:
        return math.nan, math.nan
    lo_rank, hi_rank = _ranks(np.array([sorted_values.size]), level)
    return float(sorted_values[lo_rank[0] - 1]), float(sorted_values[hi_rank[0] - 1])


def _fit(data, **kw):
    return fit_curve(data, stop_at_frontier=True, **kw)


def reference_band(data, boot=None, contrast=(1, 0), fit=None, fit_fn=None, **fit_kwargs):
    boot = boot or BootstrapConfig()
    fit_fn = fit_fn or _fit
    if fit is None:
        fit = fit_fn(data, **fit_kwargs)
    else:
        fit_kwargs.setdefault("grid", fit.grid)
    level_hi, level_lo = contrast
    point = np.asarray(fit.qte(level_hi, level_lo), dtype=np.float64)
    M = fit.grid.points.size

    vals = np.full((boot.draws, M), np.nan)
    failures = []
    for b in range(boot.draws):
        try:
            refit = fit_fn(resample(data, stream(boot.seed, "bootstrap", b)), **fit_kwargs)
            vals[b] = refit.qte(level_hi, level_lo)
        except (DataValidationError, EstimationError) as exc:
            failures.append((b, str(exc)))

    n_reported = np.count_nonzero(np.isfinite(vals), axis=0)
    valid = (n_reported / boot.draws >= REPORT_THRESHOLD - 1e-12) & np.isfinite(point)
    lower = np.full(M, np.nan)
    upper = np.full(M, np.nan)
    raw_hits = raw_total = 0
    for m in range(M):
        col = vals[:, m]
        col = np.sort(col[np.isfinite(col)])
        if col.size == 0 or not valid[m]:
            continue
        lo, hi = percentile_bounds(col, boot.level)
        if np.isfinite(point[m]):
            raw_total += 1
            if lo <= point[m] <= hi:
                raw_hits += 1
            lo = min(lo, float(point[m]))
            hi = max(hi, float(point[m]))
        lower[m], upper[m] = lo, hi
    raw_containment = raw_hits / raw_total if raw_total else math.nan
    return ConfidenceBand(fit.grid.points, point, lower, upper, valid, n_reported.astype(np.int64),
                          boot.draws, boot.level, contrast, raw_containment, len(failures), [], failures)


def assert_same_band(band, ref, tol=0.0):
    """Equal failures, counts and masks; endpoints and point within tol (0: the same bytes)."""
    assert band.failures == ref.failures
    assert band.n_failed_replicates == ref.n_failed_replicates
    assert np.array_equal(band.n_reported, ref.n_reported)
    assert np.array_equal(band.valid, ref.valid)
    for a, b in ((band.lower, ref.lower), (band.point, ref.point), (band.upper, ref.upper)):
        if tol == 0.0:
            assert a.tobytes() == b.tobytes()
        else:
            assert np.array_equal(np.isnan(a), np.isnan(b))
            ok = ~np.isnan(a)
            assert np.abs(a[ok] - b[ok]).max(initial=0.0) <= tol
    if tol == 0.0:
        assert band.raw_containment == ref.raw_containment or (
            math.isnan(band.raw_containment) and math.isnan(ref.raw_containment))
