import math

import numpy as np
import pytest

from crqiv import inference
from crqiv.data import Dataset
from crqiv.estimator import EstimationError, QuantileCurveFit, QuantileGrid, fit_curve
from crqiv.inference import (
    BootstrapConfig,
    CoverageResult,
    bootstrap_band,
    coverage_study,
)
from crqiv.simulate import DgpSpec, generate
from tests._reference_band import percentile_bounds

GRID13 = QuantileGrid(np.array(
    [0.1, 0.2, 0.3, 0.4, 0.44, 0.48, 0.52, 0.56, 0.62, 0.7, 0.8, 0.9, 1.0]
))


@pytest.fixture(scope="module")
def small_band():
    data, _ = generate(DgpSpec(design=2, n=800, seed=4))
    boot = BootstrapConfig(draws=60, seed=1)
    return data, boot, bootstrap_band(data, boot, grid=GRID13)


# -- configuration and rank arithmetic ----------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="draws"):
        BootstrapConfig(draws=1)
    with pytest.raises(ValueError, match="level"):
        BootstrapConfig(level=1.0)
    with pytest.raises(ValueError, match="workers"):
        BootstrapConfig(workers=0)


def test_percentile_ranks_exact():
    # B = 200 at 95%: ranks 5 and 195 exactly, despite 1 - 0.95 > 0.05
    # in floating point
    vals = np.arange(1, 201) / 200.0
    assert percentile_bounds(vals, 0.95) == (0.025, 0.975)
    vals10 = np.arange(1, 11) / 10.0
    assert percentile_bounds(vals10, 0.8) == (0.1, 0.9)
    # tiny samples clamp to the observed range
    assert percentile_bounds(np.array([1.0, 2.0, 3.0]), 0.99) == (1.0, 3.0)


def test_percentile_empty_is_nan():
    lo, hi = percentile_bounds(np.array([]), 0.95)
    assert math.isnan(lo) and math.isnan(hi)


# -- bands ---------------------------------------------------------------------


def test_band_shapes_and_ordering(small_band):
    _, boot, band = small_band
    M = GRID13.size
    for arr in (band.u, band.point, band.lower, band.upper, band.valid, band.n_reported):
        assert len(arr) == M
    ok = band.valid & np.isfinite(band.point)
    assert ok.any()
    assert np.all(band.lower[ok] <= band.point[ok])
    assert np.all(band.point[ok] <= band.upper[ok])
    assert band.draws == boot.draws
    assert band.level == 0.95
    assert band.contrast == (1, 0)


def test_band_masks_unsupported_points(small_band):
    _, _, band = small_band
    # the top of the grid is past any plausible frontier at this n
    assert not band.valid[-1]
    bad = ~band.valid
    assert np.isnan(band.lower[bad]).all() and np.isnan(band.upper[bad]).all()
    rows = list(band.rows())
    assert len(rows) == GRID13.size
    for (u, lo, pt, hi, n), valid in zip(rows, band.valid):
        if not valid:
            assert math.isnan(lo) and math.isnan(hi)
        else:
            assert lo <= hi


@pytest.mark.parametrize("seed, u", [(0, 0.425), (10, 0.025)])
def test_band_is_valid_only_where_the_fit_reports(seed, u):
    # the fit leaves u unreported, at its frontier (seed 0) or where no root
    # lies in the box (seed 10), while at least half of the replicates
    # report it: the band is not valid there, so band.csv writes no
    # interval beside a NaN point and coverage does not count it
    data, _ = generate(DgpSpec(design=2, n=2_000, seed=seed))
    band = bootstrap_band(data, BootstrapConfig(draws=20, seed=0), grid=QuantileGrid.default(40))
    m = int(np.argmin(np.abs(band.u - u)))
    assert np.isnan(band.point[m]) and band.n_reported[m] >= 10
    assert not band.valid[m] and not (band.valid & np.isnan(band.point)).any()
    _, lo, _, hi, _ = list(band.rows())[m]
    assert math.isnan(lo) and math.isnan(hi)
    assert band.valid.sum() >= 10


def test_band_deterministic_and_worker_invariant(small_band):
    data, boot, band = small_band
    again = bootstrap_band(data, boot, grid=GRID13)
    assert np.array_equal(band.lower, again.lower, equal_nan=True)
    assert np.array_equal(band.upper, again.upper, equal_nan=True)
    threaded = bootstrap_band(data, BootstrapConfig(draws=60, seed=1, workers=3), grid=GRID13)
    assert np.array_equal(band.lower, threaded.lower, equal_nan=True)
    assert np.array_equal(band.upper, threaded.upper, equal_nan=True)


def test_band_seed_sensitivity(small_band):
    data, _, band = small_band
    other = bootstrap_band(data, BootstrapConfig(draws=60, seed=2), grid=GRID13)
    ok = band.valid & other.valid
    assert not np.array_equal(band.lower[ok], other.lower[ok])


def test_band_level_monotone(small_band):
    data, _, band95 = small_band
    band99 = bootstrap_band(data, BootstrapConfig(draws=60, seed=1, level=0.99), grid=GRID13)
    ok = band95.valid & band99.valid
    assert np.all(band99.lower[ok] <= band95.lower[ok] + 1e-12)
    assert np.all(band99.upper[ok] >= band95.upper[ok] - 1e-12)


def test_band_reuses_precomputed_fit(small_band):
    data, boot, band = small_band
    fit = fit_curve(data, grid=GRID13, stop_at_frontier=True)
    reused = bootstrap_band(data, boot, fit=fit, grid=GRID13)
    assert np.array_equal(band.point, reused.point, equal_nan=True)
    assert np.array_equal(band.lower, reused.lower, equal_nan=True)


def test_band_inherits_grid_from_precomputed_fit(small_band):
    # replicates must refit on the fit's grid even when no grid kwarg is given
    data, boot, band = small_band
    fit = fit_curve(data, grid=GRID13, stop_at_frontier=True)
    inherited = bootstrap_band(data, boot, fit=fit)
    assert np.array_equal(inherited.u, GRID13.points)
    assert np.array_equal(band.lower, inherited.lower, equal_nan=True)
    with pytest.raises(ValueError, match="does not match"):
        bootstrap_band(data, boot, fit=fit, grid=QuantileGrid.default(7))


def test_band_builds_no_warning_text(monkeypatch):
    # a replicate's fit keeps its statuses; the text is built only where it is read
    data, _ = generate(DgpSpec(design=2, n=2_000, seed=0))
    fit = fit_curve(data)
    boot = BootstrapConfig(draws=30, seed=0)
    want = bootstrap_band(data, boot, fit=fit)

    def refuse(self):
        raise AssertionError("warning text built")

    monkeypatch.setattr(QuantileCurveFit, "warnings", property(refuse))
    got = bootstrap_band(data, boot, fit=fit)
    assert got.lower.tobytes() == want.lower.tobytes()
    assert got.upper.tobytes() == want.upper.tobytes()


def test_zero_width_band_from_constant_replicates(small_band, monkeypatch):
    data, _, _ = small_band

    class FixedFit:
        grid = GRID13
        reported_mask = np.ones(GRID13.size, dtype=bool)

        def qte(self, a=1, b=0):
            return np.full(GRID13.size, -0.25)

    monkeypatch.setattr(inference, "fit_replicates", lambda d, counts, **kw: [FixedFit()] * len(counts))
    band = bootstrap_band(data, BootstrapConfig(draws=10, seed=0), fit=FixedFit())
    assert np.all(band.lower == -0.25)
    assert np.all(band.upper == -0.25)
    assert band.raw_containment == 1.0
    assert band.n_failed_replicates == 0


def replace_rows(monkeypatch, make):
    """Route the band's replicate fits through make(replicate index, its fit or error)."""
    real, seen = inference.fit_replicates, []

    def patched(data, counts, **kw):
        out = []
        for fit in real(data, counts, **kw):
            out.append(make(len(seen), fit))
            seen.append(1)
        return out

    monkeypatch.setattr(inference, "fit_replicates", patched)


def test_failed_replicates_counted(small_band, monkeypatch):
    data, _, _ = small_band
    # three blocks of four replicates, the sample's fit given; every third replicate fails
    fit = fit_curve(data, grid=GRID13)
    monkeypatch.setattr(inference, "BLOCK_BYTES", 8 * 4 * (data.n + 512))
    replace_rows(monkeypatch, lambda b, fit: EstimationError("synthetic failure") if b % 3 == 1 else fit)
    band = bootstrap_band(data, BootstrapConfig(draws=12, seed=5), fit=fit)
    assert band.n_failed_replicates == 4
    assert band.failures == [(b, "synthetic failure") for b in (1, 4, 7, 10)]
    assert any("failed" in note for note in band.notes)


def thin_cell_data():
    """Design 2 at n=400 with cell (0, 1) cut to 3 records; the full fit works."""
    data, _ = generate(DgpSpec(design=2, n=400, seed=0))
    cell = (data.z == 0) & (data.w == 1)
    keep = ~cell
    keep[np.flatnonzero(cell)[:3]] = True
    return Dataset(data.y[keep], data.event[keep], data.z[keep], data.w[keep],
                   data.treatment_levels, data.instrument_levels,
                   structural_zeros=data.structural_zeros)


def test_thin_cell_resample_is_a_failed_replicate():
    # some resamples hold fewer than 2 records of the thin cell, or only
    # copies of one, so its bandwidth rule has nothing to work on
    data = thin_cell_data()
    assert fit_curve(data, stop_at_frontier=True).reported_mask.any()
    band = bootstrap_band(data, BootstrapConfig(draws=40, seed=0))
    assert 0 < band.n_failed_replicates < 40
    assert f"{band.n_failed_replicates} of 40 bootstrap replicates failed and were dropped" in band.notes
    # every failed replicate is listed with the error that dropped it
    assert len(band.failures) == band.n_failed_replicates
    indices = [b for b, _ in band.failures]
    assert indices == sorted(set(indices)) and 0 <= indices[0] and indices[-1] < 40
    for _, reason in band.failures:
        assert reason.startswith(("cell (treatment 0, instrument 1): ", "empty cell (z=0, w=1); "))
    first, reason = band.failures[0]
    assert f"first failed replicate: {first}: {reason}" in band.notes


def test_replicate_reporting_no_point_is_not_a_failure(small_band, monkeypatch):
    # a replicate that fits but whose frontier comes at the first grid point
    # reports nothing; the band is then invalid there, with nothing dropped
    data, _, _ = small_band

    class NoPoint:
        grid = GRID13

        def qte(self, a=1, b=0):
            return np.full(GRID13.size, np.nan)

    first = fit_curve(data, grid=GRID13, stop_at_frontier=True)
    with monkeypatch.context() as mp:
        replace_rows(mp, lambda b, fit: fit if b % 2 else NoPoint())
        half = bootstrap_band(data, BootstrapConfig(draws=6, seed=0), fit=first)
    assert half.n_failed_replicates == 0 and half.failures == []
    assert half.n_reported.max() == 3
    assert not any("failed" in note for note in half.notes)
    replace_rows(monkeypatch, lambda b, fit: NoPoint())
    none = bootstrap_band(data, BootstrapConfig(draws=6, seed=0), fit=first)
    assert none.n_failed_replicates == 0 and none.failures == []
    assert not none.valid.any() and (none.n_reported == 0).all()
    assert np.isnan(none.lower).all() and np.isnan(none.upper).all()


def test_thin_cell_and_level_errors_name_them():
    data = thin_cell_data()
    cell = (data.z == 0) & (data.w == 1)
    one = ~cell
    one[np.flatnonzero(cell)[0]] = True
    thin = Dataset(data.y[one], data.event[one], data.z[one], data.w[one], [0, 1], [0, 1],
                   structural_zeros=data.structural_zeros)
    with pytest.raises(EstimationError, match=r"cell \(treatment 0, instrument 1\): .*at least 2"):
        fit_curve(thin)
    # one primary-cause event at level 1: no spread for the frontier cushion
    e = data.event.copy()
    level1 = np.flatnonzero((data.z == 1) & (data.event == 1))
    e[level1[1:]] = 2
    sparse = Dataset(data.y, e, data.z, data.w, [0, 1], [0, 1], structural_zeros=data.structural_zeros)
    with pytest.raises(EstimationError, match="frontier cushion at treatment level 1: .*at least 2"):
        fit_curve(sparse, bandwidth=0.3)


def test_all_replicates_failing_raises(small_band, monkeypatch):
    data, _, _ = small_band
    first = fit_curve(data, grid=GRID13, stop_at_frontier=True)
    replace_rows(monkeypatch, lambda b, fit: EstimationError("nope"))
    with pytest.raises(RuntimeError, match="every bootstrap replicate failed"):
        bootstrap_band(data, BootstrapConfig(draws=5, seed=0), fit=first)


def test_contrast_negation(small_band):
    data, boot, band = small_band
    flipped = bootstrap_band(data, boot, contrast=(0, 1), grid=GRID13)
    ok = band.valid & flipped.valid
    assert flipped.point[ok] == pytest.approx(-band.point[ok])
    assert flipped.lower[ok] == pytest.approx(-band.upper[ok])
    assert flipped.upper[ok] == pytest.approx(-band.lower[ok])


# -- coverage -------------------------------------------------------------------


def test_coverage_result_accessors():
    res = CoverageResult(
        u=np.array([0.1, 0.2]),
        hits=np.array([18.0, 0.0]),
        n_valid=np.array([20.0, 0.0]),
        reps=20,
    )
    assert res.coverage[0] == pytest.approx(0.9)
    assert math.isnan(res.coverage[1])
    assert res.at(0.11) == pytest.approx(0.9)
    rows = list(res.rows())
    assert rows[0] == (0.1, 0.9, 18, 20)
    assert len(rows) == 2


def test_coverage_validation():
    with pytest.raises(ValueError, match="reps"):
        coverage_study(DgpSpec(design=1, n=100, seed=0), reps=0)


def test_coverage_with_injected_truth_band(monkeypatch):
    # a band builder that always brackets the truth gives coverage 1
    grid = QuantileGrid(np.array([0.1, 0.2, 0.3]))
    real = inference.bootstrap_band

    def sure_band(data, boot=None, contrast=(1, 0), **kw):
        band = real(data, boot, contrast, **kw)  # for its fit, which the study summarizes
        band.lower[:], band.upper[:], band.valid[:] = -2.0, 2.0, True
        return band

    monkeypatch.setattr(inference, "bootstrap_band", sure_band)
    res = coverage_study(DgpSpec(design=1, n=200, seed=0), reps=3, boot=BootstrapConfig(draws=2, seed=0), grid=grid)
    assert np.all(res.coverage == 1.0)
    assert np.all(res.n_valid == 3)


def test_coverage_truth_follows_the_contrast():
    # the default truth of a simulation spec is the contrast asked for: with
    # 20 draws at 95% the band is the replicates' range, so swapping the
    # contrast negates every band and covers exactly as often
    kwargs = dict(reps=3, boot=BootstrapConfig(draws=20, seed=0), grid=QuantileGrid(np.array([0.1, 0.2, 0.3])))
    spec = DgpSpec(design=2, n=2_000, seed=0)
    forward = coverage_study(spec, contrast=(1, 0), **kwargs)
    backward = coverage_study(spec, contrast=(0, 1), **kwargs)
    assert forward.hits.sum() > 0
    assert np.array_equal(backward.hits, forward.hits)
    assert np.array_equal(backward.n_valid, forward.n_valid)


def test_mc_study_bands_each_repetition_with_its_own_fit():
    # the one Monte Carlo loop: a repetition's fit is the first row of its
    # band, so banding leaves every summary of mc_study as it is without a
    # band, and the coverage is that of bands given each repetition's fit_curve fit
    from dataclasses import replace

    from crqiv._rng import substream_seed
    from crqiv.simulate import GroundTruth, mc_study

    spec, grid = DgpSpec(design=2, n=500, seed=0), QuantileGrid(np.array([0.1, 0.2, 0.3, 0.4, 0.6]))
    boot = BootstrapConfig(draws=4, seed=3)
    banded, plain = mc_study(spec, 3, grid, boot), mc_study(spec, 3, grid)
    assert plain.coverage is None
    for name in ("u_hat", "u_prev", "triggered", "y1_hat", "theta", "reported", "qte", "naive"):
        assert getattr(banded, name).tobytes() == getattr(plain, name).tobytes(), name
    truth = np.array([GroundTruth(2).qte(u) for u in grid.points])
    hits, n_valid = np.zeros(grid.size), np.zeros(grid.size)
    for r in range(3):
        data, _ = generate(DgpSpec(2, 500, substream_seed(0, "mcrep", r)))
        band = bootstrap_band(data, replace(boot, seed=substream_seed(3, "coverage-rep", r)),
                              fit=fit_curve(data, grid=grid))
        ok = band.valid & np.isfinite(band.lower) & np.isfinite(band.upper)
        n_valid += ok
        hits += ok & (band.lower <= truth) & (truth <= band.upper)
    cov = banded.coverage
    assert (cov.u.tobytes(), cov.hits.tobytes(), cov.n_valid.tobytes(), cov.reps) == (
        grid.points.tobytes(), hits.tobytes(), n_valid.tobytes(), 3)
    assert n_valid.sum() > 0
    again = coverage_study(spec, 3, boot, grid=grid)
    assert (again.hits.tobytes(), again.n_valid.tobytes()) == (hits.tobytes(), n_valid.tobytes())


@pytest.mark.slow
def test_scaled_coverage_design1():
    # 50 replications x 100 draws at n = 2000: pointwise coverage of the
    # true contrast stays near the nominal level at quantiles safely inside
    # the identified range, and the band is withheld (not fabricated) near
    # and past the design's frontier at 1/3
    res = coverage_study(
        DgpSpec(design=1, n=2_000, seed=0),
        reps=50,
        boot=BootstrapConfig(draws=100, seed=0),
        grid=GRID13,
    )
    # one repetition's fit does not report u = 0.1, so its band is not valid there
    for u, n_valid in ((0.1, 49), (0.2, 50)):
        m = int(np.argmin(np.abs(res.u - u)))
        assert res.n_valid[m] == n_valid
        cov = res.at(u)
        assert 0.85 <= cov <= 1.0, f"coverage {cov} at u={u}"
    # u = 0.3 sits 0.03 below the frontier; the conservative frontier
    # estimate reports it only rarely at this sample size
    m = int(np.argmin(np.abs(res.u - 0.3)))
    assert res.n_valid[m] <= 5
    assert all(res.n_valid[res.u >= 0.4] == 0)
    assert all(np.isnan(res.coverage[res.u >= 0.4]))
