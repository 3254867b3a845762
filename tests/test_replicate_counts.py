"""Bootstrap replicates fitted as record counts against resampled datasets.

The reference fitter is handed a ``Dataset`` built by ``resample`` for
every replicate; the default fitter gets the same draw as per-record
counts on the one presorted sample. Both must give the same band to
1e-10 and fail on the same replicates for the same reasons.
"""

import numpy as np
import pytest

from crqiv import inference
from crqiv.data import Dataset, resample
from crqiv.estimator import QuantileGrid, WeightingPolicy, fit_curve
from crqiv.inference import BootstrapConfig, bootstrap_band
from crqiv.simulate import DgpSpec, generate
from crqiv.smoothing import default_bandwidth
from crqiv.survival import build_counting_processes

from test_inference import thin_cell_data


def reference_fit(data, **kw):
    return fit_curve(data, stop_at_frontier=True, **kw)


def never(*args, **kwargs):
    raise AssertionError("the default band resampled a replicate")


def compare(data, boot, **kw):
    """Both bands, after checking that they agree; the weights path must not resample."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "resample", never)
        weighted = bootstrap_band(data, boot, **kw)
    ref = bootstrap_band(data, boot, fit_fn=reference_fit, **kw)
    for a, b in ((weighted.lower, ref.lower), (weighted.point, ref.point), (weighted.upper, ref.upper)):
        assert np.array_equal(np.isnan(a), np.isnan(b))
        ok = ~np.isnan(a)
        assert np.abs(a[ok] - b[ok]).max(initial=0.0) <= 1e-10
    assert np.array_equal(weighted.n_reported, ref.n_reported)
    assert np.array_equal(weighted.valid, ref.valid)
    assert weighted.n_failed_replicates == ref.n_failed_replicates
    assert weighted.failures == ref.failures
    return weighted, ref


def three_by_three(n=3000, seed=0):
    """One-sided noncompliance over three levels: treatment never exceeds the instrument."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=n)
    w = rng.integers(0, 3, n)
    z = np.minimum(w, np.floor(3 * np.clip(u + 0.3 * rng.standard_normal(n), 0, 0.999))).astype(np.int64)
    e = np.where(u < 0.7, 1, 2)
    t = np.where(e == 1, (1 + 0.5 * z) * u, u)
    c = rng.uniform(0.5, 3.0, n)
    return Dataset(np.minimum(t, c), np.where(t <= c, e, 0), z, w, [0, 1, 2], [0, 1, 2],
                   [(1, 0), (2, 0), (2, 1)])


def no_structural_zero(n=2000, seed=0):
    """Two-sided noncompliance: every cell open, so the fit runs Gauss-Newton."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=n)
    w = rng.integers(0, 2, n)
    z = (u + 0.8 * w + 0.5 * rng.standard_normal(n) > 0.9).astype(np.int64)
    e = np.where(u < 0.7, 1, 2)
    t = np.where(e == 1, (1 + z) * u, u)
    c = rng.uniform(0.5, 3.0, n)
    return Dataset(np.minimum(t, c), np.where(t <= c, e, 0), z, w, [0, 1], [0, 1])


@pytest.mark.parametrize("design", [1, 2])
def test_designs_at_n2000(design):
    data, _ = generate(DgpSpec(design=design, n=2_000, seed=0))
    band, _ = compare(data, BootstrapConfig(draws=20, seed=0), grid=QuantileGrid.default(50))
    assert band.valid.sum() >= 10


@pytest.mark.parametrize("seed", range(3))
def test_estimate_boot_settings(seed):
    # design 2, n = 1e4, 100 grid points, 40 draws, bootstrap seed 1
    data, _ = generate(DgpSpec(design=2, n=10_000, seed=seed))
    grid = QuantileGrid.default(100)
    fit = fit_curve(data, grid=grid)
    boot = BootstrapConfig(draws=40, seed=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "resample", never)
        weighted = bootstrap_band(data, boot, fit=fit)
    ref = bootstrap_band(data, boot, fit=fit, fit_fn=reference_fit, grid=grid)
    assert np.array_equal(weighted.n_reported, ref.n_reported)
    assert np.array_equal(weighted.valid, ref.valid)
    assert weighted.n_failed_replicates == ref.n_failed_replicates == 0
    ok = weighted.valid
    assert ok.sum() >= 20
    assert np.abs(weighted.lower[ok] - ref.lower[ok]).max() <= 1e-10
    assert np.abs(weighted.upper[ok] - ref.upper[ok]).max() <= 1e-10


def test_triangular_three_levels():
    band, _ = compare(three_by_three(), BootstrapConfig(draws=20, seed=0), grid=QuantileGrid.default(30))
    assert band.valid.any()


def test_gauss_newton_path():
    band, _ = compare(no_structural_zero(), BootstrapConfig(draws=12, seed=0), grid=QuantileGrid.default(20))
    assert band.valid.any()


def test_convolution_kind():
    data, _ = generate(DgpSpec(design=2, n=1_000, seed=1))
    compare(data, BootstrapConfig(draws=6, seed=0), grid=QuantileGrid.default(20), kind="convolution")


@pytest.mark.parametrize("bandwidth", [0.05, {(0, 0): 0.04, (0, 1): 0.06, (1, 1): 0.05}])
def test_given_bandwidths(bandwidth):
    data, _ = generate(DgpSpec(design=2, n=2_000, seed=2))
    compare(data, BootstrapConfig(draws=12, seed=3), grid=QuantileGrid.default(40), bandwidth=bandwidth)


def test_constant_weighting():
    data, _ = generate(DgpSpec(design=1, n=2_000, seed=2))
    V = WeightingPolicy(np.array([[2.0, 0.5], [0.5, 1.0]]))
    compare(data, BootstrapConfig(draws=12, seed=3), grid=QuantileGrid.default(40), V=V)


def test_thin_cell_failures_match():
    band, _ = compare(thin_cell_data(), BootstrapConfig(draws=40, seed=1), grid=QuantileGrid.default(50))
    reasons = {reason.split(";")[0].split(":")[0] for _, reason in band.failures}
    # emptied cells and cells too thin for the bandwidth rule both occur
    assert reasons == {"empty cell (z=0, w=1)", "cell (treatment 0, instrument 1)"}


def test_sparse_primary_cause_level_failures_match():
    # three primary-cause events at treatment level 1: some replicates keep
    # none of them, or copies of one, so its support bound or cushion fails
    data, _ = generate(DgpSpec(design=2, n=600, seed=0))
    e = data.event.copy()
    level1 = np.flatnonzero((data.z == 1) & (data.event == 1))
    e[level1[3:]] = 2
    sparse = Dataset(data.y, e, data.z, data.w, [0, 1], [0, 1], structural_zeros=data.structural_zeros)
    band, _ = compare(sparse, BootstrapConfig(draws=40, seed=0), grid=QuantileGrid.default(20))
    reasons = " ".join(reason for _, reason in band.failures)
    assert "treatment level 1 has no primary-cause events" in reasons
    assert "frontier cushion at treatment level 1" in reasons


def test_callable_bandwidth_resamples():
    # a callable bandwidth needs each replicate as a dataset
    data, _ = generate(DgpSpec(design=2, n=800, seed=0))
    calls = []

    def counted(*args):
        calls.append(1)
        return resample(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "resample", counted)
        band = bootstrap_band(data, BootstrapConfig(draws=5, seed=0), grid=QuantileGrid.default(20),
                              bandwidth=lambda d, cell: 0.05)
    assert len(calls) == 5
    ref = bootstrap_band(data, BootstrapConfig(draws=5, seed=0), grid=QuantileGrid.default(20), bandwidth=0.05)
    assert np.array_equal(band.lower, ref.lower, equal_nan=True)
    # counts on the full sample would hand the callable the wrong records
    with pytest.raises(ValueError, match="callable bandwidth"):
        fit_curve(data, bandwidth=lambda d, cell: 0.05, counts=np.ones(data.n, dtype=np.int64))


def test_counts_reproduce_the_resampled_statistics():
    data, _ = generate(DgpSpec(design=2, n=1_500, seed=5))
    rng = np.random.default_rng(7)
    idx = rng.integers(0, data.n, data.n)
    counts = np.bincount(idx, minlength=data.n)
    re = resample(data, np.random.default_rng(7))
    weighted, direct = build_counting_processes(data, counts), build_counting_processes(re)
    assert weighted.instrument_sizes == direct.instrument_sizes
    for cell in data.cells():
        a, b = weighted.cell(cell), direct.cell(cell)
        assert a.size == b.size
        for x, y in ((a.times, b.times), (a.dn, b.dn), (a.dn1, b.dn1), (a.at_risk, b.at_risk)):
            assert x.tobytes() == y.tobytes()
    # the bandwidth rule's quartiles are numpy's to the bit; its sd to rounding
    mask = data.cell_mask((0, 1))
    order = np.argsort(data.y[mask], kind="stable")
    h = default_bandwidth(data.y[mask][order], counts[mask][order])
    assert h == pytest.approx(default_bandwidth(re.y[re.cell_mask((0, 1))]), rel=1e-13)
    ties = np.array([0.1, 0.1, 0.2, 0.3, 0.3, 0.3, 0.7])
    c = np.array([3, 0, 2, 1, 0, 4, 1])
    assert default_bandwidth(ties, c) == pytest.approx(default_bandwidth(np.repeat(ties, c)), rel=1e-13)
    with pytest.raises(ValueError, match="zero spread"):
        default_bandwidth(ties, np.array([2, 5, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError, match="at least 2"):
        default_bandwidth(ties, np.array([0, 0, 0, 1, 0, 0, 0]))
