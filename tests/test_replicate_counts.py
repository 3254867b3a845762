"""Bootstrap replicates fitted as blocks of record counts.

``bootstrap_band`` fits ``block_size(n)`` replicates at a time as one
(B, n) count matrix.  Its band must equal the one-replicate-at-a-time
reference (``tests/_reference_band.py``), which fits each replicate as a
resampled ``Dataset``, to 1e-10, and fail on the same replicates for the
same reasons; its bits must not depend on the block size.
"""

import tracemalloc

import numpy as np
import pytest

from crqiv import inference
from crqiv._rng import stream
from crqiv.data import DataValidationError, Dataset, resample
from crqiv.estimator import (NO_ROOT, PAST_FRONTIER, REPORTED, EstimationError, QuantileGrid, _triangular_order,
                             fit_curve, fit_replicates)
from crqiv.inference import BootstrapConfig, block_size, bootstrap_band
from crqiv.optim import CERT_TOL
from crqiv.simulate import DgpSpec, generate
from crqiv.smoothing import bandwidth_rows, rule_of_thumb_bandwidth
from crqiv.surface import assemble_surface, assemble_surfaces
from crqiv.survival import build_counting_processes, sorted_cells

from test_full_sample import _CENSORED_FIRST
from test_inference import thin_cell_data
from tests import _reference_full_sample as ref
from tests._reference_band import assert_same_band, reference_band


def compare(data, boot, **kw):
    """The band, after checking it against the one-at-a-time reference."""
    band = bootstrap_band(data, boot, **kw)
    assert_same_band(band, reference_band(data, boot, **kw), tol=1e-10)
    return band


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
    band = compare(data, BootstrapConfig(draws=20, seed=0), grid=QuantileGrid.default(50))
    assert band.valid.sum() >= 10


@pytest.mark.parametrize("seed", range(3))
def test_estimate_boot_settings(seed):
    # design 2, n = 1e4, 100 grid points, 40 draws, bootstrap seed 1
    data, _ = generate(DgpSpec(design=2, n=10_000, seed=seed))
    grid = QuantileGrid.default(100)
    fit = fit_curve(data, grid=grid)
    boot = BootstrapConfig(draws=40, seed=1)
    band = bootstrap_band(data, boot, fit=fit)
    assert_same_band(band, reference_band(data, boot, fit=fit, grid=grid), tol=1e-10)
    assert band.n_failed_replicates == 0
    assert band.valid.sum() >= 20


def test_triangular_three_levels():
    band = compare(three_by_three(), BootstrapConfig(draws=20, seed=0), grid=QuantileGrid.default(30))
    assert band.valid.any()


def test_gauss_newton_path():
    band = compare(no_structural_zero(), BootstrapConfig(draws=12, seed=0), grid=QuantileGrid.default(20))
    assert band.valid.any()


def test_convolution_kind():
    data, _ = generate(DgpSpec(design=2, n=1_000, seed=1))
    compare(data, BootstrapConfig(draws=6, seed=0), grid=QuantileGrid.default(20), kind="convolution")


@pytest.mark.parametrize("bandwidth", [0.05])
def test_given_bandwidths(bandwidth):
    data, _ = generate(DgpSpec(design=2, n=2_000, seed=2))
    compare(data, BootstrapConfig(draws=12, seed=3), grid=QuantileGrid.default(40), bandwidth=bandwidth)


def test_thin_cell_failures_match():
    band = compare(thin_cell_data(), BootstrapConfig(draws=40, seed=1), grid=QuantileGrid.default(50))
    reasons = {reason.split(";")[0].split(":")[0] for _, reason in band.failures}
    # emptied cells and cells too thin for the bandwidth rule both occur
    assert reasons == {"empty cell (z=0, w=1)", "cell (treatment 0, instrument 1)"}


def sparse_level_data():
    """Design 2 at n=600 with three primary-cause events left at treatment level 1."""
    data, _ = generate(DgpSpec(design=2, n=600, seed=0))
    e = data.event.copy()
    level1 = np.flatnonzero((data.z == 1) & (data.event == 1))
    e[level1[3:]] = 2
    return Dataset(data.y, e, data.z, data.w, [0, 1], [0, 1], structural_zeros=data.structural_zeros)


def test_sparse_primary_cause_level_failures_match():
    # some replicates keep none of the three events, or copies of one, so
    # its support bound or cushion fails
    band = compare(sparse_level_data(), BootstrapConfig(draws=40, seed=0), grid=QuantileGrid.default(20))
    reasons = " ".join(reason for _, reason in band.failures)
    assert "treatment level 1 has no primary-cause events" in reasons
    assert "frontier cushion at treatment level 1" in reasons


def test_block_memory_peak():
    # one block of block_size(10^4) replicates at n = 10^4, drawn as the
    # band draws them, one byte a count.  The block takes a cell at a time
    # from its counts to its smoothed curve, with every cell's sizes,
    # bandwidths and ranges taken first (1,236,831 traced bytes at the peak
    # with numpy 2.4, B = 6).  Before, at the old budget's B = 3, a block
    # peaked at 869,652, with 4-byte counts and every cell's jumps alive at once
    data, _ = generate(DgpSpec(design=2, n=10_000, seed=0))
    n, B = data.n, block_size(data.n)
    counts = np.stack([np.bincount(stream(1, "bootstrap", b).integers(0, n, n), minlength=n) for b in range(B)])
    counts = counts.astype(np.uint8)
    grid = QuantileGrid.default(100)
    fit_replicates(data, counts[:1], grid, stop_at_frontier=True)  # the sorted cells, kept across blocks
    tracemalloc.start()
    try:
        fit_replicates(data, counts, grid, stop_at_frontier=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_250_000


@pytest.mark.parametrize("make, draws", [(thin_cell_data, 40), (sparse_level_data, 40), (three_by_three, 9),
                                         (lambda: zero_and_tied_times(), 40)])
def test_band_bits_do_not_depend_on_block_size(make, draws, monkeypatch):
    # tied records enter a block's weighted sums in the order of their level's sort
    data = make()
    boot = BootstrapConfig(draws=draws, seed=1)
    grid = QuantileGrid.default(30)
    bands = []
    for B in (1, 3, block_size(10_000), draws):
        monkeypatch.setattr(inference, "BLOCK_BYTES", 8 * B * (data.n + 512))
        assert block_size(data.n) == B
        bands.append(bootstrap_band(data, boot, grid=grid))
    for band in bands[1:]:
        assert_same_band(band, bands[0])
    assert_same_band(bands[0], reference_band(data, boot, grid=grid), tol=1e-10)


@pytest.mark.parametrize("make, draws", [(thin_cell_data, 40), (sparse_level_data, 40), (three_by_three, 9),
                                         (lambda: zero_and_tied_times(), 40)])
def test_band_fits_its_sample_as_the_first_row(make, draws, monkeypatch):
    # with no fit given, the sample is the all-ones row leading the first
    # block: the band and its fit are fit_curve's fit and the band given it,
    # bit for bit, at every block size
    data = make()
    boot = BootstrapConfig(draws=draws, seed=1)
    grid = QuantileGrid.default(30)
    fit = fit_curve(data, grid=grid)
    for B in (1, 3, block_size(10_000), draws + 1):
        monkeypatch.setattr(inference, "BLOCK_BYTES", 8 * B * (data.n + 512))
        assert block_size(data.n) == B
        folded = bootstrap_band(data, boot, grid=grid)
        assert_same_band(folded, bootstrap_band(data, boot, fit=fit))
        fields = ("theta", "objective", "residual", "status")
        assert _bits(folded.fit, fields) == _bits(fit, fields)
        fields = ("y_hat", "delta", "u_hat", "m_hat", "u_prev", "triggered")
        assert _bits(folded.fit.frontiers, fields) == _bits(fit.frontiers, fields)
        assert _bits(folded.fit.surface, ("grid", "values", "p_hat")) == _bits(fit.surface, ("grid", "values", "p_hat"))


@pytest.mark.parametrize("make", [lambda: degenerate_cell(), lambda: no_primary_level()])
def test_band_raises_its_failing_sample_fits_error(make):
    # a sample whose fit fails stops the band with fit_curve's error and text
    data = make()
    with pytest.raises((DataValidationError, EstimationError)) as want:
        fit_curve(data)
    with pytest.raises(type(want.value)) as got:
        bootstrap_band(data, BootstrapConfig(draws=5, seed=0))
    assert str(got.value) == str(want.value)


def resampled(data, c):
    """The dataset that repeats each record as often as its count."""
    return Dataset(data.y.repeat(c), data.event.repeat(c), data.z.repeat(c), data.w.repeat(c),
                   data.treatment_levels, data.instrument_levels, structural_zeros=data.structural_zeros)


def test_failing_rows_inside_a_block():
    # one block: healthy rows beside rows that empty a cell, leave a cell
    # too thin for the bandwidth rule, leave treatment level 1 without
    # primary-cause events, or leave it one for the cushion
    data = thin_cell_data()
    thin = np.flatnonzero((data.z == 0) & (data.w == 1))
    level1 = np.flatnonzero((data.z == 1) & (data.event == 1))
    rng = np.random.default_rng(3)
    rows = [np.bincount(rng.integers(0, data.n, data.n), minlength=data.n) for _ in range(6)]
    for row in rows:
        row[thin] = 1  # the thin cell's three records once each: enough for the rule
    rows[1][thin] = 0  # empty cell (0, 1)
    rows[2][thin] = [2, 0, 0]  # one record of it, twice: zero spread
    rows[3][thin] = [1, 0, 0]  # one record of it: fewer than 2
    rows[4][level1] = 0  # no primary-cause event at level 1
    rows[5][level1] = 0
    rows[5][level1[0]] = 3  # one event at level 1, thrice: no spread for the cushion
    counts = np.stack(rows + [np.ones(data.n, np.int64)])
    grid = QuantileGrid.default(30)
    fits = fit_replicates(data, counts, grid, stop_at_frontier=True)
    kinds = [type(f) for f in fits]
    assert kinds[1] is DataValidationError and kinds[4] is kinds[5] is EstimationError
    texts = [None if not isinstance(f, Exception) else str(f) for f in fits]
    assert texts[2].startswith("cell (treatment 0, instrument 1): degenerate sample")
    assert texts[3].startswith("cell (treatment 0, instrument 1): bandwidth rule needs at least 2")
    assert "frontier cushion at treatment level 1" in texts[5]
    for b, c in enumerate(counts):
        if texts[b] is not None:
            with pytest.raises((DataValidationError, EstimationError)) as exc:
                fit_curve(resampled(data, c), grid=grid, stop_at_frontier=True)
            assert str(exc.value) == str(fit_replicates(data, c[None], grid, stop_at_frontier=True)[0]) == texts[b]
            continue
        (alone,) = fit_replicates(data, c[None], grid, stop_at_frontier=True)
        assert fits[b].theta.tobytes() == alone.theta.tobytes()
        assert fits[b].reported_mask.tobytes() == alone.reported_mask.tobytes()
        ref = fit_curve(resampled(data, c), grid=grid, stop_at_frontier=True)
        assert np.array_equal(fits[b].reported_mask, ref.reported_mask)
        rep = fits[b].reported_mask
        assert np.abs(fits[b].theta[rep] - ref.theta[rep]).max(initial=0.0) <= 1e-10
    assert [t is None for t in texts] == [True, False, False, False, False, False, True]


@pytest.mark.parametrize("make, kw", [
    pytest.param(lambda: design(2), {}, id="design2"),
    pytest.param(lambda: design(1, seed=1), {}, id="design1"),
    pytest.param(three_by_three, {"grid": QuantileGrid.default(40)}, id="three-levels"),
    pytest.param(thin_cell_data, {"grid": QuantileGrid.default(40)}, id="failing-rows"),
    pytest.param(no_structural_zero, {"grid": QuantileGrid.default(20)}, id="gauss-newton"),
])
def test_block_solve_equals_each_rows_fit(make, kw):
    # a block's rows are solved together; each row has the bits of its own
    # one-row block, and the reported points, frontier and warnings of
    # fit_curve on its resampled dataset, with theta and the residual
    # within the rounding of the count-weighted sums
    data = make()
    rng = np.random.default_rng(4)
    counts = np.stack([np.bincount(rng.integers(0, data.n, data.n), minlength=data.n) for _ in range(8)])
    fits = fit_replicates(data, counts, stop_at_frontier=True, **kw)
    solved = 0
    for c, fit in zip(counts, fits):
        (alone,) = fit_replicates(data, c[None], stop_at_frontier=True, **kw)
        try:
            ref = fit_curve(resampled(data, c), stop_at_frontier=True, **kw)
        except (DataValidationError, EstimationError) as exc:
            assert type(fit) is type(alone) is type(exc) and str(fit) == str(alone) == str(exc)
            continue
        solved += 1
        fields = ("theta", "objective", "residual", "converged", "reported_mask")
        assert _bits(fit, fields) == _bits(alone, fields)
        frontier = ("y_hat", "delta", "u_hat", "m_hat", "u_prev", "triggered")
        assert _bits(fit.frontiers, frontier) == _bits(alone.frontiers, frontier)
        assert fit.warnings == alone.warnings
        assert np.array_equal(fit.reported_mask, ref.reported_mask)
        assert (fit.frontiers.u_hat, fit.frontiers.m_hat) == (ref.frontiers.u_hat, ref.frontiers.m_hat)
        assert [w.split(" (largest")[0] for w in fit.warnings] == [w.split(" (largest")[0] for w in ref.warnings]
        rep = fit.reported_mask
        assert np.abs(fit.theta[rep] - ref.theta[rep]).max(initial=0.0) <= 1e-10
        assert np.allclose(fit.residual, ref.residual, rtol=0.0, atol=1e-12, equal_nan=True)
    assert solved >= 4


def _bandwidth_entry_points(bandwidth):
    """Every call a given bandwidth enters by: the full-sample surface and fit, a block's, and a band's."""
    data, _ = generate(DgpSpec(design=2, n=800, seed=0))
    grid = QuantileGrid.default(20)
    fit = fit_curve(data, grid=grid)
    boot = BootstrapConfig(draws=5, seed=0)
    ones = np.ones((1, data.n), dtype=np.int64)
    return (lambda: assemble_surface(data, bandwidth=bandwidth),
            lambda: assemble_surfaces(data, ones, bandwidth=bandwidth),
            lambda: fit_curve(data, grid=grid, bandwidth=bandwidth),
            lambda: fit_replicates(data, ones, grid=grid, bandwidth=bandwidth),
            lambda: bootstrap_band(data, boot, grid=grid, bandwidth=bandwidth),
            lambda: bootstrap_band(data, boot, fit=fit, bandwidth=bandwidth))


def test_callable_bandwidth_is_rejected():
    # a bandwidth is a number or None
    for call in _bandwidth_entry_points(lambda d, cell: 0.05):
        with pytest.raises(ValueError, match="bandwidth must be a number or None"):
            call()


@pytest.mark.parametrize("bandwidth", [0.0, -0.1, float("nan"), {(0, 0): 0.04, (0, 1): 0.0, (1, 1): 0.05}])
def test_bad_bandwidth_is_rejected(bandwidth):
    # a given bandwidth must be a finite positive number wherever it enters; a per-cell dict is not one
    message = "bandwidth must be a number or None" if isinstance(bandwidth, dict) else "bandwidth must be positive"
    for call in _bandwidth_entry_points(bandwidth):
        with pytest.raises(ValueError, match=message):
            call()


def test_counts_reproduce_the_resampled_statistics():
    data, _ = generate(DgpSpec(design=2, n=1_500, seed=5))
    draws = [np.random.default_rng(s).integers(0, data.n, data.n) for s in (7, 8, 9)]
    counts = np.stack([np.bincount(idx, minlength=data.n) for idx in draws])
    for cell, sc in sorted_cells(data).items():
        block = sc.process(counts[:, sc.records])
        for b in range(len(counts)):
            re = resample(data, np.random.default_rng(7 + b))
            direct = build_counting_processes(re).cell(cell)
            keep = block.dn[b] > 0  # a time no counted record fails at is no time of the replicate
            assert block.size[b] == direct.size
            for x, y in ((block.times[keep], direct.times), (block.dn[b, keep], direct.dn),
                         (block.dn1[b, keep], direct.dn1), (block.at_risk[b, keep], direct.at_risk)):
                assert x.tobytes() == y.tobytes()
    # the bandwidth rule's quartiles are numpy's to the bit; its sd to rounding
    re = resample(data, np.random.default_rng(7))
    mask = (data.z == 0) & (data.w == 1)
    order = np.argsort(data.y[mask], kind="stable")
    (h,), _ = bandwidth_rows(data.y[mask][order], counts[:1, mask][:, order])
    assert h == pytest.approx(ref.default_bandwidth(re.y[(re.z == 0) & (re.w == 1)]), rel=1e-13)
    ties = np.array([0.1, 0.1, 0.2, 0.3, 0.3, 0.3, 0.7])
    c = np.array([[3, 0, 2, 1, 0, 4, 1], [2, 5, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0]])
    h, reasons = bandwidth_rows(ties, c)
    assert h[0] == pytest.approx(ref.default_bandwidth(np.repeat(ties, c[0])), rel=1e-13)
    assert reasons[0] is None and np.isnan(h[1:]).all()
    assert "zero spread" in reasons[1] and "at least 2" in reasons[2]


def test_block_counts_where_censored_records_sort_first():
    # the ties of _CENSORED_FIRST under rows of counts: censored records sort
    # before a time's first failing record, at t = 0 as a cell's first records
    # and inside cells; the second and third rows give those failing records
    # no count, drop a tied censored record and empty the single-record cell
    counts = np.array([[1] * 13, [2, 1, 0, 1, 3, 1, 1, 1, 2, 0, 1, 1, 0], [0, 1, 1, 0, 0, 2, 0, 0, 1, 1, 0, 2, 1]],
                      np.uint8)
    for cell, sc in sorted_cells(_CENSORED_FIRST).items():
        c = counts[:, sc.records]
        block = sc.process(c)
        for b, row in enumerate(c):
            want = ref.cell_process(sc.y.repeat(row), sc.event.repeat(row))
            keep = block.dn[b] > 0  # a time no counted record fails at is no time of the row
            assert block.size[b] == want.size
            for x, y in ((block.times[keep], want.times), (block.dn[b, keep], want.dn),
                         (block.dn1[b, keep], want.dn1), (block.at_risk[b, keep], want.at_risk)):
                assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("x", [
    np.array([]), np.array([0.3]), np.array([-0.0, 0.0]), np.zeros(5), np.array([-0.0, -0.0, 0.0, 0.5, 1.0]),
    np.array([0.1, 0.1, 0.2, 0.3, 0.3, 0.3, 0.7]), np.array([-0.0, 0.0, 0.0, 0.0, 2.0, 2.0]),
    *(np.sort(np.random.default_rng(size).gamma(2.0, size=size)) for size in (2, 3, 9, 130, 5_001)),
    np.round(np.sort(np.random.default_rng(1).gamma(2.0, size=40_000)), 1),
])
def test_unit_counts_take_the_bits_of_a_row_of_ones(x):
    # without counts, the rule skips the product by the counts, their sum
    # and the search for the quartiles, and keeps the bits of a row of ones
    fast = bandwidth_rows(x)
    for ones in (np.ones((1, x.size), np.int8), np.ones((1, x.size), np.int64)):
        slow = bandwidth_rows(x, ones)
        assert fast[0].tobytes() == slow[0].tobytes() and fast[1] == slow[1]


def test_weighted_moments_are_fixed_order_reductions():
    # the rule's mean and sd are plain left-to-right ufunc reductions of
    # contiguous 1-D arrays, never a BLAS dot product, so a row's bits
    # depend neither on the thread count nor on the other rows of a block
    rng = np.random.default_rng(11)
    for size in (7, 300, 5_000, 40_000):
        x = np.sort(rng.gamma(2.0, size=size))
        counts = rng.integers(0, 4, (4, size))
        h, reasons = bandwidth_rows(x, counts)
        for b, c in enumerate(counts):
            m = int(c.sum())
            mean = float(np.add.reduce(np.ascontiguousarray(c * x))) / m
            sq = np.ascontiguousarray(c * (x - mean) ** 2)
            sd = float(np.sqrt(np.add.reduce(sq) / (m - 1)))
            q75, q25 = np.percentile(np.repeat(x, c), [75.0, 25.0])
            want = rule_of_thumb_bandwidth(min(sd, (q75 - q25) / 1.349), m)
            assert reasons[b] is None
            assert h[b] == want


def design(d, n=2_000, seed=0):
    return generate(DgpSpec(design=d, n=n, seed=seed))[0]


def zero_and_tied_times():
    """Design 2 with 40 zero follow-up times and 40% of the records censored at one time."""
    data = design(2, seed=3)
    y, e = data.y.copy(), data.event.copy()
    y[:40] = 0.0
    tied = np.arange(100, 900)
    y[tied], e[tied] = np.median(data.y), 0
    return Dataset(y, e, data.z, data.w, [0, 1], [0, 1], structural_zeros=data.structural_zeros)


def split_instrument():
    """Design 2 with its w = 1 arm split at random in two: K = 3 > L = 2, so the fit runs Gauss-Newton."""
    data = design(2, seed=1)
    w = data.w + ((data.w == 1) & (np.random.default_rng(0).uniform(size=data.n) < 0.5))
    return Dataset(data.y, data.event, data.z, w, [0, 1], [0, 1, 2], structural_zeros=[(1, 0)])


def degenerate_cell():
    """``thin_cell_data`` with its thin cell's three records at one time: the full fit fails."""
    data = thin_cell_data()
    y = data.y.copy()
    y[(data.z == 0) & (data.w == 1)] = 0.5
    return Dataset(y, data.event, data.z, data.w, [0, 1], [0, 1], structural_zeros=data.structural_zeros)


def no_primary_level():
    """Design 2 with every primary-cause event at treatment level 1 made secondary: the full fit fails."""
    data = design(2, n=600)
    e = np.where((data.z == 1) & (data.event == 1), 2, data.event)
    return Dataset(data.y, e, data.z, data.w, [0, 1], [0, 1], structural_zeros=data.structural_zeros)


def test_unreported_points_below_the_frontier_have_no_root_in_the_box():
    # on the triangular path a point below the frontier goes unreported only
    # where some step's inversion leaves the box, never for want of a
    # certificate: checked on the fit and 5 block rows of each dataset
    makers = [lambda d=d, n=n, s=s: design(d, n, s) for d in (1, 2) for n in (2_000, 10_000) for s in range(10)]
    no_root = 0
    for make in makers + [three_by_three, zero_and_tied_times, thin_cell_data]:
        data = make()
        rng = np.random.default_rng(0)
        counts = np.stack([np.bincount(rng.integers(0, data.n, data.n), minlength=data.n) for _ in range(5)])
        fits = [fit_curve(data)] + [f for f in fit_replicates(data, counts) if not isinstance(f, Exception)]
        assert len(fits) >= 4
        for fit in fits:
            assert _triangular_order(fit.surface.p_hat) is not None
            M, fr = fit.grid.size, fit.frontiers
            below = (np.arange(M) < fr.m_hat) | (not fr.triggered)
            assert np.array_equal(fit.status == PAST_FRONTIER, ~below)
            assert np.array_equal(fit.status == REPORTED, below & (fit.residual <= CERT_TOL))
            missed = below & ~(fit.residual <= CERT_TOL)
            assert (fit.status[missed] >= NO_ROOT).all(), (fit.status[missed], fit.grid.points[missed])
            no_root += int(missed.sum())
    assert no_root > 500  # 561 points


def _bits(fit_or_surface, names):
    return [np.asarray(getattr(fit_or_surface, name)).tobytes() for name in names]


@pytest.mark.parametrize("make, kw", [
    pytest.param(lambda: design(1), {}, id="design1"),
    pytest.param(lambda: design(1), {"kind": "convolution"}, id="design1-convolution"),
    pytest.param(lambda: design(2), {}, id="design2"),
    pytest.param(lambda: design(2), {"kind": "convolution"}, id="design2-convolution"),
    pytest.param(lambda: design(2, seed=2), {"bandwidth": 0.05}, id="bandwidth-number"),
    pytest.param(lambda: design(1, seed=1), {"delta": [0.05, 0.08]}, id="delta"),
    pytest.param(zero_and_tied_times, {}, id="zero-and-tied-times"),
    pytest.param(three_by_three, {}, id="three-levels"),
    pytest.param(no_structural_zero, {"grid": QuantileGrid.default(30)}, id="every-cell-open"),
    pytest.param(split_instrument, {"grid": QuantileGrid.default(30)}, id="more-instruments"),
    pytest.param(degenerate_cell, {}, id="thin-cell"),
    pytest.param(no_primary_level, {}, id="no-primary-level"),
])
def test_fit_is_its_all_ones_replicate(make, kw):
    # the full-sample fit is the replicate counting every record once, bit
    # for bit, or fails with its error and text
    data = make()
    (rep,) = fit_replicates(data, np.ones((1, data.n), np.int32), **kw)
    if isinstance(rep, Exception):
        with pytest.raises((DataValidationError, EstimationError)) as exc:
            fit_curve(data, **kw)
        assert type(exc.value) is type(rep) and str(exc.value) == str(rep)
        return
    fit = fit_curve(data, **kw)
    fields = ("theta", "objective", "residual", "converged", "reported_mask")
    assert _bits(fit, fields) == _bits(rep, fields)
    fields = ("y_hat", "delta", "u_hat", "m_hat", "u_prev", "triggered")
    assert _bits(fit.frontiers, fields) == _bits(rep.frontiers, fields)
    assert fit.warnings == rep.warnings
    fields = ("grid", "values", "p_hat")
    assert _bits(fit.surface, fields) == _bits(rep.surface, fields)
    assert list(fit.surface.bandwidths) == list(rep.surface.bandwidths)
    assert (np.array(list(fit.surface.bandwidths.values())).tobytes()
            == np.array(list(rep.surface.bandwidths.values())).tobytes())
