"""The full-sample statistics from sorted levels against their record-order reference, bit for bit."""

import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crqiv import inference
from crqiv.bounds import estimate_y1
from crqiv.cli import main
from crqiv.data import Dataset, save_csv, swap_causes
from crqiv.estimator import EstimationError, QuantileGrid, _frontier_rows, fit_curve, naive_curve
from crqiv.inference import BootstrapConfig, bootstrap_band
from crqiv.simulate import DgpSpec, generate
from crqiv.smoothing import bandwidth_rows
from crqiv.survival import SortedCell, build_counting_processes, level_cells, level_order, sorted_cells
from tests import _reference_full_sample as ref

# few distinct times, so that failures of both causes, censorings and zero
# follow-up times tie; and a continuous range besides
_TIMES = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5]),
                   st.floats(min_value=0.0, max_value=10.0, allow_nan=False))


@st.composite
def _datasets(draw):
    L, K = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    zero = draw(st.sampled_from([None, None, (L - 1, 0)]))
    cells = [(z, w) for z in range(L) for w in range(K) if (z, w) != zero]
    # one record in every open cell, then any number more
    rows = [(draw(_TIMES), draw(st.integers(0, 2)), z, w) for z, w in cells]
    for _ in range(draw(st.integers(0, 40))):
        z, w = draw(st.sampled_from(cells))
        rows.append((draw(_TIMES), draw(st.integers(0, 2)), z, w))
    order = draw(st.permutations(range(len(rows))))
    y, event, z, w = zip(*(rows[i] for i in order))
    if draw(st.booleans()):
        # a level whose cells see no primary-cause event, or none at all
        level, code = draw(st.integers(0, L - 1)), draw(st.sampled_from([0, 2]))
        event = [code if zi == level and e == 1 else e for e, zi in zip(event, z)]
    return Dataset(y, event, z, w, [f"z{i}" for i in range(L)], [f"w{i}" for i in range(K)],
                   [] if zero is None else [zero])


def _same(fn, ref_fn, *args):
    """fn and ref_fn give the same bytes, or raise the same error with the same text."""
    try:
        want = ref_fn(*args)
    except (ValueError, EstimationError) as exc:
        with pytest.raises(type(exc)) as got:
            fn(*args)
        assert str(got.value) == str(exc)
        return
    assert np.asarray(fn(*args)).tobytes() == np.asarray(want).tobytes()


def _bandwidth(sample):
    """The bandwidth rule on one sample: ``bandwidth_rows`` of it sorted, or the reason it fails as ValueError."""
    (h,), (reason,) = bandwidth_rows(np.sort(sample))
    if reason:
        raise ValueError(reason)
    return h


def _frontiers(data):
    """The support bounds and cushions a fit takes, as fit.frontiers holds them, or the first error they meet."""
    y1, delta, (error,) = _frontier_rows(data, None, None)
    if error:
        raise error
    return np.concatenate([y1[0], delta[0]])


def _ref_frontiers(data):
    """The same from the record-order reference, level by level."""
    levels = range(data.n_treatment_levels)
    return np.concatenate([ref.estimate_y1(data), [ref.default_delta(data, level) for level in levels]])


def _tied(y, event, z, w):
    return Dataset(y, event, z, w, ["a", "b"], ["u", "v"])


# failures of both causes at one time, censorings tied with them, zero times
_TIES = _tied([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 1.0, 1.0, 0.0, 3.0],
              [1, 2, 0, 1, 1, 0, 2, 0, 1, 2, 0, 1],
              [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
              [0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1])
# cell (b, v) has no failures, and level b no primary-cause events
_NO_PRIMARY = _tied([1.0, 2.0, 2.0, 0.0, 1.0, 4.0, 4.0],
                    [1, 2, 1, 0, 2, 0, 0],
                    [0, 0, 0, 1, 1, 1, 1],
                    [0, 1, 1, 0, 0, 1, 1])

# censored records tied with a failure time sort before its first failing
# record in the level's sort: at t = 0 as cell (a, u)'s first records, inside
# cells (b, u) and (b, v), and at the only time of cell (b, v); cell (a, v)
# holds a single record
_CENSORED_FIRST = _tied([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 0.7, 0.0, 1.5, 1.5, 1.5, 3.0, 3.0],
                        [0, 0, 1, 0, 2, 1, 1, 2, 0, 0, 1, 0, 2],
                        [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
                        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1])


def _censored_first(y, event) -> bool:
    """Whether a censored record sorts just before the first record failing at its time, in ascending y."""
    failing = np.flatnonzero(event)
    first = failing[np.unique(y[failing], return_index=True)[1]]
    return bool(np.any((first > 0) & (event[first - 1] == 0) & (y[first - 1] == y[first])))


@settings(max_examples=150, deadline=None)
@given(_datasets())
@example(_TIES)
@example(_NO_PRIMARY)
@example(_CENSORED_FIRST)
def test_full_sample_statistics_match_record_order(data):
    cp, want = build_counting_processes(data), ref.build_counting_processes(data)
    assert list(cp.cells) == list(want.cells)
    for cell, proc in cp.cells.items():
        other = want.cells[cell]
        assert proc.size == other.size
        for a, b in ((proc.times, other.times), (proc.dn1, other.dn1), (proc.dn, other.dn),
                     (proc.at_risk, other.at_risk)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert cp.instrument_sizes == want.instrument_sizes and cp.n == want.n

    grid = QuantileGrid.default(25)
    _same(naive_curve, ref.naive_curve, data, grid)
    for z, w in np.ndindex(data.n_treatment_levels, data.n_instrument_levels):
        _same(_bandwidth, ref.default_bandwidth, data.y[(data.z == z) & (data.w == w)])
    _same(estimate_y1, ref.estimate_y1, data)
    _same(_frontiers, _ref_frontiers, data)


def test_edge_datasets_meet_their_edges():
    cp = build_counting_processes(_NO_PRIMARY)
    assert cp.cell((1, 1)).times.size == 0 and cp.cell((1, 1)).size == 2
    for fn in (estimate_y1, _frontiers):
        with pytest.raises(EstimationError, match="'b'"):
            fn(_NO_PRIMARY)
    tied = build_counting_processes(_TIES).cell((0, 1))
    assert tied.times.tolist() == [0.0, 1.0] and tied.dn.tolist() == [1.0, 1.0]
    assert tied.at_risk.tolist() == [3.0, 2.0]
    # the level sort puts the censored records first where _CENSORED_FIRST says, so that they are searched for
    cells = {cell: _censored_first(sc.y, sc.event) for cell, sc in sorted_cells(_CENSORED_FIRST).items()}
    assert cells == {(0, 0): True, (0, 1): False, (1, 0): True, (1, 1): True}
    first = build_counting_processes(_CENSORED_FIRST)
    assert first.cell((0, 0)).at_risk.tolist() == [6.0, 3.0, 1.0] and first.cell((1, 1)).at_risk.tolist() == [2.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TIMES, st.integers(0, 2)), max_size=30))
# censored records sorting before a time's first failing record: at t = 0 as
# the cell's first records, inside the cell, and tied with every record, so
# that the record before the first one is the last; single records
@example([(0.0, 0), (0.0, 1), (1.0, 2)])
@example([(0.0, 0), (0.0, 2), (0.0, 1), (1.0, 1)])
@example([(0.5, 1), (1.0, 0), (1.0, 2), (2.0, 1)])
@example([(1.0, 1), (1.0, 0)])
@example([(1.0, 1)])
@example([(1.0, 0)])
def test_cell_process_matches_record_order(records):
    y = np.array([r[0] for r in records], dtype=np.float64)
    event = np.array([r[1] for r in records], dtype=np.int64)
    o = np.argsort(y)
    got, want = SortedCell(y[o], event[o]).process(), ref.cell_process(y, event)
    assert got.size == want.size
    for name in ("times", "dn1", "dn", "at_risk"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_TIMES, st.floats(allow_nan=False, allow_infinity=True, width=64)), max_size=40))
@example([1.0])
@example([2.0, 2.0, 2.0])
@example([0.0, 0.0, 0.0, 1.0])
@example([1e308, -1e308, 3.0])
def test_bandwidth_rule_matches_percentile(sample):
    with np.errstate(all="ignore"):  # huge and infinite values overflow both alike
        _same(_bandwidth, ref.default_bandwidth, np.array(sample, dtype=np.float64))


def test_negative_zero_times_are_stored_as_zero():
    # -0.0 and 0.0 failures tie in cell (a, u); either row order gives +0.0
    y = np.array([-0.0, 0.0, 0.4, 0.4, 1.0, 0.2, 0.7, 1.5])
    rows = ([1, 1, 1, 2, 0, 1, 1, 2], [0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 0, 1, 0, 1])
    swap = [1, 0, 2, 3, 4, 5, 6, 7]
    both = [_tied(y[order], *(np.array(col)[order] for col in rows)) for order in (slice(None), swap)]
    assert np.signbit(y[0])  # the caller's array is left as it is
    grid = QuantileGrid.default(25)
    for data in both:
        assert not np.signbit(data.y).any()
    times = [build_counting_processes(data).cell((0, 0)).times for data in both]
    assert times[0].tobytes() == times[1].tobytes() and times[0].tolist() == [0.0, 0.4]
    assert not np.signbit(times[0]).any()
    naive = [naive_curve(data, grid) for data in both]
    assert naive[0].tobytes() == naive[1].tobytes() and not np.signbit(naive[0]).any()


@pytest.mark.parametrize("kind", ["local_linear", "convolution"])
@pytest.mark.parametrize("design, seed", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
def test_fit_does_not_depend_on_record_order(design, seed, kind):
    data, _ = generate(DgpSpec(design=design, n=1_500, seed=seed))
    rng = np.random.default_rng(seed)
    y = data.y.copy()
    # zero follow-up times, half of them written as -0.0, tie across causes
    zeros = rng.choice(data.n, 60, replace=False)
    y[zeros] = np.where(np.arange(60) % 2, -0.0, 0.0)
    columns = (y, data.event, data.z, data.w)
    levels = (data.treatment_levels, data.instrument_levels, data.structural_zeros)
    fits, naive = [], []
    for order in (np.arange(data.n), rng.permutation(data.n)):
        permuted = Dataset(*(c[order] for c in columns), *levels)
        fits.append(fit_curve(permuted, kind=kind))
        naive.append(naive_curve(permuted).tobytes())
    a, b = fits
    assert naive[0] == naive[1]
    pairs = [(a.theta, b.theta), (a.reported_mask, b.reported_mask)]
    pairs += [(getattr(a.frontiers, f), getattr(b.frontiers, f)) for f in ("y_hat", "delta", "u_hat", "m_hat")]
    pairs += [(getattr(a.surface, f), getattr(b.surface, f)) for f in ("grid", "values", "p_hat")]
    for x, z in pairs:
        assert np.asarray(x).tobytes() == np.asarray(z).tobytes()
    assert a.surface.bandwidths == b.surface.bandwidths and a.warnings == b.warnings
    # the fit's cushions are the record-order reference's, bit for bit
    want = [ref.default_delta(permuted, level) for level in range(permuted.n_treatment_levels)]
    assert a.frontiers.delta.tobytes() == np.array(want).tobytes()


def test_level_sort_is_cached_until_another_dataset_is_sorted():
    a, b = (generate(DgpSpec(design=2, n=2_000, seed=seed))[0] for seed in (0, 1))
    order = level_order(a, 1)
    assert level_order(a, 1) is order and order.dtype == np.uint16
    # one array per level: the level's record indices in ascending follow-up time
    assert np.array_equal(np.sort(order), np.flatnonzero(a.z == 1)) and np.all(np.diff(a.y[order]) >= 0)
    cell = next(iter(sorted_cells(a).values()))
    assert next(iter(sorted_cells(a).values())) is cell
    # the cause-swapped sample shares the orders and keeps the sample's cells
    level_order(swap_causes(a), 0)
    assert next(iter(sorted_cells(a).values())) is cell
    kept = weakref.ref(order), weakref.ref(cell)
    del order, cell
    level_order(b, 0)
    gc.collect()
    assert kept[0]() is None and kept[1]() is None


def test_naive_curve_after_the_fit_sorts_no_level(monkeypatch):
    data, _ = generate(DgpSpec(design=1, n=2_000, seed=0))
    fit_curve(data, grid=QuantileGrid.default(20))
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(a) or argsort(*a, **kw))
    naive_curve(data)
    assert calls == []


def test_derived_band_run_sorts_each_level_once(tmp_path, monkeypatch):
    # the cause-2 fit's dataset shares the sample's times and levels, so it
    # takes over the sample's level sorts, and the band finds them again
    data, _ = generate(DgpSpec(design=2, n=2_000, seed=0))
    save_csv(data, tmp_path / "data.csv")
    sorted_sizes = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 1 and np.asarray(a).dtype == np.float64:  # follow-up times
            sorted_sizes.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    argv = ["estimate", "--data", tmp_path / "data.csv", "--out", tmp_path / "out", "--grid", 20, "--naive",
            "--derived", "--boot-draws", 6, "--threads", 1]
    assert main([str(a) for a in argv]) == 0
    assert (tmp_path / "out" / "derived.csv").exists() and (tmp_path / "out" / "band.csv").exists()
    assert sorted_sizes == [int(np.count_nonzero(data.z == level)) for level in range(2)]


def test_each_cell_searches_its_tied_times_once(monkeypatch):
    # a time's at-risk count is its first failing record's position, searched
    # for only where censored records tied with that record sort before it
    searched = []
    searchsorted = np.searchsorted

    def counted(a, v, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "crqiv.survival":
            searched.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    data, _ = generate(DgpSpec(design=1, n=2_000, seed=0))
    for _, sc in level_cells(data):
        sc.process()
    fit_curve(data, grid=QuantileGrid.default(20))
    naive_curve(data)
    assert searched == []
    # times rounded to 0.01 tie in every cell; a band of 4 one-row blocks, the
    # sample's fit first, takes each cell's positions once, from the cell kept across blocks
    tied = Dataset(np.round(data.y, 2), data.event, data.z, data.w, data.treatment_levels, data.instrument_levels,
                   data.structural_zeros)
    cells = sorted_cells(tied)
    assert all(_censored_first(sc.y, sc.event) for sc in cells.values() if sc.y.size)
    monkeypatch.setattr(inference, "BLOCK_BYTES", 8 * (tied.n + 512))
    bootstrap_band(tied, BootstrapConfig(draws=3, seed=1), grid=QuantileGrid.default(20))
    assert len(searched) == sum(sc.y.size > 0 for sc in cells.values())
    for sc in cells.values():
        failing, _, starts, _, below = sc.groups  # kept as intp, so that no block converts them
        assert failing.dtype == starts.dtype == below.dtype == np.intp


def test_fit_memory_peak():
    # the sample's cells run the blocks' two passes: sizes, bandwidths and
    # ranges first, then one cell at a time, gathered by the level's cached
    # record order, to its smoothed curve; a cell's records go as its
    # counting processes are built, which go as its jumps are packed, and
    # the local-linear smoother divides its sample grid in place and drops it
    # once packed (3,363,423 traced bytes at the peak on this dataset with
    # numpy 2.4; 3,513,696 with a divided copy beside the grid, under a
    # guard of 3,540,000).  Keeping every cell's jumps until the grid was
    # known, with the cell's times alive beside its processes, it peaked at
    # 5,894,515 (5,920,016 with a fresh array for each step of the
    # incidence); with the level's columns kept at 6,992,172, and holding
    # every cell's processes at once, as the fit did before it shared the
    # bootstrap blocks' front end, at 7,704,798
    data, _ = generate(DgpSpec(design=1, n=200_000, seed=0))
    tracemalloc.start()
    try:
        fit_curve(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_390_000


def test_naive_curve_memory_peak():
    # the naive curve sorts each level, builds its counting processes as the
    # level's columns go, and takes the incidence over the processes' own
    # arrays (3,519,703 traced bytes at the peak on this dataset with numpy
    # 2.4, its level sorts included); with a fresh array for each step of
    # the incidence and the level's columns alive beside the processes it peaked at 5,890,113
    data, _ = generate(DgpSpec(design=1, n=200_000, seed=0))
    tracemalloc.start()
    try:
        naive_curve(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_550_000
