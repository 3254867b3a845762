import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqiv.data import Dataset
from crqiv.survival import (
    SortedCell,
    StepFunction,
    aalen_johansen_cause1,
    aalen_johansen_incidence,
    build_counting_processes,
    incidence_from,
    product_limit_survival,
)

FOUR = (np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 2, 0, 1]))


def cell_process(y, event):
    """A cell's counting processes from its records in any order."""
    o = np.argsort(y)
    return SortedCell(y[o], event[o]).process()


# -- step functions -----------------------------------------------------


def test_step_function_right_continuous():
    f = StepFunction(np.array([1.0, 2.0]), np.array([0.5, 0.25]), 1.0)
    assert f(0.0) == 1.0
    assert f(0.999) == 1.0
    assert f(1.0) == 0.5
    assert f(1.5) == 0.5
    assert f(2.0) == 0.25
    assert f(100.0) == 0.25
    assert np.array_equal(f(np.array([0.0, 1.0, 3.0])), [1.0, 0.5, 0.25])


def test_step_function_rejects_unsorted_jumps():
    with pytest.raises(ValueError, match="strictly increasing"):
        StepFunction(np.array([2.0, 1.0]), np.array([0.5, 0.2]))
    with pytest.raises(ValueError, match="nonnegative"):
        StepFunction(np.array([-1.0, 1.0]), np.array([0.5, 0.2]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=20, unique=True),
    st.data(),
)
def test_step_function_matches_linear_scan(jumps, data):
    jumps = np.sort(np.asarray(jumps))
    values = np.asarray(data.draw(
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                 min_size=len(jumps), max_size=len(jumps))
    ))
    f = StepFunction(jumps, values, value_at_zero=3.0)
    for t in data.draw(st.lists(st.floats(min_value=0, max_value=120, allow_nan=False), max_size=10)):
        expected = 3.0
        for j, v in zip(jumps, values):
            if j <= t:
                expected = v
        assert f(t) == expected


# -- counting processes --------------------------------------------------


def test_counting_process_four_record_example():
    proc = cell_process(*FOUR)
    assert np.array_equal(proc.times, [1.0, 2.0, 4.0])
    assert np.array_equal(proc.at_risk, [4.0, 3.0, 1.0])
    assert np.array_equal(proc.dn, [1.0, 1.0, 1.0])
    assert np.array_equal(proc.dn1, [1.0, 0.0, 1.0])
    assert proc.size == 4


def test_counting_process_all_censored():
    proc = cell_process(np.array([1.0, 2.0]), np.array([0, 0]))
    assert proc.times.size == 0
    assert proc.size == 2


def test_tie_failure_processed_before_censoring():
    # one cause-1 failure and one censoring at t=2: both counted at risk,
    # only the failure contributes dn, both leave afterwards
    proc = cell_process(np.array([1.0, 2.0, 2.0, 3.0]), np.array([1, 1, 0, 2]))
    assert np.array_equal(proc.times, [1.0, 2.0, 3.0])
    assert np.array_equal(proc.at_risk, [4.0, 3.0, 1.0])
    assert np.array_equal(proc.dn, [1.0, 1.0, 1.0])
    assert np.array_equal(proc.dn1, [1.0, 1.0, 0.0])


# -- product limit / incidence hand oracles ------------------------------


def test_product_limit_hand_values():
    proc = cell_process(*FOUR)
    surv = np.cumprod(1.0 - proc.dn / proc.at_risk)
    assert np.allclose(surv, [3 / 4, 1 / 2, 0.0], atol=1e-12)


def test_incidence_hand_values_and_complement():
    proc = cell_process(*FOUR)
    inc1 = incidence_from(proc, 1)
    assert np.array_equal(inc1.jump_times, [1.0, 4.0])
    assert np.allclose(inc1.values, [1 / 4, 3 / 4], atol=1e-12)
    inc2 = incidence_from(proc, 2)
    assert np.array_equal(inc2.jump_times, [2.0])
    assert np.allclose(inc2.values, [1 / 4], atol=1e-12)
    assert inc1(0.5) == 0.0


def test_tied_sample_decomposition():
    y = np.array([1.0, 1.0, 2.0])
    e = np.array([1, 2, 1])
    proc = cell_process(y, e)
    surv = np.cumprod(1.0 - proc.dn / proc.at_risk)
    inc1 = incidence_from(proc, 1)
    inc2 = incidence_from(proc, 2)
    assert np.allclose(surv, [1 / 3, 0.0], atol=1e-12)
    assert np.allclose(inc1(np.array([1.0, 2.0])), [1 / 3, 2 / 3], atol=1e-12)
    assert inc2(2.0) == pytest.approx(1 / 3, abs=1e-12)


def test_incidence_rejects_bad_cause():
    with pytest.raises(ValueError, match="cause"):
        incidence_from(cell_process(*FOUR), 3)


# -- cell-level interface -------------------------------------------------


def four_record_dataset():
    # replicate the hand example into every cell of a 2x2 design
    y = np.tile(FOUR[0], 4)
    e = np.tile(FOUR[1], 4)
    z = np.repeat([0, 0, 1, 1], 4)
    w = np.repeat([0, 1, 0, 1], 4)
    return Dataset(y, e, z, w, [0, 1], [0, 1])


def test_cell_accessors_and_survival_complement():
    cp = build_counting_processes(four_record_dataset())
    assert cp.n == 16
    assert cp.instrument_sizes == {0: 8, 1: 8}
    surv1 = aalen_johansen_cause1(cp, (0, 0))
    assert surv1(0.0) == 1.0
    assert surv1(1.0) == pytest.approx(3 / 4, abs=1e-12)
    assert surv1(3.9) == pytest.approx(3 / 4, abs=1e-12)
    assert surv1(4.0) == pytest.approx(1 / 4, abs=1e-12)
    pl = product_limit_survival(cp, (1, 1))
    assert pl(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx([3 / 4, 1 / 2, 1 / 2, 0.0], abs=1e-12)


def test_single_event_survival():
    proc = cell_process(np.array([5.0]), np.array([1]))
    surv = np.cumprod(1.0 - proc.dn / proc.at_risk)
    f = StepFunction(proc.times, surv, 1.0)
    assert f(4.999) == 1.0
    assert f(5.0) == 0.0


def test_all_censored_curves_are_flat():
    proc = cell_process(np.array([1.0, 2.0, 3.0]), np.array([0, 0, 0]))
    inc = incidence_from(proc, 1)
    assert inc(50.0) == 0.0
    f = StepFunction(proc.times, np.empty(0), 1.0)
    assert f(50.0) == 1.0


# -- properties -----------------------------------------------------------


@st.composite
def censored_sample(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    y = draw(st.lists(st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
                      min_size=n, max_size=n))
    e = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    return np.asarray(y), np.asarray(e, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(censored_sample())
def test_decomposition_sums_to_one(sample):
    y, e = sample
    proc = cell_process(y, e)
    if proc.times.size == 0:
        return
    surv = np.cumprod(1.0 - proc.dn / proc.at_risk)
    pl = StepFunction(proc.times, surv, 1.0)
    inc1 = incidence_from(proc, 1)
    inc2 = incidence_from(proc, 2)
    for t in np.concatenate([proc.times, [0.0, 11.0]]):
        total = pl(t) + inc1(t) + inc2(t)
        assert total == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=80, deadline=None)
@given(censored_sample())
def test_monotonicity_and_range(sample):
    y, e = sample
    proc = cell_process(y, e)
    inc1 = incidence_from(proc, 1)
    vals = inc1(np.linspace(0, 11, 50))
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= -1e-12) & (vals <= 1 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=10.0, allow_nan=False), min_size=1, max_size=50))
def test_uncensored_single_cause_reduces_to_ecdf(ys):
    y = np.asarray(ys)
    proc = cell_process(y, np.ones(y.size, dtype=np.int64))
    surv = aalen_johansen_cause1_like(proc)
    for t in np.concatenate([y, [0.0, 10.5]]):
        ecdf = np.count_nonzero(y <= t) / y.size
        assert surv(t) == pytest.approx(1.0 - ecdf, abs=1e-12)


def aalen_johansen_cause1_like(proc):
    inc = incidence_from(proc, 1)
    return StepFunction(inc.jump_times, 1.0 - inc.values, 1.0)


def test_empty_cell_rejected():
    d = Dataset((1.0, 1.0, 1.0), (1, 1, 1), (0, 0, 1), (0, 1, 1), [0, 1], [0, 1],
                structural_zeros=[(1, 0)])
    cp = build_counting_processes(d)
    with pytest.raises(ValueError, match="no records"):
        aalen_johansen_incidence(cp, (1, 0), 1)
    with pytest.raises(ValueError, match="no records"):
        product_limit_survival(cp, (1, 0))
