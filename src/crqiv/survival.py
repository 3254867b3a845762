"""Nonparametric survival estimators per (treatment, instrument) cell.

Counting processes, the product-limit estimator of the overall survival,
and the cause-specific cumulative-incidence estimator (and its survival
complement for the primary cause).  All return right-continuous step
functions.

Ties at a time point are handled with the standard convention that
failures are processed before censorings: the at-risk count at t includes
every record with y >= t, and all failures at t leave together.

The full sample's counting processes come from each treatment level sorted
once by follow-up time and split by instrument level, with no ``np.unique``:
failure times are the runs of equal y among the failing records, and the
at-risk count at t starts from the first record of the run at t.  The
surface reads each as a block of one row, as it reads a bootstrap block.

A bootstrap replicate may be given as per-record counts on the sample
instead of as a resampled dataset, and a block of B replicates as a (B, n)
count matrix.  Their counting processes then come from the sample's cells
sorted once by follow-up time (``presort``): dN by one ``add.reduceat``
over each cell's failure-time groups, at-risk counts by a cumulative sum,
both along each row.  A block keeps every sample failure time;
one that no counted record fails at has dN = 0, adds exactly 0 to the
cumulative incidence, and is no jump of it, so each row's step function
equals that of its resampled dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from .data import CellIndex, Dataset, _run_flags

__all__ = [
    "StepFunction",
    "CellProcess",
    "CountingProcesses",
    "build_counting_processes",
    "product_limit_survival",
    "incidence_from",
    "aalen_johansen_incidence",
    "aalen_johansen_cause1",
]


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function on [0, inf).

    f(t) equals the value attached to the largest jump_time <= t, and
    value_at_zero before the first jump.
    """

    jump_times: np.ndarray
    values: np.ndarray
    value_at_zero: float = 1.0

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if jt.shape != vals.shape or jt.ndim != 1:
            raise ValueError("jump_times and values must be 1-d arrays of equal length")
        if jt.size and not np.all(np.diff(jt) > 0):
            raise ValueError("jump_times must be strictly increasing")
        if jt.size and jt[0] < 0:
            raise ValueError("jump_times must be nonnegative")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.jump_times, t, side="right")
        padded = np.concatenate(([self.value_at_zero], self.values))
        out = padded[idx]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CellProcess:
    """Counting processes for one (z, w) cell.

    times: distinct failure times (any cause), increasing.
    dn1:   number of cause-1 failures at each time.
    dn:    number of failures (either cause) at each time.
    at_risk: number of records with y >= time.
    """

    times: np.ndarray
    dn1: np.ndarray
    dn: np.ndarray
    at_risk: np.ndarray
    size: int  # Y_{z,w}


@dataclass(frozen=True)
class CountingProcesses:
    cells: dict[CellIndex, CellProcess]
    instrument_sizes: dict[int, int]  # Y_w
    n: int

    def cell(self, cell: CellIndex | tuple[int, int]) -> CellProcess:
        return self.cells[CellIndex(*cell)]


def _cell_process(y: np.ndarray, event: np.ndarray) -> CellProcess:
    """A cell's counting processes from its records in any order."""
    order = np.argsort(y)
    return _sorted_process(y[order], event[order])


def _sorted_process(y: np.ndarray, event: np.ndarray) -> CellProcess:
    """A cell's counting processes from its records in ascending y, in any order within ties.

    The failures at one time are a run of the failing records, so dN is a
    run length and dN1 an ``add.reduceat`` over the runs; Y(t) counts the
    records from the first of the run of records at t on.  Every count is
    a whole number, so each matches any other order exactly.
    """
    size = y.shape[0]
    failing = np.flatnonzero(event)
    if not failing.size:
        empty = np.empty(0)
        return CellProcess(empty, empty.copy(), empty.copy(), empty.copy(), size)
    starts = np.flatnonzero(_run_flags(y[failing]))
    first = failing[starts]  # the first failing record at each time
    dn1 = np.add.reduceat(event[failing] == 1, starts, dtype=np.float64)
    dn = np.diff(starts, append=failing.size).astype(np.float64)
    del failing, starts
    # the first position of the run of equal y that each position is in
    run = np.arange(size)
    run *= _run_flags(y)
    np.maximum.accumulate(run, out=run)
    at_risk = np.subtract(size, run[first], dtype=np.float64)
    return CellProcess(y[first], dn1, dn, at_risk, size)


def sorted_level(data: Dataset, level: int) -> tuple:
    """A treatment level's follow-up times, event codes and instrument indices, in ascending y.

    One ``argsort`` of the level's times; ties come in any order.  The
    codes and indices are held in the narrowest integer type that fits.
    """
    records = np.flatnonzero(data.z == level)
    y = data.y[records]
    order = np.argsort(y)
    w_type = np.min_scalar_type(data.n_instrument_levels - 1)
    return y[order], data.event[records].astype(np.int8)[order], data.w[records].astype(w_type)[order]


def _by_y(data: Dataset, records: np.ndarray) -> np.ndarray:
    return records[np.argsort(data.y[records], kind="stable")]


@dataclass(frozen=True)
class SortedCell:
    """One cell's records in ascending follow-up time, with its failure-time groups."""

    order: np.ndarray  # record indices, ascending y (stable)
    y: np.ndarray  # y[order]
    times: np.ndarray  # distinct failure times (any cause)
    failing: np.ndarray  # positions in order of the failing records
    starts: np.ndarray  # index into failing of the first record failing at each time
    cause1: np.ndarray  # 1 for each failing record of cause 1, else 0
    first_at_risk: np.ndarray  # first position in order with y >= times[j]

    @classmethod
    def of(cls, data: Dataset, records: np.ndarray) -> "SortedCell":
        order = _by_y(data, records)
        y, event = data.y[order], data.event[order]
        failing = np.flatnonzero(event != 0)
        starts = np.flatnonzero(_run_flags(y[failing]))
        times = y[failing[starts]]
        cause1 = (event[failing] == 1).astype(np.int64)
        return cls(order, y, times, failing, starts, cause1, np.searchsorted(y, times, side="left"))

    def process(self, c: np.ndarray) -> CellProcess:
        """The cell's counting processes under each row of counts (B, cell size) in ``order``.

        dn1, dn and at_risk are (B, T) on the sample's failure times, size is
        (B,).  Every entry is a whole count, so each is exact.
        """
        cum = np.cumsum(c, axis=1)
        size = cum[:, -1]
        # Y(t) = size - the counted records below t
        at_risk = size[:, None] - np.where(self.first_at_risk > 0, cum[:, self.first_at_risk - 1], 0)
        del cum
        failed = c[:, self.failing]
        dn = np.add.reduceat(failed, self.starts, axis=1)
        dn1 = np.add.reduceat(failed * self.cause1, self.starts, axis=1)
        return CellProcess(self.times, dn1.astype(np.float64), dn.astype(np.float64), at_risk.astype(np.float64), size)


@dataclass(frozen=True)
class Presorted:
    """A dataset's sort orders, built once for count-weighted replicates of it."""

    cells: dict[CellIndex, SortedCell]  # every cell not declared a structural zero
    cause1: list  # per treatment level: its primary-cause record indices, ascending y


_PRESORTED: WeakKeyDictionary = WeakKeyDictionary()


def presort(data: Dataset) -> Presorted:
    """The dataset's ``Presorted``, built on first use.

    It is kept while the dataset lives and until another dataset is
    presorted: replicates of one sample at a time need no more.
    """
    out = _PRESORTED.get(data)
    if out is None:
        cells = {
            cell: SortedCell.of(data, np.flatnonzero(data.cell_mask(cell)))
            for cell in data.cells()
            if cell not in data.structural_zeros
        }
        cause1 = [
            _by_y(data, np.flatnonzero((data.z == zi) & (data.event == 1)))
            for zi in range(data.n_treatment_levels)
        ]
        _PRESORTED.clear()
        out = _PRESORTED[data] = Presorted(cells, cause1)
    return out


def build_counting_processes(data: Dataset) -> CountingProcesses:
    """Counting processes of every cell, each record counted once.

    Each treatment level is sorted by follow-up time once, and each of its
    cells keeps its records in that order.  A count-weighted replicate's
    come from ``presort(data)``'s cells.
    """
    cells: dict[CellIndex, CellProcess] = {}
    for zi in range(data.n_treatment_levels):
        y, event, w = sorted_level(data, zi)
        for wi in range(data.n_instrument_levels):
            # np.compress takes what a boolean index takes, in about a quarter of the time
            inst = w == wi
            cells[CellIndex(zi, wi)] = _sorted_process(np.compress(inst, y), np.compress(inst, event))
    inst_sizes = {
        wi: sum(c.size for cell, c in cells.items() if cell.w == wi) for wi in range(data.n_instrument_levels)
    }
    return CountingProcesses(cells, inst_sizes, data.n)


def product_limit_survival(cp: CountingProcesses, cell: CellIndex | tuple[int, int]) -> StepFunction:
    """Product-limit estimate of P(T >= t) in the cell.

    One factor (1 - dN(s)/Y(s)) per distinct failure time s <= t.
    """
    c = cp.cell(cell)
    if c.size == 0:
        raise ValueError(f"cell {tuple(cell)} has no records")
    if c.times.size == 0:
        return StepFunction(np.empty(0), np.empty(0), 1.0)
    surv = np.cumprod(1.0 - c.dn / c.at_risk)
    return StepFunction(c.times, surv, 1.0)


def incidence_from(proc: CellProcess, cause: int) -> StepFunction:
    """Cumulative incidence of the given cause from one counting process.

    F_hat(t) = sum over failure times s <= t of S(s-) dN_cause(s)/Y(s),
    where S(s-) is the product-limit survival just before s (the interior
    product runs over times strictly before s).
    """
    if cause not in (1, 2):
        raise ValueError("cause must be 1 or 2")
    dnj = proc.dn1 if cause == 1 else proc.dn - proc.dn1
    keep = dnj > 0
    return StepFunction(np.compress(keep, proc.times), np.compress(keep, incidence_values(proc, dnj)), 0.0)


def incidence_values(proc: CellProcess, dnj: np.ndarray) -> np.ndarray:
    """The cumulative incidence of the failures dnj at each of proc's times, along the last axis.

    A time with dN = 0 (a block's sample failure time that no counted
    record fails at, where Y may be 0 too) multiplies the survival by
    exactly 1 and adds exactly 0: Y is taken as at least 1, which changes
    it only where dN = 0.
    """
    at_risk = np.maximum(proc.at_risk, 1.0)
    surv = np.cumprod(1.0 - proc.dn / at_risk, axis=-1)
    # S(s-) dN_j(s): the survival just before s, 1 before the first time
    inc = np.empty(dnj.shape)
    inc[..., :1] = dnj[..., :1]
    np.multiply(surv[..., :-1], dnj[..., 1:], out=inc[..., 1:])
    del surv
    inc /= at_risk
    return np.cumsum(inc, axis=-1, out=inc)


def aalen_johansen_incidence(
    cp: CountingProcesses, cell: CellIndex | tuple[int, int], cause: int
) -> StepFunction:
    """Cumulative incidence of the given cause in the cell."""
    c = cp.cell(cell)
    if c.size == 0:
        raise ValueError(f"cell {tuple(cell)} has no records")
    return incidence_from(c, cause)


def aalen_johansen_cause1(cp: CountingProcesses, cell: CellIndex | tuple[int, int]) -> StepFunction:
    """Survival complement 1 - F_hat of the cause-1 cumulative incidence.

    Non-increasing from 1, flat beyond the last cause-1 failure time.
    """
    inc = aalen_johansen_incidence(cp, cell, cause=1)
    return StepFunction(inc.jump_times, 1.0 - inc.values, 1.0)
