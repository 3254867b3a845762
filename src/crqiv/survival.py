"""Nonparametric survival estimators per (treatment, instrument) cell.

Counting processes, the product-limit estimator of the overall survival,
and the cause-specific cumulative-incidence estimator (and its survival
complement for the primary cause).  All return right-continuous step
functions.

Ties at a time point are handled with the standard convention that
failures are processed before censorings: the at-risk count at t includes
every record with y >= t, and all failures at t leave together.

The sample and its bootstrap blocks share one front end.  Each treatment
level's record indices are argsorted by follow-up time once per dataset
(``level_order``, cached until a dataset with other times or levels is
sorted, so a cause swap sorts nothing again), and each cell is gathered by
them as a ``SortedCell``, with no ``np.unique``: failure times are the runs
of equal y among the failing records, and a time's first failing record's
position counts the records below it, unless censored records tied with that
one sort before it.  A cell's counting processes come from those groups,
with every record counted once, or along each row of a block of B bootstrap
replicates given as a (B, cell size) count matrix: dN by one
``add.reduceat`` over the groups, at-risk counts by a cumulative sum.  A
block keeps every sample failure time; one that no counted record fails at
has dN = 0, adds exactly 0 to the cumulative incidence, and is no jump of
it, so each row's step function equals that of its resampled dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def _failure_groups(y: np.ndarray, event: np.ndarray) -> tuple:
    """(times, starts, cause1, below) of records with ascending times y and event codes event.

    The distinct failure times; the index among the failing records of the first one failing at each time, in
    the narrowest unsigned type; 1 for each failing record of cause 1, else 0; and the number of records below
    each time (intp): its first failing record's position, unless censored records tied with it come first.
    """
    below = np.flatnonzero(event)
    cause1 = (event[below] == 1).view(np.int8)
    new = _run_flags(y[below])
    starts = np.arange(new.size, dtype=np.min_scalar_type(y.size))[new]
    below = below[new]  # after starts, and the times last: in another order the 1e6 fit's heap grew 1.2 MB more
    del new
    # a time is searched only where the record before its first failing one is censored with the same y (before
    # position 0: the last record, tied only if every record is, and the search then gives 0 alike)
    tied = np.flatnonzero(np.take(event, below - 1) == 0)
    tied = tied[np.take(y, below[tied] - 1) == np.take(y, below[tied])]
    times = y[below]
    if tied.size:
        below[tied] = np.searchsorted(y, times[tied])
    return times, starts, cause1, below


@dataclass(eq=False)
class SortedCell:
    """One cell's records in ascending follow-up time.

    Ties come in the order of their level's sort.  ``records`` holds the
    records' indices in the dataset, by which a block of counts is
    gathered; a cell of the sample alone leaves it None, and is used once:
    ``process`` takes its records over and lets each array go once spent.
    """

    y: np.ndarray | None  # follow-up times, ascending; None once the sample's cell is processed
    event: np.ndarray | None  # event codes
    records: np.ndarray | None = None

    @cached_property
    def groups(self) -> tuple:
        """The positions in y of the failing records and ``_failure_groups``, every index in intp, for blocks."""
        times, starts, cause1, below = _failure_groups(self.y, self.event)
        return np.flatnonzero(self.event), times, starts.astype(np.intp), cause1, below

    def process(self, c: np.ndarray | None = None) -> CellProcess:
        """The cell's counting processes under each row of counts (B, cell size) in y's order.

        dn1, dn and at_risk are (B, T) on the sample's failure times, size
        is (B,); without counts, every record counts once, and they are (T,)
        with an int size.  Every entry is a whole count, so each is exact.
        Y(t) is the count less that of the records below t, as ``_failure_groups`` finds them.
        """
        if c is None:  # a cell of the sample sets the fit's peak memory: its arrays go as they are spent
            y, event, self.y, self.event = self.y, self.event, None, None
            size, (times, starts, cause1, below) = y.size, _failure_groups(y, event)
            del y, event
            at_risk = np.subtract(size, below, dtype=np.float64)
            del below
            # cause-1 failures are summed in the narrowest type that holds them all, not in a float copy of cause1
            dn1 = np.add.reduceat(cause1, starts, dtype=np.min_scalar_type(cause1.size)).astype(np.float64)
            dn = np.empty(times.size)
            np.subtract(starts[1:], starts[:-1], out=dn[:-1])
            dn[-1:] = cause1.size - starts[-1:]
            return CellProcess(times, dn1, dn, at_risk, size)
        failing, times, starts, cause1, below = self.groups
        # the counted records before each position, and in all; the sums are
        # taken in the counts' integer type, so no float copy of a count array is made
        wide = np.promote_types(c.dtype, np.int32)
        counted_below = np.zeros((len(c), self.y.size + 1), wide)
        np.cumsum(c, axis=1, out=counted_below[:, 1:])
        size = counted_below[:, -1].astype(np.int64)
        at_risk = np.subtract(size[:, None], np.take(counted_below, below, axis=1), dtype=np.float64)
        del counted_below
        failed = np.take(c, failing, axis=1).astype(wide, copy=False)
        counted = np.add.reduceat(failed, starts, axis=1, dtype=wide)
        dn = counted.astype(np.float64)
        np.multiply(failed, cause1, out=failed)
        np.add.reduceat(failed, starts, axis=1, dtype=wide, out=counted)
        del failed
        return CellProcess(times, counted.astype(np.float64), dn, at_risk, size)


# a fit, its naive curve and its bootstrap blocks take one sample at a time
_ORDERS: WeakKeyDictionary = WeakKeyDictionary()  # dataset -> {level: its record indices in time order}
_CELLS: WeakKeyDictionary = WeakKeyDictionary()  # dataset -> its sorted_cells
_PRIMARY: WeakKeyDictionary = WeakKeyDictionary()  # dataset -> {level: its primary_records}


def _level_orders(data: Dataset) -> dict:
    """The cached level orders of ``data``, kept while it lives and until a dataset with other times or levels is sorted.

    They depend only on the follow-up times and treatment levels, so the
    live datasets that share both arrays (a sample and its causes swapped)
    share one dict of them.  Cells and primary-cause records are taken on
    a dataset's orders, so every cached one goes when the orders do.
    """
    if data not in _ORDERS:
        orders = next((o for other, o in _ORDERS.items() if other.y is data.y and other.z is data.z), None)
        if orders is None:
            _ORDERS.clear()
            _CELLS.clear()
            _PRIMARY.clear()
            orders = {}
        _ORDERS[data] = orders
    return _ORDERS[data]


def level_order(data: Dataset, level: int) -> np.ndarray:
    """A treatment level's record indices in ascending follow-up time.

    One ``argsort`` of the level's times per dataset (``_level_orders``), cached in the narrowest
    unsigned type (4 bytes a record at n = 10^6); ties come in any order.  All levels are sorted at the
    first call, so that the kept orders are not made between arrays that a fit frees (at n = 10^6 the
    estimate's resident peak is 1.6 MB lower).
    """
    orders = _level_orders(data)
    if not orders:
        for zi in range(data.n_treatment_levels):
            records = np.flatnonzero(data.z == zi)
            order = np.argsort(data.y[records])
            orders[zi] = np.take(records.astype(np.min_scalar_type(data.n)), order)
            del records, order  # before the next level is sorted
    return orders[level]


def primary_records(data: Dataset, level: int, cache: bool = False) -> np.ndarray:
    """A treatment level's primary-cause record indices in ascending follow-up time, in ``level_order``'s type.

    Only the level's event codes are gathered whole.  With ``cache``, for
    blocks of counts, they are kept with the level orders.
    """
    if level not in _PRIMARY.get(data, {}):
        order = level_order(data, level)
        primary = np.compress(np.take(data.event, order) == 1, order)
        if not cache:
            return primary
        _PRIMARY.setdefault(data, {})[level] = primary
    return _PRIMARY[data][level]


def level_cells(data: Dataset, indexed: bool = False):
    """(cell, ``SortedCell``) of every cell in (z, w) order, each gathered from the dataset by ``level_order``.

    With ``indexed``, each cell keeps its records' indices in the dataset.
    A cell is gathered only once the one before it is yielded, so a used
    cell can be freed before the next is built; of its level only the
    instrument indices are kept meanwhile.
    """
    for zi in range(data.n_treatment_levels):
        order = level_order(data, zi)
        w = np.take(data.w, order)
        for wi in range(data.n_instrument_levels):
            records = np.compress(w == wi, order)
            cell = SortedCell(np.take(data.y, records), np.take(data.event, records), records if indexed else None)
            del records
            yield CellIndex(zi, wi), cell
            del cell


def sorted_cells(data: Dataset) -> dict[CellIndex, SortedCell]:
    """``level_cells`` indexed for blocks of counts, taken once and cached until another dataset's cells or sorts are."""
    if data not in _CELLS:
        _CELLS.clear()
        _CELLS[data] = dict(level_cells(data, indexed=True))
    return _CELLS[data]


def build_counting_processes(data: Dataset) -> CountingProcesses:
    """Counting processes of every cell, each record counted once, from ``level_cells``."""
    cells = {cell: sc.process() for cell, sc in level_cells(data)}
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


def incidence_values(proc: CellProcess, dnj: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """The cumulative incidence of the failures dnj at each of proc's times, along the last axis.

    A time with dN = 0 (a block's sample failure time that no counted
    record fails at, where Y may be 0 too) multiplies the survival by
    exactly 1 and adds exactly 0: Y is taken as at least 1, which changes
    it only where dN = 0.  With ``overwrite`` the result is written over
    dnj, and proc's at_risk and dn are overwritten on the way, so that no
    array of their size is made.
    """
    at_risk = np.maximum(proc.at_risk, 1.0, out=proc.at_risk if overwrite else None)
    surv = np.divide(proc.dn, at_risk, out=proc.dn if overwrite else None)
    np.subtract(1.0, surv, out=surv)
    np.cumprod(surv, axis=-1, out=surv)
    # S(s-) dN_j(s): the survival just before s, 1 before the first time
    inc = dnj if overwrite else dnj.astype(np.float64)
    np.multiply(inc[..., 1:], surv[..., :-1], out=inc[..., 1:])
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
