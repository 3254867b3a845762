"""The full-sample statistics in record order: the reference for the sorted-level code.

Each function here is the record-order form of its namesake in
``crqiv``: a cell's counting processes from ``np.unique`` and
``np.bincount`` on its failure times and a ``searchsorted`` of them in its
sorted follow-up times, every cell picked out by a mask; the naive curve
from the same on a level's pooled records; the bandwidth rule's sd from
``np.std`` of the sorted sample, as the rule does not depend on the
order of the records, and its quartiles from ``np.percentile``; the
support bound and cushion from a mask of the level's primary-cause
records."""

import numpy as np

from crqiv.data import CellIndex
from crqiv.estimator import EstimationError, QuantileGrid, _no_primary_events
from crqiv.smoothing import _NO_SPREAD, _TOO_FEW, rule_of_thumb_bandwidth
from crqiv.survival import CellProcess, CountingProcesses, incidence_from


def cell_process(y, event):
    size = y.shape[0]
    fail = event != 0
    if not fail.any():
        empty = np.empty(0)
        return CellProcess(empty, empty.copy(), empty.copy(), empty.copy(), size)
    yf = y[fail]
    ef = event[fail]
    times, inv = np.unique(yf, return_inverse=True)
    dn = np.bincount(inv, minlength=times.size).astype(np.float64)
    dn1 = np.bincount(inv, weights=(ef == 1).astype(np.float64), minlength=times.size)
    at_risk = size - np.searchsorted(np.sort(y), times, side="left")
    return CellProcess(times, dn1, dn, at_risk.astype(np.float64), size)


def build_counting_processes(data):
    cells = {}
    for zi in range(data.n_treatment_levels):
        for wi in range(data.n_instrument_levels):
            mask = (data.z == zi) & (data.w == wi)
            cells[CellIndex(zi, wi)] = cell_process(data.y[mask], data.event[mask])
    inst_sizes = {
        wi: sum(c.size for cell, c in cells.items() if cell.w == wi) for wi in range(data.n_instrument_levels)
    }
    return CountingProcesses(cells, inst_sizes, data.n)


def naive_curve(data, grid=None):
    grid = grid or QuantileGrid.default()
    M, L = grid.size, data.n_treatment_levels
    out = np.full((M, L), np.inf)
    for zi in range(L):
        mask = data.z == zi
        inc = incidence_from(cell_process(data.y[mask], data.event[mask]), cause=1)
        if inc.jump_times.size == 0:
            continue
        idx = np.searchsorted(inc.values, grid.points, side="left")
        hit = idx < inc.values.size
        out[hit, zi] = inc.jump_times[idx[hit]]
    return out


def default_bandwidth(sample):
    x = np.asarray(sample, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError(_TOO_FEW)
    sd = float(np.std(np.sort(x), ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    sigma = min(sd, (q75 - q25) / 1.349)
    if sigma <= 0 or not np.isfinite(sigma):
        raise ValueError(_NO_SPREAD)
    return rule_of_thumb_bandwidth(sigma, x.size)


def estimate_y1(data):
    out = np.empty(data.n_treatment_levels)
    for zi in range(data.n_treatment_levels):
        times = data.y[(data.z == zi) & (data.event == 1)]
        if not times.size:
            raise _no_primary_events(data, zi)
        out[zi] = times.max()
    return out


def default_delta(data, level):
    try:
        return default_bandwidth(data.y[(data.z == level) & (data.event == 1)])
    except ValueError as exc:
        raise EstimationError(f"frontier cushion at treatment level {data.treatment_levels[level]!r}: {exc}") from None
