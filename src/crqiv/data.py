"""Observational data schema, validation, and CSV ingestion.

A dataset holds one record per subject: the follow-up time, an event code
(0 = censored, 1 = failure from the primary cause, 2 = failure from the
competing cause), a treatment level, and an instrument level.  Treatment
and instrument levels are kept as ordered label registries; records store
integer indices into those registries.

Cells (z, w) must be nonempty unless explicitly declared structurally
unreachable (one-sided noncompliance: subjects with instrument w can never
end up at treatment z).  Estimators treat declared-empty cells as having
probability zero.
"""

from __future__ import annotations

import csv
import io
import json
import mmap
import operator
import os
import re
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "CENSORED",
    "CAUSE1",
    "CAUSE2",
    "DataValidationError",
    "ObservationRecord",
    "CellIndex",
    "Dataset",
    "cell_counts",
    "load_csv",
    "save_csv",
    "resample",
    "swap_causes",
]

CENSORED, CAUSE1, CAUSE2 = 0, 1, 2

DEFAULT_COLUMNS = {"y": "time", "event": "event", "z": "treatment", "w": "instrument"}


class DataValidationError(ValueError):
    """Raised when input data violates the schema."""


class ObservationRecord(NamedTuple):
    y: float
    event: int
    z: int
    w: int


class CellIndex(NamedTuple):
    z: int
    w: int


def code_type(count: int) -> np.dtype:
    """The narrowest signed integer type holding 0 .. count - 1: int8 for up to 128 codes."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64) if count - 1 <= np.iinfo(t).max)


def _integers(a) -> np.ndarray:
    """A code column as given if it holds integers, else cast to int64 (a float is truncated)."""
    a = np.ascontiguousarray(a)
    return a if a.dtype.kind in "iu" else a.astype(np.int64)


class Dataset:
    """Validated immutable sample of (y, event, z, w) records.

    Parameters
    ----------
    y, event, z, w : array-like
        Per-record columns. ``z`` and ``w`` are integer indices into the
        level registries. They are stored read-only: ``y`` as float64, and
        ``event``, ``z`` and ``w`` each in the narrowest signed type that
        holds its codes (``code_type``), int8 for up to 128 levels.  Codes
        are checked as given, before they are narrowed.
    treatment_levels, instrument_levels : sequence
        Ordered distinct labels. At least 2 of each.
    structural_zeros : iterable of (z_index, w_index)
        Cells declared unreachable; the only cells allowed to be empty.
    """

    def __init__(
        self,
        y,
        event,
        z,
        w,
        treatment_levels: Sequence,
        instrument_levels: Sequence,
        structural_zeros: Iterable[tuple[int, int]] = (),
    ):
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        if np.signbit(self.y).any():
            # -0.0 ties 0.0 in a sort, so record order would pick the sign; + 0.0 gives +0.0, in a copy
            self.y = self.y + 0.0
        self.event, self.z, self.w = (_integers(a) for a in (event, z, w))
        self.treatment_levels = list(treatment_levels)
        self.instrument_levels = list(instrument_levels)
        self.structural_zeros = frozenset((int(a), int(b)) for a, b in structural_zeros)
        self._validate()
        # narrowed once checked, so that an out-of-range code is named as given
        self.event, self.z, self.w = (
            np.ascontiguousarray(a, code_type(count))
            for a, count in ((self.event, 3), (self.z, self.n_treatment_levels), (self.w, self.n_instrument_levels))
        )
        for a in (self.y, self.event, self.z, self.w):
            a.setflags(write=False)

    # -- basic shape --------------------------------------------------

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_treatment_levels(self) -> int:
        return len(self.treatment_levels)

    @property
    def n_instrument_levels(self) -> int:
        return len(self.instrument_levels)

    def _validate(self) -> None:
        n = self.y.shape[0]
        if not (self.event.shape[0] == self.z.shape[0] == self.w.shape[0] == n):
            raise DataValidationError("column lengths differ")
        if n == 0:
            raise DataValidationError("empty record list")
        L = len(self.treatment_levels)
        K = len(self.instrument_levels)
        if len(set(map(str, self.treatment_levels))) != L:
            raise DataValidationError("treatment levels must be distinct")
        if len(set(map(str, self.instrument_levels))) != K:
            raise DataValidationError("instrument levels must be distinct")
        if K < 2:
            raise DataValidationError(f"K >= 2 required, got K={K} instrument level(s)")
        if L < 2:
            raise DataValidationError(f"L >= 2 required, got L={L} treatment level(s)")
        bad = ~np.isfinite(self.y) | (self.y < 0)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataValidationError(f"row {i + 1}: follow-up time must be finite and >= 0, got {self.y[i]}")
        bad = (self.event < 0) | (self.event > 2)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataValidationError(f"row {i + 1}: event code must be in {{0, 1, 2}}, got {self.event[i]}")
        bad = (self.z < 0) | (self.z >= L)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataValidationError(f"row {i + 1}: treatment index out of range, got {self.z[i]}")
        bad = (self.w < 0) | (self.w >= K)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataValidationError(f"row {i + 1}: instrument index out of range, got {self.w[i]}")
        for zw in self.structural_zeros:
            if not (0 <= zw[0] < L and 0 <= zw[1] < K):
                raise DataValidationError(f"structural zero cell {zw} out of range")
        occupied = np.zeros((L, K), dtype=bool)
        occupied[self.z, self.w] = True
        self.check_occupancy(occupied)

    def check_occupancy(self, occupied: np.ndarray) -> None:
        """Raise unless exactly the undeclared cells are occupied.

        ``occupied`` is an (L, K) bool array, the sample's own or that of a
        count-weighted replicate of it; the first bad cell in (z, w) order
        is named.
        """
        for zi in range(self.n_treatment_levels):
            for wi in range(self.n_instrument_levels):
                if occupied[zi, wi] and (zi, wi) in self.structural_zeros:
                    raise DataValidationError(
                        f"cell (z={self.treatment_levels[zi]}, w={self.instrument_levels[wi]}) "
                        "declared structurally empty but has records"
                    )
                if not occupied[zi, wi] and (zi, wi) not in self.structural_zeros:
                    raise DataValidationError(
                        f"empty cell (z={self.treatment_levels[zi]}, w={self.instrument_levels[wi]}); "
                        "declare it in structural_zeros if it is unreachable by design"
                    )

    # -- access helpers ------------------------------------------------

    @property
    def records(self) -> list[ObservationRecord]:
        return [
            ObservationRecord(float(a), int(b), int(c), int(d))
            for a, b, c, d in zip(self.y, self.event, self.z, self.w)
        ]

    def cell_mask(self, cell: CellIndex | tuple[int, int]) -> np.ndarray:
        zi, wi = cell
        return (self.z == zi) & (self.w == wi)

    def cells(self) -> list[CellIndex]:
        return [
            CellIndex(zi, wi)
            for zi in range(self.n_treatment_levels)
            for wi in range(self.n_instrument_levels)
        ]

    @classmethod
    def from_records(
        cls,
        records: Iterable[ObservationRecord | tuple],
        treatment_levels: Sequence,
        instrument_levels: Sequence,
        structural_zeros: Iterable[tuple[int, int]] = (),
    ) -> "Dataset":
        rows = [tuple(r) for r in records]
        if not rows:
            raise DataValidationError("empty record list")
        y, event, z, w = (np.asarray(col) for col in zip(*rows))
        return cls(y, event, z, w, treatment_levels, instrument_levels, structural_zeros)


def swap_causes(data: Dataset) -> Dataset:
    """Relabel event causes 1 <-> 2 (censoring code 0 unchanged).

    Lets any primary-cause routine target the secondary cause instead.
    It shares the source's time and level arrays, so their cached sorts too.
    """
    ev = data.event.copy()
    ev[data.event == 1] = 2
    ev[data.event == 2] = 1
    return Dataset(
        data.y,
        ev,
        data.z,
        data.w,
        data.treatment_levels,
        data.instrument_levels,
        structural_zeros=data.structural_zeros,
    )


def cell_counts(data: Dataset) -> dict[CellIndex, int]:
    """Number of records in every (z, w) cell. Values sum to n."""
    out: dict[CellIndex, int] = {}
    for cell in data.cells():
        out[cell] = int(np.count_nonzero(data.cell_mask(cell)))
    return out


def resample(data: Dataset, rng: np.random.Generator) -> Dataset:
    """Bootstrap resample of whole records, i.i.d. with replacement.

    The bootstrap band takes the same draw as record counts,
    ``np.bincount(idx, minlength=n)``, and copies nothing.  Raises
    DataValidationError if the resample empties an undeclared cell.
    """
    idx = rng.integers(0, data.n, data.n)
    return Dataset(
        data.y[idx],
        data.event[idx],
        data.z[idx],
        data.w[idx],
        data.treatment_levels,
        data.instrument_levels,
        data.structural_zeros,
    )


# -- CSV ingestion and serialization -----------------------------------

# Bytes on which np.loadtxt and the csv module can read a file differently:
# quotes; NUL (csv rejects it before Python 3.11, and numpy text drops it at
# the end of a field); and the separators \x1c-\x1f, which np.loadtxt strips
# around a number and float() does not. Blank lines need no guard: both
# readers skip them, and the structured pass does so without a warning.
_ROW_BY_ROW = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# a line end followed by a line that is not blank: the header has a record after it
_RECORD = re.compile(rb"[\r\n]+[^\r\n]")
# latin-1 passes every byte of the UTF-8 file to the parser as it is
_LOADTXT = {"delimiter": ",", "comments": None, "skiprows": 1, "encoding": "latin1", "ndmin": 1}
# the label columns' widths are sampled from the records in this many bytes at the file's start
_HEAD_BYTES = 1 << 16
_LABELS = ("event", "z", "w")
_SAVE_CHUNK = 1 << 16


def _coerce_labels(raw: list[str]) -> list:
    try:
        return [int(s) for s in raw]
    except ValueError:
        pass
    try:
        return [float(s) for s in raw]
    except ValueError:
        return raw


def _first_appearance(labels: Iterable) -> list:
    seen: list = []
    for v in labels:
        if v not in seen:
            seen.append(v)
    return seen


def _given_order(explicit: Sequence | None, side: dict | None, side_key: str) -> list | None:
    if explicit is not None:
        return list(explicit)
    if side is not None and side_key in side:
        return list(side[side_key])
    return None


def load_csv(
    path,
    schema: Mapping[str, str] | None = None,
    treatment_order: Sequence | None = None,
    instrument_order: Sequence | None = None,
    structural_zeros: Iterable[tuple] | None = None,
    event_labels: Mapping[str, int] | None = None,
) -> Dataset:
    """Read a dataset from a CSV file with a header row.

    ``schema`` remaps logical column names; defaults are
    time/event/treatment/instrument. Level registries are built from
    distinct values in order of first appearance unless explicit orderings
    are supplied (or found in a ``<path>.levels.json`` sidecar).
    ``structural_zeros`` lists (treatment_label, instrument_label) pairs of
    cells that are unreachable by design. ``event_labels`` optionally maps
    raw event strings to codes in {0, 1, 2}.

    The body is parsed by one pass of numpy's C reader, with the time as
    float64 and each of the other three columns as strings of 2, 4 or 8
    bytes, the narrowest with room past the longest label in the file's
    first rows: 14 bytes a record for one-character codes (a column with a
    label that fills its width is read again, wider). A file that reader could read
    differently from the csv module (quotes, NUL or the bytes \\x1c-\\x1f
    anywhere in it, number text such as ``2_0``), or that fails a check, is
    read row by row instead, which accepts it as before or names the
    offending row. ``path`` must name a regular file, as it is read more
    than once; anything else, such as a directory or a pipe, is rejected
    before it is opened.
    """
    cols = dict(DEFAULT_COLUMNS)
    if schema:
        unknown = set(schema) - set(cols)
        if unknown:
            raise DataValidationError(f"unknown schema keys: {sorted(unknown)}")
        cols.update(schema)
    if os.path.exists(path) and not os.path.isfile(path):
        raise DataValidationError(f"not a regular file: {path}")

    sidecar = f"{path}.levels.json"
    side = None
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            side = json.load(fh)
    except FileNotFoundError:
        pass

    # utf-8-sig: a byte-order mark, as spreadsheet "CSV UTF-8" exports write, is not part of the first name
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header = csv.DictReader(fh).fieldnames
    if header is None:
        raise DataValidationError("missing header row")
    for logical, name in cols.items():
        if name not in header:
            raise DataValidationError(f"missing column '{name}' (for '{logical}')")

    t_order = _given_order(treatment_order, side, "treatment_levels")
    i_order = _given_order(instrument_order, side, "instrument_levels")
    # a repeated column name reads as its last copy, as in csv.DictReader
    position = {name: i for i, name in enumerate(header)}
    usecols = [position[cols[key]] for key in ("y", "event", "z", "w")]
    try:
        parsed = _read_columns(path, usecols, event_labels, t_order, i_order)
    except (ValueError, TypeError):
        parsed = None
    if parsed is None:
        parsed = _read_rows(path, cols, event_labels, t_order, i_order)
    y, event, z_idx, w_idx, t_levels, i_levels = parsed

    zeros: set[tuple[int, int]] = set()
    declared = structural_zeros
    if declared is None and side is not None:
        declared = [tuple(p) for p in side.get("structural_zeros", [])]
    if declared:
        for z_lab, w_lab in declared:
            if z_lab not in t_levels or w_lab not in i_levels:
                raise DataValidationError(f"structural zero ({z_lab!r}, {w_lab!r}) names unknown levels")
            zeros.add((t_levels.index(z_lab), i_levels.index(w_lab)))

    return Dataset(y, event, z_idx, w_idx, t_levels, i_levels, zeros)


def _read_columns(path, usecols: list[int], event_labels, t_order: list | None, i_order: list | None):
    """``_read_rows``'s result without a Python object per row.

    The file is mapped and searched for single bytes only: it goes to the
    row loop if it holds a quote, NUL or one of \\x1c-\\x1f, or no record
    after the header, and a byte that is not UTF-8 raises. Then one
    np.loadtxt pass parses the time column as float64 and the event,
    treatment and instrument columns as strings of the widths that
    ``_label_widths`` samples; only their distinct values reach Python.
    Returns None, or raises ValueError or TypeError, wherever the row loop
    could read the file differently or would raise, so that it runs instead.
    """
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as raw:
        if any(raw.find(b) >= 0 for b in _ROW_BY_ROW) or not _RECORD.search(raw):
            return None
        if np.frombuffer(raw, np.uint8).max() >= 0x80:
            str(raw, "utf-8")  # the row loop raises on a byte that is not UTF-8, in any column
        widths = _label_widths(raw[:_HEAD_BYTES], usecols[1:])

    fields = np.dtype([("y", "f8")] + [(name, f"S{width}") for name, width in zip(_LABELS, widths)])
    parsed = np.loadtxt(path, dtype=fields, usecols=usecols, **_LOADTXT)
    if not (np.isfinite(parsed["y"]) & (parsed["y"] >= 0)).all():
        return None
    # the text columns are read as views of the record array, which goes
    # once their codes and an owned copy of the times are taken
    ev_col, z_col, w_col = _distinct_text(path, usecols[1:], [parsed[name] for name in _LABELS])
    y = parsed["y"].copy()
    del parsed

    strings, _, inverse = ev_col
    codes = [
        int(event_labels[s]) if event_labels is not None and s in event_labels else int(s)
        for s in strings
    ]
    if not set(codes) <= {CENSORED, CAUSE1, CAUSE2}:
        return None
    event = np.array(codes, dtype=code_type(3))[inverse]

    z = _level_codes(z_col, t_order)
    w = _level_codes(w_col, i_order)
    if z is None or w is None:
        return None
    return y, event, z[1], w[1], z[0], w[0]


def _label_widths(head: bytes, usecols: list[int]) -> list[int]:
    """A width of 2, 4 or 8 bytes per label column: the narrowest longer than its fields in the records of head.

    head is the file's first bytes, split at commas (the file has no
    quotes); the header and the last line, which may be cut, are left out.
    A field of the width itself would fill it, as a cut label does, so
    one-character codes take 2 bytes.  The widths only save memory: a
    column with a longer label further on is read again, wider.
    """
    rows = [line.split(b",") for line in head.splitlines()[1:-1]]
    longest = [max((len(r[col]) for r in rows if col < len(r)), default=0) for col in usecols]
    return [next(w for w in (2, 4) if w > n) if n < 4 else 8 for n in longest]


def _distinct_text(path, usecols: list[int], columns: list[np.ndarray]) -> list[tuple]:
    """(distinct strings, first row of each, per-row index into them) per text column.

    ``columns`` are the columns at ``usecols`` as strings of 2, 4 or 8
    bytes, parsed through latin-1 so that every byte of the UTF-8 file
    passes as it is. Their distinct values are found on each string viewed
    as one unsigned integer of its width, so no strings are sorted, and
    only they are decoded. A distinct value that fills the width may have
    been cut; then that column alone is read again, four times as wide,
    until none does.
    """
    out = []
    for usecol, col in zip(usecols, columns):
        distinct, first, inverse = _distinct(col.view(f"<u{col.dtype.itemsize}"))
        strings = distinct.view(col.dtype).tolist()
        width = col.dtype.itemsize
        while any(len(s) == width for s in strings):
            width *= 4
            distinct, first, inverse = _distinct(np.loadtxt(path, dtype=f"S{width}", usecols=usecol, **_LOADTXT))
            strings = distinct.tolist()
        out.append(([s.decode("utf-8") for s in strings], first, inverse))
    return out


# up to this many distinct keys, each row's index is summed from one comparison per key.
# On 10^6 rows (one CPU, numpy 2.4) the sum took 0.9 ms at 2 keys, 5.5 at 8 and 11.6 at
# 16; the search 7.9, 9.8 and 11.2 ms when rows come grouped by key, and 18.6, 33.8 and
# 45.4 ms when they come shuffled.  Past 16 keys the search wins on grouped rows (11.6
# against 14.4 ms at 20, 13.6 against 48.1 at 64), on shuffled rows only past about 90.
_FEW_KEYS = 16


def _distinct(keys: np.ndarray) -> tuple:
    """``np.unique(keys, return_index=True, return_inverse=True)`` of a 1-d array, without its stable argsort.

    The distinct keys come from one sort.  The inverse is held in the
    narrowest unsigned type that fits.  With few keys it counts the keys at
    or below each row's, one comparison pass per key, and the first row of
    each index is the ``argmax`` of one more pass; with many, it is a
    ``searchsorted`` and the first rows one ``minimum.at``.
    """
    ascending = np.sort(keys)
    distinct = np.compress(_run_flags(ascending), ascending)
    del ascending
    index_type = np.min_scalar_type(distinct.size - 1)
    if distinct.size > _FEW_KEYS:
        inverse = np.searchsorted(distinct, keys).astype(index_type)
        first = np.full(distinct.shape, keys.size, dtype=np.intp)
        np.minimum.at(first, inverse, np.arange(keys.size))
        return distinct, first, inverse
    inverse = np.zeros(keys.shape, index_type)
    for key in distinct[1:]:
        inverse += keys >= key
    first = np.array([np.argmax(inverse == j) for j in range(distinct.size)], dtype=np.intp)
    return distinct, first, inverse


def _run_flags(x: np.ndarray) -> np.ndarray:
    """True at each position of ascending x that begins a run of equal values."""
    new = np.ones(x.shape, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return new


def _level_codes(column: tuple, order: list | None):
    """(registry, per-row index) of one label column, from its distinct strings.

    None where the row loop could differ: a NaN label, which it enters in a
    first-appearance registry once per row, or a label missing from
    ``order``, whose first row it names.
    """
    strings, first, inverse = column
    labels = _coerce_labels(strings)
    if any(lab != lab for lab in labels):
        return None
    if order is None:
        # a label's first row is the earliest row of any string coercing to it
        order = _first_appearance(labels[j] for j in np.argsort(first).tolist())
    lookup = {lab: i for i, lab in enumerate(order)}
    if any(lab not in lookup for lab in labels):
        return None
    return order, np.array([lookup[lab] for lab in labels], dtype=code_type(len(order)))[inverse]


def _read_rows(path, cols: dict, event_labels, t_order: list | None, i_order: list | None):
    """``load_csv``'s body parsed one csv row at a time.

    The reference for ``_read_columns``, and the path that reads what it
    declines: it names the first offending row of a bad file.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        y_raw: list[float] = []
        e_raw: list[int] = []
        z_raw: list[str] = []
        w_raw: list[str] = []
        for i, row in enumerate(csv.DictReader(fh), start=1):
            s = row[cols["y"]]
            try:
                yv = float(s)
            except (TypeError, ValueError):
                raise DataValidationError(f"row {i}: non-numeric follow-up time {s!r}") from None
            if not np.isfinite(yv) or yv < 0:
                raise DataValidationError(f"row {i}: follow-up time must be finite and >= 0, got {s}")
            ev_s = row[cols["event"]]
            if event_labels is not None and ev_s in event_labels:
                ev = int(event_labels[ev_s])
            else:
                try:
                    ev = int(ev_s)
                except (TypeError, ValueError):
                    raise DataValidationError(f"row {i}: non-integer event code {ev_s!r}") from None
            if ev not in (0, 1, 2):
                raise DataValidationError(f"row {i}: event code must be in {{0, 1, 2}}, got {ev_s}")
            y_raw.append(yv)
            e_raw.append(ev)
            z_raw.append(row[cols["z"]])
            w_raw.append(row[cols["w"]])

    if not y_raw:
        raise DataValidationError("empty record list")

    z_labels = _coerce_labels(z_raw)
    w_labels = _coerce_labels(w_raw)
    t_levels = _first_appearance(z_labels) if t_order is None else t_order
    i_levels = _first_appearance(w_labels) if i_order is None else i_order

    def index_of(labels: list, registry_: list, what: str) -> np.ndarray:
        lookup = {lab: i for i, lab in enumerate(registry_)}
        out = np.empty(len(labels), dtype=code_type(len(registry_)))
        for i, lab in enumerate(labels):
            if lab not in lookup:
                raise DataValidationError(f"row {i + 1}: {what} level {lab!r} not in the supplied ordering")
            out[i] = lookup[lab]
        return out

    z_idx = index_of(z_labels, t_levels, "treatment")
    w_idx = index_of(w_labels, i_levels, "instrument")
    return np.array(y_raw), np.array(e_raw, dtype=code_type(3)), z_idx, w_idx, t_levels, i_levels


def _csv_line(fields: list) -> str:
    """One row as csv.writer writes it, line end included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def save_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV plus a level-registry JSON sidecar.

    Follow-up times are written with shortest round-tripping decimal form,
    so load_csv(save_csv(d)) reproduces record values bit-exactly. The rest
    of each row is one of the few (event, treatment, instrument) tails,
    each formatted once by csv.writer, so labels holding commas or quotes
    stay quoted; rows are written a bounded chunk at a time.
    """
    t_levels, i_levels = data.treatment_levels, data.instrument_levels
    tails = [_csv_line(["", ev, zl, wl]) for ev in (CENSORED, CAUSE1, CAUSE2) for zl in t_levels for wl in i_levels]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(["time", "event", "treatment", "instrument"]))
        for lo in range(0, data.n, _SAVE_CHUNK):
            part = slice(lo, lo + _SAVE_CHUNK)
            # in intp: past 128 tails the key would wrap in the codes' int8
            key = (data.event[part].astype(np.intp) * len(t_levels) + data.z[part]) * len(i_levels) + data.w[part]
            times = map(repr, data.y[part].tolist())
            fh.write("".join(map(operator.add, times, map(tails.__getitem__, key.tolist()))))
    sidecar = {
        "treatment_levels": data.treatment_levels,
        "instrument_levels": data.instrument_levels,
        "structural_zeros": [
            [data.treatment_levels[a], data.instrument_levels[b]]
            for a, b in sorted(data.structural_zeros)
        ],
    }
    with open(f"{path}.levels.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1)
        fh.write("\n")
