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
import os
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "CENSORED",
    "CAUSE1",
    "CAUSE2",
    "DataValidationError",
    "CellIndex",
    "Dataset",
    "load_csv",
    "save_csv",
    "resample",
    "swap_causes",
]

CENSORED, CAUSE1, CAUSE2 = 0, 1, 2

DEFAULT_COLUMNS = {"y": "time", "event": "event", "z": "treatment", "w": "instrument"}


class DataValidationError(ValueError):
    """Raised when input data violates the schema."""


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
        # each column's range from its least and greatest value (a NaN is both), with no n-length temporary;
        # only a column out of range is searched for its first bad row
        if not (self.y.min() >= 0 and self.y.max() < np.inf):
            i = int(np.argmax(~np.isfinite(self.y) | (self.y < 0)))
            raise DataValidationError(f"row {i + 1}: follow-up time must be finite and >= 0, got {self.y[i]}")
        if not (self.event.min() >= 0 and self.event.max() <= 2):
            i = int(np.argmax((self.event < 0) | (self.event > 2)))
            raise DataValidationError(f"row {i + 1}: event code must be in {{0, 1, 2}}, got {self.event[i]}")
        if not (self.z.min() >= 0 and self.z.max() < L):
            i = int(np.argmax((self.z < 0) | (self.z >= L)))
            raise DataValidationError(f"row {i + 1}: treatment index out of range, got {self.z[i]}")
        if not (self.w.min() >= 0 and self.w.max() < K):
            i = int(np.argmax((self.w < 0) | (self.w >= K)))
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

# np.loadtxt splits and unquotes fields as the csv module does
_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 1}
# bytes of the file read at a time: about 5,000 records of the built-in designs
_CHUNK = 1 << 17
_BLANK = ("\n", "\r", "\r\n")
# where a byte of the body lies: at a field's start, in an unquoted field, in a quoted one, just past a quote in one
_START, _FIELD, _QUOTED, _CLOSING = range(4)
# str.splitlines ends a line at these as well
_BREAKS = "\v\f\x1c\x1d\x1e\x85"
# records written at a time; building a chunk's text peaks at about 130 traced bytes a record
_SAVE_CHUNK = 1 << 15


def _coerce_labels(raw: list[str]) -> list:
    try:
        return [int(s) for s in raw]
    except ValueError:
        pass
    try:
        return [float(s) for s in raw]
    except ValueError:
        return raw


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

    The body is parsed by numpy's C reader in chunks of whole lines, none
    ending inside a quoted field: the time as float64, the other three
    columns as 2-byte strings, widened where a label fills its field.
    Labels are coded against registries kept in order of first appearance.
    A record that fails a check is named by its row, blank lines not
    counted: a time numpy cannot read (such as ``2_0``), negative or not
    finite; an event code outside 0-2; too few fields; a byte that is not
    UTF-8, in any column. ``path`` must name a regular file; anything else,
    such as a directory or a pipe, is rejected before it is opened.
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
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
    if header is None:
        raise DataValidationError("missing header row")
    if bad := [c for name in header for c in name if "\udc80" <= c <= "\udcff"]:  # the escaped bytes
        raise DataValidationError(f"header: byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8")
    for logical, name in cols.items():
        if name not in header:
            raise DataValidationError(f"missing column '{name}' (for '{logical}')")

    # a repeated column name reads as its last copy, as in csv.DictReader
    position = {name: i for i, name in enumerate(header)}
    body = _Body(header, [position[cols[key]] for key in ("y", "event", "z", "w")], event_labels, os.path.getsize(path))
    with open(path, "rb") as fh:
        skip = reader.line_num  # the header's lines
        for block in _blocks(fh):
            text = block.decode("latin-1")  # every byte passes to the parser as it is
            # lines end at \r, \n and \r\n, as the csv module reads them
            lines = list(io.StringIO(text, newline="")) if any(c in text for c in _BREAKS) else text.splitlines(True)
            if not block.isascii():
                try:
                    block.decode("utf-8")  # in any column
                except UnicodeDecodeError as exc:
                    raise body.undecodable(lines, skip, exc) from None
            body.add(lines[skip:], len(block))
            skip = max(0, skip - len(lines))
    y, event, z_idx, w_idx, t_levels, i_levels = body.finish(
        _given_order(treatment_order, side, "treatment_levels"),
        _given_order(instrument_order, side, "instrument_levels"),
    )

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


def _blocks(fh):
    """The file in blocks of whole lines, about ``_CHUNK`` bytes each, none ending inside a quoted field."""
    pieces, state = [], _START
    while raw := fh.read(_CHUNK):
        end, state = _scan(raw, state)
        if end:
            yield b"".join([*pieces, raw[:end]])
            pieces, raw = [], raw[end:]
        pieces.append(raw)
    yield b"".join(pieces)


def _scan(text: bytes, state: int) -> tuple[int, int]:
    """(the end of the last line of text that ends outside quotes, 0 if none; the quote state at text's end).

    state is the quote state at text's start.  Each quote is read as the csv
    module reads it: one at a field's start opens the field, and one in a
    quoted field closes it unless doubled; any other is a plain character.
    """
    end = at = 0
    while at < len(text):
        if state == _QUOTED:
            quote = text.find(b'"', at)
            if quote < 0:
                break
            state, at = _CLOSING, quote + 1
        elif state == _CLOSING and text[at] == 34:  # a doubled quote
            state, at = _QUOTED, at + 1
        else:
            quote = text.find(b'"', at)
            stop = len(text) if quote < 0 else quote
            end = max(end, text.rfind(b"\n", at, stop) + 1, text.rfind(b"\r", at, stop) + 1)
            if stop > at:
                state = _START if text[stop - 1] in b",\r\n" else _FIELD
            if quote < 0:
                break
            state, at = _QUOTED if state == _START else _FIELD, quote + 1
    return end, state


class _Labels:
    """A label column's strings in order of first appearance, with the record each first appears in.

    Its fields are parsed ``width`` bytes wide; at 2, ``table`` holds each field
    value's string index, so that a chunk without a new string is one lookup.
    """

    def __init__(self):
        self.width, self.strings, self.index, self.first = 2, [], {}, []
        # a string that leaves a 2-byte field unfilled is one byte or none: there are few
        self.table = np.full(1 << 16, -1, np.int16)

    def code(self, field: np.ndarray, start: int) -> np.ndarray | None:
        """Each record's string index in a chunk's field, its records from start; None if a new string fills it.

        Such a string may have been cut: the field is widened fourfold.
        """
        keys = field.view(f"<u{self.width}") if self.width in (2, 8) else field
        if self.width == 2 and (codes := np.take(self.table, keys)).min() >= 0:
            return codes
        distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        strings = distinct.view(field.dtype).tolist()
        if any(len(s) == self.width for s in strings):
            self.width *= 4
            return None
        strings = [s.decode("utf-8") for s in strings]
        for j in np.argsort(first).tolist():
            if strings[j] not in self.index:
                self.index[strings[j]] = len(self.strings)
                self.strings.append(strings[j])
                self.first.append(start + int(first[j]))
        lut = np.array([self.index[s] for s in strings])
        if self.width == 2:
            self.table[distinct] = lut
        return lut[inverse]

    def levels(self, codes: np.ndarray, order: list | None, what: str) -> tuple[list, np.ndarray]:
        """(level registry, each record's level) from its string index; the strings are coerced as one column."""
        labels = _coerce_labels(self.strings)
        if order is None:
            # the registry holds a NaN label once per record, no NaN being equal to another
            order = list(dict.fromkeys(labels)) + [
                lab for j, lab in enumerate(labels) if lab != lab for _ in range(np.count_nonzero(codes == j) - 1)
            ]
        lookup = {lab: i for i, lab in enumerate(order)}
        if missing := [j for j, lab in enumerate(labels) if lab not in lookup]:
            j = min(missing, key=self.first.__getitem__)
            raise DataValidationError(
                f"row {self.first[j] + 1}: {what} level {labels[j]!r} not in the supplied ordering"
            )
        lut = np.array([lookup[lab] for lab in labels], code_type(len(order)))
        return order, codes if codes.dtype == lut.dtype and (lut == np.arange(lut.size)).all() else lut[codes]


class _Body:
    """A CSV body's records, added a chunk of lines at a time to arrays sized from the file's length."""

    def __init__(self, header: list[str], usecols: list[int], event_labels, size: int):
        self.header, self.usecols, self.event_labels, self.size = header, usecols, event_labels, size
        self.labels = [_Labels(), _Labels(), _Labels()]  # event, treatment, instrument
        self.events: list[int] = []  # each event string's code
        self.n = self.bytes = 0  # the records so far, and the bytes of their lines
        self.arrays: list[np.ndarray] = []  # y, event, and each record's treatment and instrument string index

    def add(self, lines: list[str], size: int) -> None:
        """Parse, check and code a chunk of whole lines, of size bytes; parse it again while a label column widens."""
        self.bytes += size
        if all(line in _BLANK for line in lines):
            return  # np.loadtxt warns on input without a record
        seen = len(self.events)
        while True:
            fields = np.dtype([("y", "f8")] + [(f"label{i}", f"S{c.width}") for i, c in enumerate(self.labels)])
            try:
                parsed = np.loadtxt(lines, dtype=fields, usecols=self.usecols, **_LOADTXT)
            except ValueError:
                raise self._rejected(lines, fields) from None
            codes = [c.code(parsed[f"label{i}"], self.n) for i, c in enumerate(self.labels)]
            if all(got is not None for got in codes):
                break

        start, stop = self.n, self.n + parsed.size
        room = stop * self.size * 17 // (16 * self.bytes)  # the file's length at the records per byte so far, and 1/16
        if not self.arrays:  # from numpy's allocator, which asks for huge pages
            self.arrays = [np.empty(room, t) for t in (np.float64, np.int8, np.int8, np.int8)]
        elif stop > self.arrays[0].size:
            for a in self.arrays:
                a.resize(room, refcheck=False)
        y = self.arrays[0][start:stop]
        y[...] = parsed["y"]
        errors = {}  # a row's time is checked before its event
        if not (y.min() >= 0 and y.max() < np.inf):
            errors[int(np.argmax(~(np.isfinite(y) & (y >= 0))))] = None
        for s, first in zip(self.labels[0].strings[seen:], self.labels[0].first[seen:]):
            if self.event_labels is not None and s in self.event_labels:
                code = int(self.event_labels[s])
            else:
                try:
                    code = int(s)
                except ValueError:
                    errors.setdefault(first - start, f"non-integer event code {s!r}")
                    continue
            if code not in (CENSORED, CAUSE1, CAUSE2):
                errors.setdefault(first - start, f"event code must be in {{0, 1, 2}}, got {s}")
            self.events.append(code)
        if errors:
            k = min(errors)
            if errors[k] is None:
                errors[k] = f"follow-up time must be finite and >= 0, got {_rows(lines)[k][self.usecols[0]]}"
            raise DataValidationError(f"row {start + k + 1}: {errors[k]}")

        self.arrays[1][start:stop] = np.take(self.events, codes[0])
        for i in (2, 3):
            dtype = code_type(len(self.labels[i - 1].strings))
            if dtype.itemsize > self.arrays[i].dtype.itemsize:
                self.arrays[i] = self.arrays[i].astype(dtype)
            self.arrays[i][start:stop] = codes[i - 1]
        self.n = stop

    def _rejected(self, lines: list[str], fields: np.dtype) -> DataValidationError:
        """The error naming the first record np.loadtxt rejects (a time it cannot read, too few fields).

        Its record is found by bisection over the chunk's records, each its
        lines up to one that ends outside quotes; a record before it that
        fails a check is named instead.
        """
        records = [record for record in _records(lines) if record[0] not in _BLANK]
        good, bad = 0, len(records)  # records[:good] parse, records[:bad] do not
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                np.loadtxt(_joined(records[:mid]), dtype=fields, usecols=self.usecols, **_LOADTXT)
                good = mid
            except ValueError:
                bad = mid
        self.add(_joined(records[:good]), 0)
        row = _rows(records[good])[0]
        missing = [c for c in self.usecols if c >= len(row)]
        if missing:
            return DataValidationError(f"row {self.n + 1}: no field for column {self.header[min(missing)]!r}")
        return DataValidationError(f"row {self.n + 1}: non-numeric follow-up time {row[self.usecols[0]]!r}")

    def undecodable(self, lines: list[str], skip: int, exc: UnicodeDecodeError) -> DataValidationError:
        """The error naming the record that holds exc's byte, which is not UTF-8, in a chunk after skip header lines.

        The chunk's records before it are added first, so that one of them
        that fails a check is named instead.
        """
        records = _records(lines[skip:])
        ends = np.cumsum([len("".join(record)) for record in records]) + len("".join(lines[:skip]))
        self.add(_joined(records[:np.searchsorted(ends, exc.start, "right")]), exc.start)
        return DataValidationError(f"row {self.n + 1}: byte {exc.object[exc.start]:#04x} is not UTF-8")

    def finish(self, t_order: list | None, i_order: list | None) -> tuple:
        """(y, event, z, w, treatment levels, instrument levels) of the records read, leaving the body empty."""
        if self.n == 0:
            raise DataValidationError("empty record list")
        for a in self.arrays:
            a.resize(self.n, refcheck=False)
        (y, event, z, w), self.arrays = self.arrays, []
        t_levels, z = self.labels[1].levels(z, t_order, "treatment")
        i_levels, w = self.labels[2].levels(w, i_order, "instrument")
        self.labels = []
        return y, event, z, w, t_levels, i_levels


def _records(lines: list[str]) -> list[list[str]]:
    """The lines grouped into csv records, each its lines up to one that ends outside quotes; blank ones kept."""
    records, record, state = [], [], _START
    for line in lines:
        record.append(line)
        state = _scan(line.encode("latin-1"), state)[1]
        if state != _QUOTED:
            records.append(record)
            record = []
    return records + [record] if record else records


def _joined(records: list[list[str]]) -> list[str]:
    return [line for record in records for line in record]


def _rows(lines: list[str]) -> list[list[str]]:
    """The csv module's rows of the latin-1 lines, blank ones skipped."""
    return [row for row in csv.reader(line.encode("latin-1").decode("utf-8") for line in lines) if row]


def _run_flags(x: np.ndarray) -> np.ndarray:
    """True at each position of ascending x that begins a run of equal values."""
    new = np.ones(x.shape, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return new


def _csv_line(fields: list) -> str:
    """One row as csv.writer writes it, line end included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def save_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV plus a level-registry JSON sidecar.

    Each follow-up time is written as repr writes it, the shortest decimal
    that reads back bit-exactly, so load_csv(save_csv(d)) reproduces record
    values. The text is built a chunk of records at a time in numpy (see
    ``crqiv._csv_text``): times from 1e-4 up to 2**53 get their digits from
    array arithmetic, and the rest (zeros, smaller or larger times, powers
    of two, and the rare value whose digits that arithmetic cannot settle)
    from repr, so the file is byte-identical to one written by csv.writer
    with repr(y) row by row. The rest of each row is one of the few
    (event, treatment, instrument) tails, each formatted once by
    csv.writer, so labels holding commas or quotes stay quoted.
    """
    from ._csv_text import Rows  # imported here, so that commands which only read data never load it

    t_levels, i_levels = data.treatment_levels, data.instrument_levels
    rows = Rows([_csv_line(["", ev, zl, wl]) for ev in (CENSORED, CAUSE1, CAUSE2) for zl in t_levels for wl in i_levels])
    with open(path, "wb") as fh:
        fh.write(_csv_line(["time", "event", "treatment", "instrument"]).encode("utf-8"))
        for lo in range(0, data.n, _SAVE_CHUNK):
            part = slice(lo, lo + _SAVE_CHUNK)
            # in intp: past 128 tails the key would wrap in the codes' int8
            key = (data.event[part].astype(np.intp) * len(t_levels) + data.z[part]) * len(i_levels) + data.w[part]
            fh.write(rows.text(data.y[part], key))
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
