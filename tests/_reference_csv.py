"""CSV ingestion one csv row at a time: the reference for ``load_csv``.

``read_rows`` parses a body with ``csv.DictReader`` and checks each row as
it goes; it names the first offending row of a bad file.  ``load_rows``
is ``load_csv`` with ``read_rows`` as its body reader: the same schema,
sidecar, header and structural-zero handling, so that the two can be
compared on any file.

``write_rows`` is ``save_csv``'s CSV with one ``repr`` call a record: the
reference for its text built in numpy.
"""

import csv
import json
import operator
import os

import numpy as np

from crqiv.data import (
    CAUSE1,
    CAUSE2,
    CENSORED,
    DEFAULT_COLUMNS,
    DataValidationError,
    Dataset,
    _coerce_labels,
    _csv_line,
    _given_order,
    code_type,
)


def _first_appearance(labels) -> list:
    seen: list = []
    for v in labels:
        if v not in seen:
            seen.append(v)
    return seen


def load_rows(path, schema=None, treatment_order=None, instrument_order=None, structural_zeros=None,
              event_labels=None) -> Dataset:
    cols = dict(DEFAULT_COLUMNS)
    if schema:
        unknown = set(schema) - set(cols)
        if unknown:
            raise DataValidationError(f"unknown schema keys: {sorted(unknown)}")
        cols.update(schema)
    if os.path.exists(path) and not os.path.isfile(path):
        raise DataValidationError(f"not a regular file: {path}")

    side = None
    try:
        with open(f"{path}.levels.json", "r", encoding="utf-8") as fh:
            side = json.load(fh)
    except FileNotFoundError:
        pass

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header = csv.DictReader(fh).fieldnames
    if header is None:
        raise DataValidationError("missing header row")
    for logical, name in cols.items():
        if name not in header:
            raise DataValidationError(f"missing column '{name}' (for '{logical}')")

    t_order = _given_order(treatment_order, side, "treatment_levels")
    i_order = _given_order(instrument_order, side, "instrument_levels")
    y, event, z_idx, w_idx, t_levels, i_levels = read_rows(path, cols, event_labels, t_order, i_order)

    zeros = set()
    declared = structural_zeros
    if declared is None and side is not None:
        declared = [tuple(p) for p in side.get("structural_zeros", [])]
    if declared:
        for z_lab, w_lab in declared:
            if z_lab not in t_levels or w_lab not in i_levels:
                raise DataValidationError(f"structural zero ({z_lab!r}, {w_lab!r}) names unknown levels")
            zeros.add((t_levels.index(z_lab), i_levels.index(w_lab)))

    return Dataset(y, event, z_idx, w_idx, t_levels, i_levels, zeros)


def read_rows(path, cols: dict, event_labels, t_order: list | None, i_order: list | None):
    """``load_csv``'s body parsed one csv row at a time.

    The reference for ``load_csv``'s chunked reader: it names the first
    offending row of a bad file.
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


def write_rows(data: Dataset, path) -> None:
    """``save_csv``'s CSV file, without its sidecar, each time written by ``repr``."""
    t_levels, i_levels = data.treatment_levels, data.instrument_levels
    tails = [_csv_line(["", ev, zl, wl]) for ev in (CENSORED, CAUSE1, CAUSE2) for zl in t_levels for wl in i_levels]
    key = (data.event.astype(np.intp) * len(t_levels) + data.z) * len(i_levels) + data.w
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(["time", "event", "treatment", "instrument"]))
        fh.write("".join(map(operator.add, map(repr, data.y.tolist()), map(tails.__getitem__, key.tolist()))))
