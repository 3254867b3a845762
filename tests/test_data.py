import csv
import io
import json
import math
import os
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crqiv import data as data_module
from crqiv._csv_text import Rows, shortest
from crqiv.data import (
    DataValidationError,
    Dataset,
    load_csv,
    resample,
    save_csv,
    swap_causes,
)
from crqiv.estimator import QuantileGrid, fit_curve
from crqiv.simulate import DgpSpec, generate
from tests._reference_csv import load_rows, write_rows


def toy(y=(1.0, 2.0, 3.0, 4.0), event=(1, 2, 0, 1), z=(0, 1, 0, 1), w=(0, 0, 1, 1)):
    return Dataset(y, event, z, w, [0, 1], [0, 1])


# -- validation ---------------------------------------------------------


def test_single_cell_file_rejected_for_instrument_levels(tmp_path):
    p = tmp_path / "one_cell.csv"
    p.write_text(
        "time,event,treatment,instrument\n1,1,0,0\n2,2,0,0\n3,0,0,0\n4,1,0,0\n"
    )
    with pytest.raises(DataValidationError, match="K >= 2"):
        load_csv(p)


def test_negative_time_names_row(tmp_path):
    p = tmp_path / "neg.csv"
    p.write_text(
        "time,event,treatment,instrument\n1,1,0,0\n2,1,1,1\n-1,1,0,1\n3,0,1,0\n"
    )
    with pytest.raises(DataValidationError, match="row 3"):
        load_csv(p)


def test_bad_event_code_rejected():
    with pytest.raises(DataValidationError, match="event code"):
        toy(event=(1, 2, 3, 1))


def test_nonfinite_time_rejected():
    with pytest.raises(DataValidationError, match="finite"):
        toy(y=(1.0, np.inf, 2.0, 3.0))


def test_empty_cell_rejected_with_hint():
    with pytest.raises(DataValidationError, match="structural_zeros"):
        Dataset((1.0, 2.0, 3.0), (1, 1, 1), (0, 0, 1), (0, 1, 1), [0, 1], [0, 1])


def test_declared_structural_zero_allows_empty_cell():
    d = Dataset(
        (1.0, 2.0, 3.0), (1, 1, 1), (0, 0, 1), (0, 1, 1), [0, 1], [0, 1],
        structural_zeros=[(1, 0)],
    )
    assert d.structural_zeros == {(1, 0)}


def test_structural_zero_with_records_rejected():
    with pytest.raises(DataValidationError, match="declared structurally empty"):
        Dataset(
            (1.0, 2.0, 3.0, 4.0), (1, 2, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
            [0, 1], [0, 1], structural_zeros=[(0, 0)],
        )


def test_arrays_read_only():
    d = toy()
    with pytest.raises(ValueError):
        d.y[0] = 9.0


@pytest.mark.parametrize("column, codes, message", [
    ("event", [1, 300], "row 2: event code must be in {0, 1, 2}, got 300"),
    ("event", [-1, 1], "row 1: event code must be in {0, 1, 2}, got -1"),
    ("z", [0, -1], "row 2: treatment index out of range, got -1"),
    ("z", [0, 300], "row 2: treatment index out of range, got 300"),
    ("w", [256, 1], "row 1: instrument index out of range, got 256"),
])
@pytest.mark.parametrize("as_array", [False, True])
def test_codes_are_checked_as_given_before_they_are_narrowed(column, codes, message, as_array):
    cols = {"event": [1, 1], "z": [0, 1], "w": [0, 1]}
    cols[column] = np.array(codes) if as_array else codes
    with pytest.raises(DataValidationError) as err:
        Dataset((1.0, 2.0), cols["event"], cols["z"], cols["w"], [0, 1], [0, 1], [(1, 0), (0, 1)])
    assert str(err.value) == message


@pytest.mark.parametrize("column", ["event", "z", "w"])
@pytest.mark.parametrize("bad", [256, -129])
def test_unchecked_codes_that_would_wrap_when_narrowed_raise(column, bad):
    # no dataset skips the checks: a code that int8 would wrap is named as given
    cols = {"event": [1, 1], "z": [0, 1], "w": [0, 1]}
    cols[column] = np.array([0, bad])
    what = {"event": "event code must be in {0, 1, 2}", "z": "treatment index out of range",
            "w": "instrument index out of range"}[column]
    with pytest.raises(DataValidationError) as err:
        Dataset((1.0, 2.0), cols["event"], cols["z"], cols["w"], [0, 1], [0, 1])
    assert str(err.value) == f"row 2: {what}, got {bad}"


def test_code_columns_are_held_narrow():
    d = toy()
    assert d.event.dtype == d.z.dtype == d.w.dtype == np.int8
    many = Dataset(np.ones(200), np.ones(200, np.int64), np.arange(200) % 2, np.arange(200), [0, 1], list(range(200)),
                   [(1, k) for k in range(0, 200, 2)] + [(0, k) for k in range(1, 200, 2)])
    assert many.z.dtype == np.int8 and many.w.dtype == np.int16 and many.w.tolist() == list(range(200))
    sim, _ = generate(DgpSpec(design=2, n=500, seed=0))
    # columns of Python numbers, as from a list of record tuples
    records = Dataset(*(np.asarray(c.tolist()) for c in (sim.y, sim.event, sim.z, sim.w)), [0, 1], [0, 1],
                      sim.structural_zeros)
    for d2 in (sim, resample(sim, np.random.default_rng(0)), swap_causes(sim), records):
        assert d2.event.dtype == d2.z.dtype == d2.w.dtype == np.int8


# -- helpers ------------------------------------------------------------


def test_cell_counts_balanced():
    d = Dataset(
        np.arange(1.0, 9.0), [1] * 8, [0, 0, 1, 1, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1, 0, 1],
        [0, 1], [0, 1],
    )
    assert all(np.count_nonzero((d.z == z) & (d.w == w)) == 2 for z, w in np.ndindex(2, 2))


def test_resample_deterministic_and_shape():
    # 3 records per cell so no seed below empties a cell
    d = toy(
        y=np.tile([1.0, 2.0, 3.0, 4.0], 3),
        event=np.tile([1, 2, 0, 1], 3),
        z=np.tile([0, 1, 0, 1], 3),
        w=np.tile([0, 0, 1, 1], 3),
    )
    r1 = resample(d, np.random.default_rng(5))
    r2 = resample(d, np.random.default_rng(5))
    assert r1.n == d.n
    assert np.array_equal(r1.y, r2.y) and np.array_equal(r1.z, r2.z)
    assert r1.treatment_levels == d.treatment_levels
    r3 = resample(d, np.random.default_rng(6))
    assert not (np.array_equal(r1.y, r3.y) and np.array_equal(r1.event, r3.event))


def test_resample_rejects_degenerate_draw():
    # a draw that repeats one record empties the other cells; the error is
    # the documented signal bootstrap callers count as a failed replicate
    class RepeatFirst:
        def integers(self, low, high, size):
            return np.zeros(size, dtype=np.int64)

    with pytest.raises(DataValidationError, match="empty cell"):
        resample(toy(), RepeatFirst())


def test_swap_causes_is_involution():
    d = toy()
    s = swap_causes(d)
    assert np.array_equal(s.event, [2, 1, 0, 2])
    back = swap_causes(s)
    assert np.array_equal(back.event, d.event)
    assert np.array_equal(s.y, d.y)
    assert s.structural_zeros == d.structural_zeros


def test_from_records_round_trip():
    records = [(1.5, 1, 0, 0), (2.5, 0, 1, 0), (0.5, 2, 0, 1), (1.0, 1, 1, 1)]
    d = Dataset(*(np.asarray(c) for c in zip(*records)), [0, 1], [0, 1])
    assert d.n == 4
    assert list(zip(d.y.tolist(), d.event.tolist(), d.z.tolist(), d.w.tolist())) == records


# -- CSV I/O ------------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path):
    y = np.array([0.1, 1 / 3, 1e-17, 7.25, 2.0000000000000004])
    d = Dataset(y, [1, 2, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 1, 1],
                ["ctl", "trt"], ["a", "b"], structural_zeros=[])
    p = tmp_path / "d.csv"
    save_csv(d, p)
    back = load_csv(p)
    assert np.array_equal(back.y, d.y)
    assert np.array_equal(back.event, d.event)
    assert np.array_equal(back.z, d.z)
    assert np.array_equal(back.w, d.w)
    assert back.treatment_levels == d.treatment_levels
    assert back.instrument_levels == d.instrument_levels


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark
    d, _ = generate(DgpSpec(design=2, n=300, seed=4))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    save_csv(d, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    (tmp_path / "marked.csv.levels.json").write_bytes((tmp_path / "plain.csv.levels.json").read_bytes())
    want = _outcome(plain)
    assert want[0] == "ok"
    assert _outcome(marked) == _row_loop_outcome(marked) == want


def test_csv_sidecar_preserves_registry_and_zeros(tmp_path):
    d = Dataset(
        (1.0, 2.0, 3.0), (1, 1, 1), (0, 0, 1), (0, 1, 1), ["base", "alt"], [0, 1],
        structural_zeros=[(1, 0)],
    )
    p = tmp_path / "z.csv"
    save_csv(d, p)
    back = load_csv(p)
    assert back.treatment_levels == ["base", "alt"]
    assert back.structural_zeros == {(1, 0)}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=4,
        max_size=40,
    )
)
def test_csv_round_trip_property(tmp_path_factory, rows):
    # force every cell occupied so validation passes
    rows = rows + [(1.0, 1, 0, 0), (1.0, 1, 0, 1), (1.0, 1, 1, 0), (1.0, 1, 1, 1)]
    y, e, z, w = zip(*rows)
    d = Dataset(y, e, z, w, [0, 1], [0, 1])
    p = tmp_path_factory.mktemp("csv") / "prop.csv"
    save_csv(d, p)
    back = load_csv(p)
    assert np.array_equal(back.y, d.y)
    assert np.array_equal(back.event, d.event)


# -- the chunked reader against the row loop ------------------------------


def _outcome(path, load=load_csv):
    """What load returns, bit for bit, or the error it raises; a warning is an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = load(path)
    except Exception as exc:  # both readers must fail alike, whatever the error
        return ("error", type(exc).__name__, str(exc))
    arrays = tuple((a.dtype.str, a.tobytes()) for a in (d.y, d.event, d.z, d.w))
    return ("ok", arrays, repr(d.treatment_levels), repr(d.instrument_levels), sorted(d.structural_zeros))


def _row_loop_outcome(path):
    """What the reference reader, one csv row at a time, returns or raises."""
    return _outcome(path, load_rows)


# odd field text that both readers read alike; the text they read
# differently is pinned in examples of the differential test
_TIME_TEXT = st.sampled_from([
    "1", "2.5", "0", "-0.0", " 3", "4 ", "\t7", "1e3", "+5", ".5", "#5", "1e-400",
    "nan", "inf", "-inf", "-1", "", "x", "5\x00",
])
_EVENT_TEXT = st.sampled_from(
    ["0", "1", "2", "1.0", "+1", " 1", "2 ", "01", "3", "03", "+3", "-1", "", "x", "fail", "cens", "1_0", "nan"]
)
_LABEL_TEXT = st.sampled_from([
    "0", "1", "2", "01", "+1", " 1", "1.0", "1.5", "-0.0", "0.0", "a", "b", "a,b",
    'say "hi"', "#x", "x#", "nan", "NaN", "inf", "\xe9", "", "1_0",
    "abcdefg", "abcdefgh", "abcdefghi", "caf\xe9 au", "\u20ac\u20ac\u20ac",
])
_LEVEL_PAIRS = [("0", "1"), ("a", "b"), ("a,b", 'say "hi"'), ("1", "01"), ("-0.0", "0.0"), ("0", "1.5"), ("b", "a"),
                ("nan", "1.5"), ("control", "treated"), ("placebo_a", "placebo_b"),
                ("\xe9t\xe9", "hiver"), ("abcdefgh1", "abcdefgh2")]


def _orders(pair):
    """None (first appearance), the pair's labels in either order, or an ordering that misses one."""
    labels = data_module._coerce_labels(list(pair))
    return st.sampled_from([None, None, labels, labels[::-1], [labels[0], "other"]])


@st.composite
def _csv_files(draw):
    """CSV text that the row loop reads or rejects, and the level sidecar beside it, or None."""
    names = {"y": "time", "event": "event", "z": "treatment", "w": "instrument"}
    header = draw(st.permutations([*names.values(), *draw(st.sampled_from([[], ["note"], ["note", "time"]]))]))
    # a block covering every (z, w) cell and clean rows, so that many draws
    # load; a few odd rows, so that many do not
    z_pair, w_pair = draw(st.sampled_from(_LEVEL_PAIRS)), draw(st.sampled_from(_LEVEL_PAIRS))
    rows = [{"y": "1.5", "event": "1", "z": zl, "w": wl} for zl in z_pair for wl in w_pair]
    rows += draw(st.lists(
        st.fixed_dictionaries({
            "y": st.floats(min_value=0.0, max_value=1e9, allow_nan=False).map(repr),
            "event": st.sampled_from(["0", "1", "2"]),
            "z": st.sampled_from(z_pair),
            "w": st.sampled_from(w_pair),
        }),
        max_size=8,
    ))
    odd = st.one_of(
        st.tuples(st.just("y"), _TIME_TEXT),
        st.tuples(st.just("event"), _EVENT_TEXT),
        st.tuples(st.just("z"), _LABEL_TEXT),
        st.tuples(st.just("w"), _LABEL_TEXT),
    )
    rows = draw(st.permutations(rows))
    for key, text in draw(st.booleans()) * draw(st.lists(odd, max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = {**rows[i], key: text}
    column_of = {name: key for key, name in names.items()}
    last = {name: i for i, name in enumerate(header)}  # the copy of a repeated name that is read

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="")
    quoted = draw(st.booleans())

    def line(fields):
        if not quoted:
            return ",".join(fields)
        buf.seek(0)
        buf.truncate()
        writer.writerow(fields)
        return buf.getvalue()

    nl = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [line(header)] + [
        line([row[column_of[c]] if c in column_of and last[c] == i else "7" for i, c in enumerate(header)])
        for row in rows
    ]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    bom = draw(st.sampled_from(["", "", "", "", "", "\ufeff"]))
    text = bom + nl.join(lines) + draw(st.sampled_from(["", nl, nl, nl + nl]))

    # each part of the sidecar drawn on its own: level orders, and structural zeros
    # that are none, name an unknown level, or name a cell that holds records
    parts = {
        "treatment_levels": draw(_orders(z_pair)),
        "instrument_levels": draw(_orders(w_pair)),
        "structural_zeros": draw(st.sampled_from([None, None, [], [[z_pair[0], "other"]], [[1, 0]]])),
    }
    sidecar = {key: part for key, part in parts.items() if part is not None}
    return text, draw(st.sampled_from([None, sidecar]))


def _case(*rows, header="time,event,treatment,instrument", nl="\n"):
    """A file with one cell-covering block of clean rows after ``rows``, and no sidecar."""
    block = ["1.5,1,0,0", "2.5,1,0,1", "3.5,2,1,0", "4.5,0,1,1"]
    return header + nl + nl.join([*rows, *block]) + nl, None


def _changed(case, now):
    """A case that load_csv reads otherwise than the row loop: now is the error it raises, or a case read as it is."""
    return (*case, now)


def _write(directory, case):
    text, sidecar = case[:2]
    p = directory / "d.csv"
    p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    if sidecar is not None:
        (directory / "d.csv.levels.json").write_text(json.dumps(sidecar))
    return p


def _error(message, kind="DataValidationError"):
    return ("error", kind, message)


@settings(max_examples=400, deadline=None)
@given(_csv_files())
@example(("time,event,treatment,instrument\r\n", None))
@example(_case("-1,1,0,0"))
@example(_case("nan,1,0,0"))
@example(_case("3,+3,0,0"))
@example(_case("3,1.0,0,0"))
@example(_case("3, 1 ,0 ,\t1"))
@example(_case('3,1,"0",1', '3,1,"1,0",1'))
@example(_case('3,1,0,"say ""hi"""', '3,1,1,"say ""hi"""'))
@example(_case("3,1,0,#x", "3,1,0,#x", "", nl="\r\n"))
@example(_case("3,1,nan,0", "3,1,nan,1"))
@example(_case("3,1,0,0,extra", "", header="\ufefftime,event,treatment,instrument"))
@example(_case("3,1,0,0", "", "", "3,1,1,1", "", nl="\r\n"))  # blank lines between records
@example(_case("3,1,0,0", "", "", "3,1,1,1", "", nl="\r"))
@example(("time,event,treatment,instrument\r\n\r\n\n", None))  # blank lines and no record
@example(_case("3,1,abcdefgh,0", "3,1,abcdefgh,1"))  # an 8-byte label beside 1-byte ones
@example(_case("3,censored_x,0,0"))  # an event text past 8 bytes
# labels whose first appearance is not their sorted order, in both label columns
@example(_case("3,1,z,1", "3,2,z,0", "3,1,a,1", "3,0,a,0"))
# labels alike in their first 8 bytes, and one past 32: read again at 32 bytes, then at 128
@example(_case(*(f"3,1,{z},{w}" for z in ("treatment_group_a", "treatment_group_b", "arm_" + "x" * 36)
                 for w in (0, 1))))
# thousands of distinct instrument labels, first seen in no sorted order
@example(_case(*(f"{1 + j % 7},{j % 3},{z},i{j * 7919 % 2003}" for j in range(2003) for z in (0, 1))))
# a bad event before a row whose time np.loadtxt rejects, in the same chunk: the earlier row is named
@example(_case("3,x,0,0", "x,1,0,0"))
# a quoted label holding line breaks, a blank line among them, before a time np.loadtxt rejects in the same chunk
@example(_case('3,1,"a\n\nb",0', '3,1,"a\n\nb",1', '4,2,"a\n\nb",1', "x,1,0,0"))
# labels holding characters at which str.splitlines, and not the csv module, ends a line
@example(_case("3,1,a\x0bb,0", "3,1,a\x0cb,1", "3,2,c\x1ed,1", "3,0,\xc5,0", "3,1,\xc5,1"))
# NUL that ends a label or an event code, which both readers drop, as numpy's byte-string fields do;
# an unquoted label holding a comma moves the next field, here a time, into the event column
@example(_case("3,1,0,1\x00"))
@example(_case("3,1,a,0", "3,1,a\x00,1", "3,1,b,0", "3,1,b,1", header="time,event,instrument,treatment"))
@example(_case("3,1\x00,0,0"))
@example(_case("a,b,0,5\x00,1", header="treatment,instrument,time,event"))
@example(_case("3,1,0,5\x00"))
# the cases read otherwise than by the row loop, each with its new outcome:
# \x1c-\x1f beside a number, which np.loadtxt strips and float() does not
@example(_changed(_case("1\x1c,1,0,0"), _case("1,1,0,0")))
@example(_changed(_case("\x1f2,1,0,0"), _case("2,1,0,0")))
# number text that float() reads and np.loadtxt does not: underscores, non-ASCII digits and spaces
@example(_changed(_case("2_0,1,0,0"), _error("row 1: non-numeric follow-up time '2_0'")))
@example(_changed(_case("\u0663,1,0,0"), _error("row 1: non-numeric follow-up time '\u0663'")))
@example(_changed(_case("\xa08,1,0,0"), _error("row 1: non-numeric follow-up time '\\xa08'")))
# rows with too few fields for the columns read, a whitespace-only line among them
@example(_changed(_case("3,1,0,0", " ", "3,1,1,1"), _error("row 2: no field for column 'event'")))
@example(_changed(_case("3,1,0"), _error("row 1: no field for column 'instrument'")))
@example(_changed(_case("3,1"), _error("row 1: no field for column 'treatment'")))
@example(_changed(_case("3,1,0,0", header="x,event,treatment,instrument,time"),
                  _error("row 1: no field for column 'time'")))
# a byte that is not UTF-8, in a column neither reader parses, past the header's first 8 KiB read:
# the row loop raises a bare UnicodeDecodeError, load_csv names the record
@example(_changed((b"time,event,treatment,instrument,note\n1.5,1,0,1," + b"x" * 9000
                   + b"\n3,1,0,0,\xff\n3.5,2,1,0,x\n4.5,0,1,1,x\n", None),
                  _error("row 2: byte 0xff is not UTF-8")))
def test_columnar_reader_matches_row_loop(tmp_path_factory, case):
    text, sidecar, *now = case
    p = _write(tmp_path_factory.mktemp("diff"), case)
    before = _row_loop_outcome(p)
    if not now:
        assert _outcome(p) == before
        return
    (now,) = now
    want = now if now[0] == "error" else _row_loop_outcome(_write(tmp_path_factory.mktemp("now"), now))
    assert want != before  # the change is real
    assert _outcome(p) == want


@pytest.mark.parametrize("rows, sidecar, message", [
    # a label that reads as NaN equals no level, not even itself; it was read as one level a record
    (("3,1,nan,0", "3,1,nan,1"), None, "row 1: treatment level 'nan' reads as NaN"),
    (("3,1,0,0", "3,1,1,NaN"), None, "row 2: instrument level 'NaN' reads as NaN"),
    (("3,1,0,1.5", "3,1,1,nan"), {"instrument_levels": [0, 1, 1.5]}, "row 2: instrument level 'nan' reads as NaN"),
    # an ordering that misses a label before the NaN one is named first
    (("3,1,2,0", "3,1,nan,0"), {"treatment_levels": [0, 1]}, "row 1: treatment level 2.0 not in the supplied ordering"),
], ids=["treatment", "instrument", "ordered", "unordered-first"])
def test_nan_label_is_named_by_its_row(tmp_path, rows, sidecar, message):
    p = _write(tmp_path, (_case(*rows)[0], sidecar))
    assert _outcome(p) == _row_loop_outcome(p) == _error(message)


@pytest.mark.parametrize("sidecar, message", [
    ([], "must hold a JSON object, got []"),
    ({"treatment_levels": 3}, "treatment_levels must be a list of strings and numbers, got 3"),
    ({"instrument_levels": [[0], [1]]}, "instrument_levels must be a list of strings and numbers, got [[0], [1]]"),
    ({"structural_zeros": 5}, "structural_zeros must be a list of [treatment, instrument] pairs, got 5"),
    ({"structural_zeros": [[1]]}, "structural_zeros must be a list of [treatment, instrument] pairs, got [[1]]"),
], ids=["list", "order", "unhashable-labels", "zeros", "pair"])
def test_bad_sidecar_is_named_with_its_key(tmp_path, sidecar, message):
    # each once raised a bare AttributeError or TypeError, or failed to unpack a pair
    p = _write(tmp_path, (_case()[0], sidecar))
    assert _outcome(p) == _row_loop_outcome(p) == _error(f"{p}.levels.json: {message}")


def test_sidecar_that_is_not_json_is_named(tmp_path):
    p = _write(tmp_path, _case())
    (tmp_path / "d.csv.levels.json").write_text("{")
    kind, name, message = _outcome(p)
    assert (kind, name) == ("error", "DataValidationError")
    assert message.startswith(f"{p}.levels.json: not valid JSON: ")
    assert _row_loop_outcome(p) == (kind, name, message)


@pytest.mark.parametrize("labels", [
    ["placebo_a", "placebo_b"],  # 9 bytes, alike in the first 8
    ["abcdefgh", "abcdefg"],  # exactly 8 bytes
    ["\xe9t\xe9", "€"],  # non-ASCII, under 8 bytes
    ["€€€", "€€€€"],  # non-ASCII, 9 and 12 bytes
])
def test_long_and_non_ascii_labels_read_alike(tmp_path, labels):
    d = Dataset((1.0, 2.5, 0.25, 4.0, 3.0), (1, 2, 0, 1, 2), (0, 1, 0, 1, 0), (0, 0, 1, 1, 1), labels, labels[::-1])
    p = tmp_path / "long.csv"
    save_csv(d, p)
    (tmp_path / "long.csv.levels.json").unlink()
    got = _outcome(p)
    assert got[0] == "ok" and got == _row_loop_outcome(p)
    back = load_csv(p)
    assert back.treatment_levels == labels and back.instrument_levels == labels[::-1]
    assert back.z.tolist() == d.z.tolist() and back.w.tolist() == d.w.tolist()


def _label_file(path, z_labels, w_labels, events=("1", "2", "0", "1"), rows=40, late=()):
    """A file whose rows cycle through the labels, with every (treatment, instrument) pair, then the rows in late."""
    lines = ["time,event,treatment,instrument"]
    for i in range(rows):
        lines.append(f"{1 + i % 9},{events[i % len(events)]},{z_labels[i % 2]},{w_labels[i // 2 % 2]}")
    path.write_text("\n".join([*lines, *late]) + "\n", encoding="utf-8")


def _read_alike(path):
    """load_csv's dataset, checked to be the row loop's bit for bit."""
    got = _outcome(path)
    assert got[0] == "ok" and got == _row_loop_outcome(path)
    return load_csv(path)


# rows of _label_file enough that the later ones lie past the first chunk of the file
_PAST_CHUNK = data_module._CHUNK // 8 + 100


# width names each case: the narrowest of 2, 4 and 8 bytes with room past its labels
@pytest.mark.parametrize("z_labels, w_labels, width", [
    (["a", "b"], ["x", "y"], 2),  # one-character codes: 14 bytes a record
    (["ab", "cd"], ["xy", "xz"], 4),
    (["abc", "abd"], ["xyz", "xy"], 4),
    (["\xe9", "e"], ["\xe8t", "\xe8"], 4),  # a 2-byte UTF-8 label, and a 3-byte one
])
def test_sized_label_read_matches_row_loop(tmp_path, z_labels, w_labels, width):
    p = tmp_path / "sized.csv"
    _label_file(p, z_labels, w_labels)
    back = _read_alike(p)
    assert (back.treatment_levels, back.instrument_levels) == (z_labels, w_labels)


@pytest.mark.parametrize("late", ["ab", "abcd", "treatment_long_label", "€", "\xe9"])
def test_label_past_the_sampled_width_reads_alike(tmp_path, late):
    # a label that fills the 2-byte field, first met in a later chunk, is
    # cut there, so that the chunk is parsed again with the field wider
    p = tmp_path / "late.csv"
    _label_file(p, ["a", "b"], ["x", "y"], rows=_PAST_CHUNK, late=[f"5,1,{late},x", f"6,2,{late},y"])
    assert late.encode() not in p.read_bytes()[:data_module._CHUNK]
    assert _read_alike(p).treatment_levels == ["a", "b", late]


# width names each case: the event field's width, of 2, 8 and 32 bytes, with room past its event texts
@pytest.mark.parametrize("events, width, late", [
    (("1", "2", "0"), 2, ()),
    (("01", "+2", "00"), 8, ()),
    (("0001", "0002", "0000"), 8, ()),
    (("00000001", "00000002", "00000000"), 32, ()),
    (("1", "2", "0"), 2, ("7,00000000000,a,x",)),  # a long event text past the first chunk
])
def test_event_code_texts_read_alike(tmp_path, events, width, late):
    p = tmp_path / "events.csv"
    _label_file(p, ["a", "b"], ["x", "y"], events=events, rows=_PAST_CHUNK if late else 40, late=late)
    assert set(_read_alike(p).event.tolist()) == {0, 1, 2}


def test_round_trip_with_quoted_levels_reads_row_by_row(tmp_path):
    # quoted labels, with a comma and with doubled quotes, load through the one reader
    d = Dataset((1.0, 2.5, 0.25, 4.0), (1, 2, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), ["a,b", 'say "hi"'], ["x", "y"])
    p = tmp_path / "q.csv"
    save_csv(d, p)
    assert '"a,b"' in p.read_text() and '"say ""hi"""' in p.read_text()
    (tmp_path / "q.csv.levels.json").unlink()
    back = _read_alike(p)
    assert back.treatment_levels == ["a,b", 'say "hi"']
    for a, b in ((back.y, d.y), (back.event, d.event), (back.z, d.z), (back.w, d.w)):
        assert a.tobytes() == b.tobytes()


def test_simulated_1e5_rows_read_alike_by_both_paths(tmp_path):
    d, _ = generate(DgpSpec(design=1, n=100_000, seed=3))
    p = tmp_path / "sim.csv"
    save_csv(d, p)
    got = _outcome(p)
    assert got[0] == "ok"
    assert got == _row_loop_outcome(p)
    assert got[1][0][1] == d.y.tobytes() and got[1][1][1] == d.event.tobytes()


def test_loaded_columns_own_their_data(tmp_path):
    # no column is a view onto a chunk's parse, which would keep it alive
    d, _ = generate(DgpSpec(design=1, n=2000, seed=3))
    p = tmp_path / "sim.csv"
    save_csv(d, p)
    for back in (load_csv(p), load_rows(p)):
        for a in (back.y, back.event, back.z, back.w):
            assert a.flags.c_contiguous and not a.flags.writeable and a.base is None


def twelve_levels(treatment_labels, instrument_labels) -> tuple:
    """(dataset, event, z, w): twelve treatment and twelve instrument levels, 40 records in each cell z <= w."""
    L = K = 12
    rng = np.random.default_rng(12)
    cells = [(z, w) for z in range(L) for w in range(K) if z <= w]
    z, w = (np.repeat(c, 40) for c in zip(*cells))
    event = rng.integers(0, 3, z.size)
    event[::40] = 1  # a primary-cause event in every cell
    event[-1] = 2
    d = Dataset(rng.exponential(size=z.size), event, z, w, treatment_labels, instrument_labels,
                [(a, b) for a in range(L) for b in range(K) if a > b])
    return d, event, z, w


def test_twelve_levels_round_trip_and_fit_past_the_narrow_key(tmp_path):
    # save_csv's key (event L + z) K + w reaches 431 at L = K = 12: it
    # would wrap in the columns' int8, so it is taken in intp
    L = K = 12
    d, event, z, w = twelve_levels(list(range(L)), [f"w{k}" for k in range(K)])
    assert ((d.event[-1:] * L + d.z[-1:]) * K + d.w[-1:])[0] != 431  # the narrow arithmetic wraps
    p = tmp_path / "twelve.csv"
    save_csv(d, p)
    with open(p, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(int(e), int(a), b) for _, e, a, b in rows] == [(int(e), int(a), f"w{b}") for e, a, b in zip(event, z, w)]
    back = load_csv(p)
    for a, b in zip((back.y, back.event, back.z, back.w), (d.y, d.event, d.z, d.w)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    fit = fit_curve(back, grid=QuantileGrid.default(10))
    counts = np.zeros((L, K))
    np.add.at(counts, (z, w), 1)
    assert np.array_equal(fit.surface.p_hat, counts / counts.sum(axis=0))
    y1 = [back.y[(event == 1) & (z == level)].max() for level in range(L)]
    assert fit.frontiers.y_hat.tolist() == y1 and fit.theta.shape == (10, L)


def test_load_csv_memory_peak(tmp_path):
    # the body is parsed a chunk of lines at a time into arrays sized from
    # the file's length, its label fields 2 bytes wide and coded in int8:
    # 4,018,059 traced bytes at the peak on this file with numpy 2.4: its
    # 2.2 MB of columns, sized a sixteenth over, and about 1.4 MB for one
    # chunk's lines and parse (13,341,873 at 10^6 records); before the
    # range checks took min and max in place of bool temporaries it peaked
    # at 4,148,781; parsing the whole body at once, with 2-byte label
    # fields, it peaked at 5,128,038, and with 8-byte fields at 8,696,875
    data, _ = generate(DgpSpec(design=1, n=200_000, seed=0))
    p = tmp_path / "sim.csv"
    save_csv(data, p)
    tracemalloc.start()
    try:
        load_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_060_000


# -- chunk boundaries ------------------------------------------------------


def _chunked_file(path, nl="\n", blank_every=0, before=(), after=()):
    """The rows of before, clean rows over more than two chunks of the file, then those of after.

    A blank line follows every blank_every-th clean row; a lone surrogate
    in a row is written as the byte it escapes.  Returns the number of
    records before the rows of after.
    """
    rows = 3 * data_module._CHUNK // 8
    lines = ["time,event,treatment,instrument", *before]
    for i in range(rows):
        lines.append(f"{1 + i % 9},{(1, 2, 0)[i % 3]},{i % 2},{i // 2 % 2}")
        if blank_every and i % blank_every == blank_every - 1:
            lines.append("")
    path.write_bytes(nl.join([*lines, *after, ""]).encode("utf-8", "surrogateescape"))
    return len(before) + rows


@pytest.mark.parametrize("nl", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("bad, message", [
    ("x,1,0,0", "non-numeric follow-up time 'x'"),
    ("-2,1,0,0", "follow-up time must be finite and >= 0, got -2"),
    ("3,7,0,0", "event code must be in {0, 1, 2}, got 7"),
    ("3,1,0", "no field for column 'instrument'"),
    # a byte that is not UTF-8: in a label, on the second line of a quoted label, in a column not read
    ("3,1,caf\udce9,0", "byte 0xe9 is not UTF-8"),
    ('3,1,"two\nlines \udcff",0', "byte 0xff is not UTF-8"),
    ("3,1,0,0,note \udce9", "byte 0xe9 is not UTF-8"),
])
def test_bad_record_past_the_first_chunk_is_named_by_its_row(tmp_path, nl, bad, message):
    # a row counts records: the blank lines of the chunks before it are not counted
    p = tmp_path / "bad.csv"
    records = _chunked_file(p, nl, blank_every=7, after=[bad, "4,1,1,1"])
    got = _outcome(p)
    assert got == ("error", "DataValidationError", f"row {records + 1}: {message}")
    # the row loop reads a short row's missing fields as None, and raises a bare UnicodeDecodeError
    if bad != "3,1,0" and "UTF-8" not in message:
        assert got == _row_loop_outcome(p)


def test_byte_not_utf8_in_the_header_or_before_a_bad_record(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"time,event,treatment,instrument,caf\xe9\n3,1,0,0,x\n")
    assert _outcome(p) == ("error", "DataValidationError", "header: byte 0xe9 is not UTF-8")
    # a record before the byte's that fails a check is named first, as load_csv reads the file in order
    p.write_bytes(b"time,event,treatment,instrument\n3,1,0,0\nx,1,0,1\n3,1,\xe9,0\n")
    assert _outcome(p) == ("error", "DataValidationError", "row 2: non-numeric follow-up time 'x'")


def test_label_first_seen_in_a_later_chunk_takes_the_next_code(tmp_path):
    p = tmp_path / "late.csv"
    n = _chunked_file(p, after=["5,1,2,0", "6,1,2,1", "7,2,0,2", "8,1,1,2", "9,0,2,2"])
    back = _read_alike(p)
    assert back.treatment_levels == [0, 1, 2] and back.instrument_levels == [0, 1, 2]
    assert back.z[n:].tolist() == [2, 2, 0, 1, 2] and back.w[n:].tolist() == [0, 1, 2, 2, 2]


def test_wide_label_first_met_in_a_later_chunk_reads_whole(tmp_path):
    # 2-byte fields in the first chunks; 40 bytes, past even the once-widened field, in the last
    wide = "arm_" + "x" * 36
    p = tmp_path / "wide.csv"
    n = _chunked_file(p, after=[f"5,1,{wide},0", f"6,1,{wide},1"])
    back = _read_alike(p)
    assert back.treatment_levels == ["0", "1", wide] and back.z[n:].tolist() == [2, 2]


@pytest.mark.parametrize("nl", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("blank_every", [0, 3])
def test_line_ends_across_chunks_read_alike(tmp_path, nl, blank_every):
    # the arrays are sized from the file's length at the first chunk's bytes
    # a record: long rows there leave them short, to grow; blank lines and
    # the short rows after leave them long, to be trimmed
    p = tmp_path / "ends.csv"
    long_rows = [f"{1 / 3 + i!r},1,{i % 2},{i // 2 % 2}" for i in range(data_module._CHUNK // 20)]
    n = _chunked_file(p, nl, blank_every, before=long_rows)
    assert _read_alike(p).n == n


def _padded(text: str, end: int) -> str:
    """text and clean rows after it, ending 10 bytes before byte end of the file."""
    cells = ["1,1,0,0\n", "2,1,0,1\n", "3,2,1,0\n", "4,0,1,1\n"]
    while end - len(text) - 10 >= 16:
        text += cells[len(text) // 8 % 4]
    text += "1" * (end - len(text) - 17) + ",1,0,0\n"
    assert len(text) == end - 10
    return text


def test_quoted_line_break_across_a_chunk_boundary_reads_alike(tmp_path):
    # a quoted label holding line breaks, placed so that the first read of the
    # file ends inside it: the chunk runs on to the quote that closes it
    label = "two\nline\r\nlabel"
    text = _padded("time,event,treatment,instrument\n", data_module._CHUNK)
    text += f'6,1,"{label}",0\n7,1,"{label}",1\n'
    p = tmp_path / "quoted.csv"
    p.write_bytes(text.encode("utf-8"))
    assert text.index("\n", data_module._CHUNK - 10) < data_module._CHUNK < text.index('",0')
    back = _read_alike(p)
    assert back.treatment_levels == ["0", "1", label] and back.z[-2:].tolist() == [2, 2]


def test_stray_quote_holds_no_chunk_open(tmp_path):
    # a quote inside an unquoted field is a plain character, as the csv module
    # reads it; two chunks on, the file's second read ends between the line
    # break of a quoted label and its closing quote
    text = _padded('time,event,treatment,instrument,note\n3,1,0,0,O"Brien\n', 2 * data_module._CHUNK)
    text += '6,1,"two\nlines",0\n7,1,"two\nlines",1\n'
    p = tmp_path / "stray.csv"
    p.write_bytes(text.encode("utf-8"))
    assert text.index("\n", 2 * data_module._CHUNK - 10) < 2 * data_module._CHUNK < text.index('",0')
    with open(p, "rb") as fh:
        assert max(map(len, data_module._blocks(fh))) < data_module._CHUNK + 20
    back = _read_alike(p)
    assert back.treatment_levels == ["0", "1", "two\nlines"] and back.z[-2:].tolist() == [2, 2]


class _Trickle(io.BytesIO):
    """A binary file that returns at most step bytes a read."""

    def __init__(self, data: bytes, step: int):
        super().__init__(data)
        self.step = step

    def read(self, size=-1):
        return super().read(self.step)


def _csv_rows(text: str) -> list:
    return [row for row in csv.reader(io.StringIO(text, newline="")) if row]


@settings(max_examples=300, deadline=None)
@given(st.text('",\r\nab', max_size=40), st.integers(1, 9))
@example('a"\n"b\nc",d\n"e\n"\n', 3)  # a stray quote, then a quoted line break across reads
def test_blocks_end_only_between_csv_records(text, step):
    # each block, read on its own by the csv module, gives the rows the whole text gives
    blocks = list(data_module._blocks(_Trickle(text.encode(), step)))
    assert b"".join(blocks).decode() == text
    assert [row for block in blocks for row in _csv_rows(block.decode())] == _csv_rows(text)


def test_path_that_is_not_a_regular_file_is_rejected_unopened(tmp_path):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)  # opening it would block until a writer came

    def blocked(signum, frame):
        raise TimeoutError("load_csv blocked opening the pipe")

    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(10)
    try:
        for path in (fifo, tmp_path):
            with pytest.raises(DataValidationError, match="not a regular file"):
                load_csv(path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_save_csv_matches_row_by_row_csv_writer(tmp_path):
    # design 1 at 10^5 has times below 1e-4, which repr writes as "e-05";
    # the twelve-level tails hold commas, quotes and a two-byte character
    quoted = twelve_levels([f'arm "{k}", ü' for k in range(12)], [f"w,{k}" for k in range(12)])[0]
    cases = [(generate(DgpSpec(design=2, n=10_000, seed=4))[0], b"\r\n"),
             (generate(DgpSpec(design=1, n=100_000, seed=0))[0], b"e-05,"),
             (quoted, '"arm ""11"", ü","w,11"\r\n'.encode("utf-8"))]
    for d, shown in cases:
        p = tmp_path / "new.csv"
        save_csv(d, p)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "event", "treatment", "instrument"])
            for yv, ev, zi, wi in zip(d.y, d.event, d.z, d.w):
                writer.writerow([repr(float(yv)), int(ev), d.treatment_levels[zi], d.instrument_levels[wi]])
        assert p.read_bytes() == ref.read_bytes()
        assert shown in p.read_bytes()


# the times at each edge of save_csv's digit arithmetic, and lengths of shortest text
_EDGE_TIMES = [
    [0.0, 5e-324],  # zero and the least subnormal: repr's
    [math.nextafter(1e-4, 0), 1e-4],  # either side of the least time written without an exponent
    [2.0**-14, 2.0**-13, 0.5, 1.0, 2.0, 2.0**52],  # powers of two, whose gap below is half as wide
    [0.1 + 0.2, 1 / 3, 12.0],
    [1e15, math.nextafter(1e16, 0), 1e16, 2.0**53, 2.0**53 + 2, 1e20],  # the top of the range and past it
    [0.7, 0.123456789012345, 0.1234567890123456, 0.12345678901234568],  # 1, 15, 16 and 17 digits
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0, allow_nan=False, allow_infinity=False), min_size=1, max_size=24))
@example(_EDGE_TIMES[0])
@example(_EDGE_TIMES[1])
@example(_EDGE_TIMES[2])
@example(_EDGE_TIMES[3])
@example(_EDGE_TIMES[4])
@example(_EDGE_TIMES[5])
def test_save_csv_matches_write_rows(tmp_path_factory, times):
    n = -(-len(times) // 4) * 4  # the toy's four cells, repeated, with the times repeated to fill them
    d = Dataset(np.resize(times, n), np.resize([1, 2, 0, 1], n), np.resize([0, 1, 0, 1], n),
                np.resize([0, 0, 1, 1], n), [0, 1], [0, 1])
    p = tmp_path_factory.mktemp("csv") / "new.csv"
    save_csv(d, p)
    ref = p.with_name("ref.csv")
    write_rows(d, ref)
    assert p.read_bytes() == ref.read_bytes()


def _finite_bit_patterns(rng, n):
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


@pytest.mark.parametrize("draw, fast", [
    (lambda rng, n: rng.uniform(0, 1, n), 0.999),
    (lambda rng, n: rng.exponential(size=n), 0.999),
    (lambda rng, n: rng.uniform(1e-4, 1e-3, n), 1.0),
    (lambda rng, n: np.round(rng.uniform(0, 100, n), 3), 0.999),
    (_finite_bit_patterns, 0.0),
], ids=["uniform", "exponential", "uniform-1e-4-1e-3", "rounded-to-3", "bit-patterns"])
def test_time_text_is_repr(draw, fast):
    # the digit arithmetic itself, against repr; it must carry nearly all of
    # each sample but the bit patterns, most of which lie outside its range
    y = draw(np.random.default_rng(29), 100_000)
    got = Rows(["\n"]).text(y, np.zeros(y.size, np.intp)).tobytes()
    assert got == "".join(f"{t!r}\n" for t in y.tolist()).encode("ascii")
    assert shortest(y)[2].mean() >= fast


def test_save_csv_memory_peak(tmp_path):
    # the text is built a chunk of 2^15 records at a time: 4,040,081 traced
    # bytes at the peak here with numpy 2.4; one Python repr a record, with
    # 2^16-record chunks, peaked at 8,662,792
    data, _ = generate(DgpSpec(design=1, n=200_000, seed=0))
    save_csv(data, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        save_csv(data, tmp_path / "sim.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_100_000
