import csv
import io
import json
import os
import signal
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crqiv import data as data_module
from crqiv.data import (
    DataValidationError,
    Dataset,
    cell_counts,
    load_csv,
    resample,
    save_csv,
    swap_causes,
)
from crqiv.estimator import QuantileGrid, fit_curve
from crqiv.simulate import DgpSpec, generate


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
    records = Dataset.from_records(sim.records, [0, 1], [0, 1], sim.structural_zeros)
    for d2 in (sim, resample(sim, np.random.default_rng(0)), swap_causes(sim), records):
        assert d2.event.dtype == d2.z.dtype == d2.w.dtype == np.int8


# -- helpers ------------------------------------------------------------


def test_cell_counts_balanced():
    d = Dataset(
        np.arange(1.0, 9.0), [1] * 8, [0, 0, 1, 1, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1, 0, 1],
        [0, 1], [0, 1],
    )
    assert all(c == 2 for c in cell_counts(d).values())


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
    d = Dataset.from_records(
        [(1.5, 1, 0, 0), (2.5, 0, 1, 0), (0.5, 2, 0, 1), (1.0, 1, 1, 1)],
        [0, 1], [0, 1],
    )
    assert d.n == 4
    assert [tuple(r) for r in d.records] == [
        (1.5, 1, 0, 0), (2.5, 0, 1, 0), (0.5, 2, 0, 1), (1.0, 1, 1, 1)
    ]


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


def test_schema_remap_and_event_labels(tmp_path):
    p = tmp_path / "odd.csv"
    p.write_text(
        "dur,status,arm,assigned\n1.5,primary,0,0\n2.0,other,1,0\n0.5,lost,0,1\n3.5,primary,1,1\n"
    )
    d = load_csv(
        p,
        schema={"y": "dur", "event": "status", "z": "arm", "w": "assigned"},
        event_labels={"primary": 1, "other": 2, "lost": 0},
    )
    assert np.array_equal(d.event, [1, 2, 0, 1])
    assert d.y[3] == 3.5


def test_explicit_level_order_wins(tmp_path):
    p = tmp_path / "lv.csv"
    p.write_text("time,event,treatment,instrument\n1,1,b,0\n2,1,a,0\n3,1,b,1\n4,1,a,1\n")
    d = load_csv(p, treatment_order=["a", "b"])
    assert d.treatment_levels == ["a", "b"]
    assert np.array_equal(d.z, [1, 0, 1, 0])


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


# -- columnar reader against the row loop --------------------------------


def _outcome(path, **kwargs):
    """What load_csv returns, bit for bit, or the error it raises; a warning is an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = load_csv(path, **kwargs)
    except Exception as exc:  # both readers must fail alike, whatever the error
        return ("error", type(exc).__name__, str(exc))
    arrays = tuple((a.dtype.str, a.tobytes()) for a in (d.y, d.event, d.z, d.w))
    return ("ok", arrays, repr(d.treatment_levels), repr(d.instrument_levels), sorted(d.structural_zeros))


def _row_loop_outcome(path, **kwargs):
    with mock.patch.object(data_module, "_read_columns", return_value=None):
        return _outcome(path, **kwargs)


# odd field text: each either read alike by both readers or declined by the columnar one
_TIME_TEXT = st.sampled_from([
    "1", "2.5", "0", "-0.0", " 3", "4 ", "\t7", "2_0", "1e3", "+5", ".5", "#5", "1e-400",
    "nan", "inf", "-inf", "-1", "", "x", "1\x1c", "\x1f2", "\u0663", "\xa08", "5\x00",
])
_EVENT_TEXT = st.sampled_from(
    ["0", "1", "2", "1.0", "+1", " 1", "2 ", "01", "3", "03", "+3", "-1", "", "x", "fail", "cens", "1_0", "nan"]
)
_LABEL_TEXT = st.sampled_from([
    "0", "1", "2", "01", "+1", " 1", "1.0", "1.5", "-0.0", "0.0", "a", "b", "a,b",
    'say "hi"', "#x", "x#", "nan", "NaN", "inf", "\xe9", "", "1_0", "b\x00",
    "abcdefg", "abcdefgh", "abcdefghi", "caf\xe9 au", "\u20ac\u20ac\u20ac",
])
_LEVEL_PAIRS = [("0", "1"), ("a", "b"), ("a,b", 'say "hi"'), ("1", "01"), ("-0.0", "0.0"), ("0", "1.5"), ("b", "a"),
                ("nan", "1.5"), ("a", "a\x00"), ("control", "treated"), ("placebo_a", "placebo_b"),
                ("\xe9t\xe9", "hiver"), ("abcdefgh1", "abcdefgh2")]


def _orders(pair):
    """None (first appearance), the pair's labels in either order, or an ordering that misses one."""
    labels = data_module._coerce_labels(list(pair))
    return st.sampled_from([None, None, labels, labels[::-1], [labels[0], "other"]])


@st.composite
def _csv_files(draw):
    """CSV text that the row loop reads or rejects, and load_csv keyword arguments."""
    names = {"y": "time", "event": "event", "z": "treatment", "w": "instrument"}
    kwargs = {}
    if draw(st.booleans()):
        names = {"y": "dur", "event": "status", "z": "arm", "w": "assigned"}
        kwargs["schema"] = dict(names)
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

    if draw(st.booleans()):
        kwargs["event_labels"] = {"fail": 1, "cens": 0, "01": 2}
    kwargs["treatment_order"] = draw(_orders(z_pair))
    kwargs["instrument_order"] = draw(_orders(w_pair))
    kwargs["structural_zeros"] = draw(st.sampled_from([None, None, [], [(z_pair[0], "other")]]))
    sidecar = draw(st.sampled_from([
        None,
        None,
        {"treatment_levels": data_module._coerce_labels(list(z_pair))[::-1]},
        {"instrument_levels": [0, 1], "structural_zeros": [[1, 0]]},
    ]))
    return text, {k: v for k, v in kwargs.items() if v is not None}, sidecar


def _case(*rows, header="time,event,treatment,instrument", nl="\n", **kwargs):
    """A file with one cell-covering block of clean rows after ``rows``."""
    block = ["1.5,1,0,0", "2.5,1,0,1", "3.5,2,1,0", "4.5,0,1,1"]
    return header + nl + nl.join([*rows, *block]) + nl, kwargs, None


@settings(max_examples=400, deadline=None)
@given(_csv_files())
@example(("time,event,treatment,instrument\r\n", {}, None))
@example(_case("1\x1c,1,0,0"))  # np.loadtxt reads 1.0, float() rejects it
@example(_case("2_0,1,0,0"))  # float() reads 20.0, np.loadtxt rejects it
@example(_case("-1,1,0,0"))
@example(_case("nan,1,0,0"))
@example(_case("3,+3,0,0"))
@example(_case("3,1.0,0,0"))
@example(_case("3, 1 ,0 ,\t1"))
@example(_case('3,1,"0",1', '3,1,"1,0",1'))
@example(_case('3,1,0,"say ""hi"""', '3,1,1,"say ""hi"""'))
@example(_case("3,1,0,1\x00"))
@example(_case("3,1,0,#x", "3,1,0,#x", "", nl="\r\n"))
@example(_case("3,1,nan,0", "3,1,nan,1"))
@example(_case("3,1,0,0,extra", "", header="\ufefftime,event,treatment,instrument", schema={"y": "\ufefftime"}))
@example(_case("3,1,0,0", header="x,event,treatment,instrument,time", event_labels={"1": 2}))
@example(_case("3,1,0,0", "", "", "3,1,1,1", "", nl="\r\n"))  # blank lines between records
@example(_case("3,1,0,0", "", "", "3,1,1,1", "", nl="\r"))
@example(("time,event,treatment,instrument\r\n\r\n\n", {}, None))  # blank lines and no record
@example(_case("3,1,0,0", " ", "3,1,1,1"))  # a whitespace-only line
@example(_case("3,1,abcdefgh,0", "3,1,abcdefgh,1"))  # an 8-byte label beside 1-byte ones
@example(_case("3,censored_x,0,0", event_labels={"censored_x": 0}))  # an event label past 8 bytes
# labels whose first appearance is not their sorted order, in both label columns
@example(_case("3,1,z,1", "3,2,z,0", "3,1,a,1", "3,0,a,0"))
# labels alike in their first 8 bytes, and one past 32: read again at 32 bytes, then at 128
@example(_case(*(f"3,1,{z},{w}" for z in ("treatment_group_a", "treatment_group_b", "arm_" + "x" * 36)
                 for w in (0, 1))))
# thousands of distinct instrument labels, first seen in no sorted order
@example(_case(*(f"{1 + j % 7},{j % 3},{z},i{j * 7919 % 2003}" for j in range(2003) for z in (0, 1))))
# a byte that is not UTF-8, in a column neither reader parses, past the header's first 8 KiB read
@example((b"time,event,treatment,instrument,note\n1.5,1,0,1," + b"x" * 9000 + b"\n3,1,0,0,\xff\n3.5,2,1,0,x\n4.5,0,1,1,x\n",
          {}, None))
def test_columnar_reader_matches_row_loop(tmp_path_factory, case):
    text, kwargs, sidecar = case
    p = tmp_path_factory.mktemp("diff") / "d.csv"
    p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    if sidecar is not None:
        (p.parent / "d.csv.levels.json").write_text(json.dumps(sidecar))
    assert _outcome(p, **kwargs) == _row_loop_outcome(p, **kwargs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=60), st.sampled_from(["<u8", "S3"]))
def test_distinct_labels_match_unique(values, dtype):
    keys = np.array(values, dtype=np.uint64) if dtype == "<u8" else np.array([str(v).encode() for v in values], dtype)
    got, want = data_module._distinct(keys), np.unique(keys, return_index=True, return_inverse=True)
    # the inverse is held in the narrowest unsigned type that indexes the distinct keys
    dtypes = (want[0].dtype, want[1].dtype, np.min_scalar_type(want[0].size - 1))
    for a, b, dtype in zip(got, want, dtypes):
        assert a.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("distinct", [16, 17, 300])
def test_distinct_keys_past_the_comparison_sum_match_unique(distinct):
    keys = np.random.default_rng(distinct).integers(0, distinct, 5_000).astype(np.uint64)
    keys[:distinct] = np.arange(distinct)[::-1]  # every key present
    got, want = data_module._distinct(keys), np.unique(keys, return_index=True, return_inverse=True)
    assert got[2].dtype == np.min_scalar_type(distinct - 1)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("labels", [
    ["placebo_a", "placebo_b"],  # 9 bytes, alike in the first 8: read again, wider
    ["abcdefgh", "abcdefg"],  # exactly 8 bytes
    ["\xe9t\xe9", "\u20ac"],  # non-ASCII, under 8 bytes
    ["\u20ac\u20ac\u20ac", "\u20ac\u20ac\u20ac\u20ac"],  # non-ASCII, 9 and 12 bytes
])
def test_long_and_non_ascii_labels_read_alike(tmp_path, labels):
    d = Dataset((1.0, 2.5, 0.25, 4.0, 3.0), (1, 2, 0, 1, 2), (0, 1, 0, 1, 0), (0, 0, 1, 1, 1), labels, labels[::-1])
    p = tmp_path / "long.csv"
    save_csv(d, p)
    (tmp_path / "long.csv.levels.json").unlink()
    assert data_module._read_columns(p, [0, 1, 2, 3], None, None, None) is not None
    fast = _outcome(p)
    assert fast[0] == "ok" and fast == _row_loop_outcome(p)
    back = load_csv(p)
    assert back.treatment_levels == labels and back.instrument_levels == labels[::-1]
    assert back.z.tolist() == d.z.tolist() and back.w.tolist() == d.w.tolist()


def test_round_trip_with_quoted_levels_reads_row_by_row(tmp_path):
    d = Dataset((1.0, 2.5, 0.25, 4.0), (1, 2, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), ["a,b", 'say "hi"'], ["x", "y"])
    p = tmp_path / "q.csv"
    save_csv(d, p)
    assert '"a,b"' in p.read_text() and '"say ""hi"""' in p.read_text()
    assert data_module._read_columns(p, [0, 1, 2, 3], None, None, None) is None  # quotes: the row loop reads it
    back = load_csv(p)
    assert back.treatment_levels == ["a,b", 'say "hi"']
    for a, b in ((back.y, d.y), (back.event, d.event), (back.z, d.z), (back.w, d.w)):
        assert a.tobytes() == b.tobytes()


def test_simulated_1e5_rows_read_alike_by_both_paths(tmp_path):
    d, _ = generate(DgpSpec(design=1, n=100_000, seed=3))
    p = tmp_path / "sim.csv"
    save_csv(d, p)
    assert data_module._read_columns(p, [0, 1, 2, 3], None, None, None) is not None
    fast = _outcome(p)
    assert fast[0] == "ok"
    assert fast == _row_loop_outcome(p)
    assert fast[1][0][1] == d.y.tobytes() and fast[1][1][1] == d.event.tobytes()


def test_loaded_columns_own_their_data(tmp_path):
    # no column is a view onto the parse buffer, which would keep all of it alive
    d, _ = generate(DgpSpec(design=1, n=2000, seed=3))
    p = tmp_path / "sim.csv"
    save_csv(d, p)
    with mock.patch.object(data_module, "_read_columns", return_value=None):
        row_by_row = load_csv(p)
    for back in (load_csv(p), row_by_row):
        for a in (back.y, back.event, back.z, back.w):
            assert a.flags.c_contiguous and not a.flags.writeable and a.base is None


def test_twelve_levels_round_trip_and_fit_past_the_narrow_key(tmp_path):
    # save_csv's key (event L + z) K + w reaches 431 at L = K = 12: it
    # would wrap in the columns' int8, so it is taken in intp
    L = K = 12
    rng = np.random.default_rng(12)
    cells = [(z, w) for z in range(L) for w in range(K) if z <= w]
    z, w = (np.repeat(c, 40) for c in zip(*cells))
    n = z.size
    event = rng.integers(0, 3, n)
    event[::40] = 1  # a primary-cause event in every cell
    event[-1] = 2
    d = Dataset(rng.exponential(size=n), event, z, w, list(range(L)), [f"w{k}" for k in range(K)],
                [(a, b) for a in range(L) for b in range(K) if a > b])
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
    # the text columns are read as views of the parsed records and coded in
    # int8: 8,696,875 traced bytes at the peak on this file with numpy 2.4,
    # where full copies of every column and int64 codes peaked at 12,896,448
    data, _ = generate(DgpSpec(design=1, n=200_000, seed=0))
    p = tmp_path / "sim.csv"
    save_csv(data, p)
    tracemalloc.start()
    try:
        load_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_750_000


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
    d, _ = generate(DgpSpec(design=2, n=10_000, seed=4))
    p = tmp_path / "new.csv"
    save_csv(d, p)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", "treatment", "instrument"])
        for yv, ev, zi, wi in zip(d.y, d.event, d.z, d.w):
            writer.writerow([repr(float(yv)), int(ev), d.treatment_levels[zi], d.instrument_levels[wi]])
    assert p.read_bytes() == ref.read_bytes()
