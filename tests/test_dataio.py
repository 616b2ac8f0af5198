import csv
import io
import json
import os
import re
import signal
import tempfile
import tracemalloc
from collections import Counter
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthflow import dataio, schemas
from synthflow.dataio import (
    CATEGORICAL,
    DROP,
    LABEL,
    NUMERIC,
    Column,
    DataError,
    DatasetMatrix,
    FeatureSchema,
    NormalizationStats,
    atomic_write,
    clean_numeric,
    denormalize,
    filter_by_label,
    load_dataset,
    minmax_normalize,
    parse_csv,
    save_dataset,
    schema_from_json,
    schema_to_json,
    write_csv,
)

from helpers import assert_no_child_left, count_forks, leaves_nothing_open

TWO_COL = FeatureSchema(
    (Column("a", NUMERIC), Column("b", NUMERIC), Column("label", LABEL))
)
XYZ = {"x", "y", "z"}  # every label the tables below use


def make_dataset(features, labels=None, schema=None):
    features = np.asarray(features, dtype=float)
    schema = schema or FeatureSchema(
        tuple(
            [Column(f"f{i}", NUMERIC) for i in range(features.shape[1])]
            + [Column("label", LABEL)]
        )
    )
    labels = labels or ["x"] * features.shape[0]
    stats = NormalizationStats(
        np.zeros(features.shape[1]), np.ones(features.shape[1])
    )
    return DatasetMatrix(features, labels, stats, schema)


# ----------------------------------------------------------------- parse_csv

def parse_text(text, names=None):
    """``parse_csv`` of one file that holds ``text`` as UTF-8, its line ends
    as they are. The file is removed once ``parse_csv`` has opened it."""
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return parse_csv([path], names)
    finally:
        os.remove(path)


def test_parse_minimal_table():
    header, rows = parse_text("a,b\n1,2\n")
    assert header == ["a", "b"]
    assert list(rows) == ["1,2\n"]


def test_parse_ragged_row_reports_index():
    with pytest.raises(DataError, match="row 2"):
        list(parse_text("a,b\n1,2\n1,2,3\n")[1])


def test_parse_quoted_field_is_one_cell():
    _, rows = parse_text('a,b\n"x,y",2\n')
    assert list(rows) == ['"x,y",2\n']
    t = parse_text('b,label\n2,"x,y"\n')
    schema = FeatureSchema((Column("b", NUMERIC), Column("label", LABEL)))
    assert clean_numeric(*t, schema, {"x,y"})[1] == ["x,y"]


def test_parse_empty_file_errors():
    with pytest.raises(DataError, match="empty"):
        parse_text("")


def test_parse_trims_and_mangles_header():
    header, _ = parse_text(" a , b ,a\n1,2,3\n")
    assert header == ["a", "b", "a.1"]


def test_parse_headerless_requires_names():
    header, rows = parse_text("1,2\n", ["a", "b"])  # names: the first line is data
    assert header == ["a", "b"]
    assert list(rows) == ["1,2\n"]


# -------------------------------------------------------------- clean_numeric

def test_clean_infinity_replaced_by_finite_extrema():
    table = (["a", "b", "label"], [
        "1,0,x",
        "Infinity,0,x",
        "7,0,x",
        "99,junk,x",  # dropped: its 99 must not become the max
        "-Infinity,0,x",
    ])
    values, labels, _, dropped, _ = clean_numeric(*table, TWO_COL, XYZ)
    assert dropped == 1
    assert values[:, 0].tolist() == [1.0, 7.0, 7.0, 1.0]


def test_clean_nan_row_dropped_and_counted():
    table = (["a", "b", "label"], [
        "1,2,x",
        "NaN,2,y",
        "3,junk,z",
    ])
    values, labels, _, dropped, _ = clean_numeric(*table, TWO_COL, XYZ)
    assert dropped == 2
    assert values.tolist() == [[1.0, 2.0]]
    assert labels == ["x"]


def test_clean_all_finite_passthrough():
    table = (["a", "b", "label"], ["1,2,x", "3,4,y"])
    values, labels, _, dropped, _ = clean_numeric(*table, TWO_COL, XYZ)
    assert dropped == 0
    assert values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_clean_column_without_finite_values_errors():
    table = (["a", "b", "label"], ["Infinity,1,x"])
    with pytest.raises(DataError, match="'a'"):
        clean_numeric(*table, TWO_COL, XYZ)


def test_clean_column_spanning_more_than_float64_errors():
    table = (["a", "b", "label"], ["1.7976931348623157e+308,1,x", "-1e300,2,y"])
    with pytest.raises(DataError, match="column 'a' spans more than the float64 range"):
        clean_numeric(*table, TWO_COL, XYZ)


def test_clean_missing_schema_column_errors():
    table = (["a", "label"], ["1,x"])
    with pytest.raises(DataError, match="missing"):
        clean_numeric(*table, TWO_COL, XYZ)


def test_clean_categorical_coding_and_unknown_drop():
    schema = FeatureSchema(
        (
            Column("proto", CATEGORICAL, ("icmp", "tcp", "udp")),
            Column("n", NUMERIC),
            Column("label", LABEL),
        )
    )
    table = (["proto", "n", "label"], [
        "udp,1,x",
        "bogus,2,y",
        "icmp,3,z",
    ])
    values, labels, _, dropped, _ = clean_numeric(*table, schema, XYZ)
    assert values.tolist() == [[2.0, 1.0], [0.0, 3.0]]
    assert labels == ["x", "z"]
    assert dropped == 1


def test_clean_ignores_missing_drop_columns():
    schema = FeatureSchema(
        (Column("gone", DROP), Column("a", NUMERIC), Column("label", LABEL))
    )
    table = (["a", "label"], ["1,x"])
    values, *_ = clean_numeric(*table, schema, XYZ)
    assert values.tolist() == [[1.0]]


# ------------------------------------------------- streamed ingest vs eager

def reference_parse_csv(source):
    """The eager parser streamed ingest replaced, for a headered file without
    repeated names: every row is read up front."""
    reader = csv.reader(source)
    header = [cell.strip() for cell in next(record for record in reader if record)]
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(header):
            raise DataError(
                f"ragged row {len(rows) + 1}: expected {len(header)} cells, "
                f"got {len(record)}"
            )
        rows.append(record)
    return header, rows


def reference_clean_numeric(header, rows, schema):
    """The eager cleaner: one column at a time, one Python call per cell."""
    index = {name: i for i, name in enumerate(header)}
    feature_cols = schema.feature_columns()
    label_idx = index[schema.label_column.name]

    def parse(cell, cats):
        cell = cell.strip()
        if cats is not None:
            return cats.get(cell, np.nan)
        try:
            return float(cell)
        except ValueError:
            return np.nan

    values = np.empty((len(rows), len(feature_cols)))
    for j, col in enumerate(feature_cols):
        cats = (
            {v: float(i) for i, v in enumerate(col.categories)}
            if col.role == CATEGORICAL else None
        )
        values[:, j] = [parse(row[index[col.name]], cats) for row in rows]
    keep = ~np.isnan(values).any(axis=1)
    values = values[keep]
    labels = [rows[r][label_idx].strip() for r in np.flatnonzero(keep)]
    dropped = len(rows) - values.shape[0]
    for j in range(values.shape[1]):
        column = values[:, j]
        finite = np.isfinite(column)
        if not finite.all():  # a zero extreme is +0.0: -0.0 + 0.0 is +0.0
            column[column == np.inf] = column[finite].max() + 0.0
            column[column == -np.inf] = column[finite].min() + 0.0
    return values, labels, dropped


def assert_streams_like_the_eager_reference(table, header, rows, schema, wanted):
    """``clean_numeric`` then ``minmax_normalize`` over ``table`` give, bit for
    bit, what the eager pipeline gives over the same records: every row
    cleaned by :func:`reference_clean_numeric`, the whole matrix normalized
    by its min and max (a zero extreme as +0.0), then the label mask.

    Returns what ``clean_numeric`` returned, or None when it rightly
    refuses: a column's max - min overflows float64, or no row matches
    ``wanted``.
    """
    ref_values, ref_labels, ref_dropped = reference_clean_numeric(header, rows, schema)
    col_min, col_max = ref_values.min(axis=0) + 0.0, ref_values.max(axis=0) + 0.0
    with np.errstate(over="ignore"):
        span = col_max - col_min
    if np.isinf(span).any():
        with pytest.raises(DataError, match="spans more than the float64 range"):
            clean_numeric(*table, schema, wanted)
        return None
    ref_normalized = (ref_values - col_min) / np.where(span > 0, span, 1.0)
    ref_normalized[:, span == 0] = 0.0
    keys = {str(w).strip().lower() for w in wanted}
    mask = np.array([lbl.strip().lower() in keys for lbl in ref_labels], dtype=bool)
    if not mask.any():
        with pytest.raises(DataError, match="no rows match"):
            clean_numeric(*table, schema, wanted)
        return None
    cleaned = clean_numeric(*table, schema, wanted)
    values, labels, label_counts, dropped, stats = cleaned
    assert values.tobytes() == ref_values[mask].tobytes()
    assert labels == list(compress(ref_labels, mask))
    assert label_counts == Counter(ref_labels)
    assert dropped == ref_dropped
    assert stats.col_min.tobytes() == col_min.tobytes()
    assert stats.col_max.tobytes() == col_max.tobytes()
    normalized = minmax_normalize(values.copy(), stats)
    assert normalized.tobytes() == ref_normalized[mask].tobytes()
    return cleaned


MIXED = FeatureSchema((
    Column("id", DROP),
    Column("a", NUMERIC),
    Column("proto", CATEGORICAL, ("icmp", "tcp", "udp")),
    Column("b", NUMERIC),
    Column("label", LABEL),
    Column("c", NUMERIC),
))


def mixed_csv(seed, n_rows=40):
    """Seeded CSV text over MIXED holding every cell kind ingest treats
    specially; blank lines sit between rows."""
    rng = np.random.default_rng(seed)
    lines = ["id, a ,proto,b,label, c"]
    for r in range(n_rows):
        cells = [
            f"id{r}",
            repr(float(rng.normal())),
            str(rng.choice(["icmp", "tcp", "udp", " tcp ", "bogus"], p=[.3, .3, .3, .05, .05])),
            str(int(rng.integers(0, 100))),
            str(rng.choice(["x", "y", " z\t"])),
            f"{rng.uniform(-5, 5):.3f}",
        ]
        special = rng.random()
        if special < 0.05:
            cells[3] = "NaN"
        elif special < 0.10:
            cells[5] = "junk"
        elif special < 0.20:
            cells[5] = f" {cells[5]}\t"  # padded, still parses
        elif special < 0.25:
            cells[3] = ""
        lines.append(",".join(cells))
        if rng.random() < 0.1:
            lines.append("")
    # +Infinity in the first block, the finite max of 'a' in a later one;
    # the same, mirrored, for -Infinity in 'c'
    lines[1] = "idpos,Infinity,tcp,3,x,1.0"
    lines[2] = "idneg,0.5,icmp,2,y, -Infinity "
    lines[-1] = "idext,99.5,udp,1,x,-7.25"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block_rows", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streamed_ingest_matches_eager_reference_bitwise(monkeypatch, block_rows, seed):
    monkeypatch.setattr(dataio, "BLOCK_ROWS", block_rows)
    text = mixed_csv(seed)
    values, _, _, dropped, _ = assert_streams_like_the_eager_reference(
        parse_text(text), *reference_parse_csv(io.StringIO(text)), MIXED, XYZ
    )
    # the table really exercises what it is meant to
    assert dropped > 0 and values.shape[0] > 4 * block_rows
    assert values[0, 0] == 99.5 and values[1, 3] == -7.25
    assert np.isfinite(values).all()


def test_parse_csv_reads_only_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n1,2,3\n")
    header, rows = parse_csv([path])  # the ragged row is not read yet
    assert header == ["a", "b"]
    assert next(rows) == "1,2\n"


def test_ragged_row_after_first_block_names_its_row(monkeypatch):
    monkeypatch.setattr(dataio, "BLOCK_ROWS", 3)
    text = "a,b,label\n" + "1,2,x\n\n" * 7 + "1,2\n" + "3,4,y\n"
    with pytest.raises(DataError, match=r"ragged row 8: expected 3 cells, got 2"):
        clean_numeric(*parse_text(text), TWO_COL, XYZ)
    with pytest.raises(DataError, match=r"ragged row 8: expected 3 cells, got 2"):
        reference_parse_csv(io.StringIO(text))


def test_headerless_csv_without_rows_errors_when_read():
    table = parse_text("\n\n", ["a", "b", "label"])
    with pytest.raises(DataError, match="no data rows"):
        clean_numeric(*table, TWO_COL, XYZ)


def test_two_files_stream_as_one_table(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "BLOCK_ROWS", 3)
    first, second = mixed_csv(3, n_rows=10), mixed_csv(4, n_rows=11)
    (tmp_path / "1.csv").write_text(first)
    (tmp_path / "2.csv").write_text(second)
    table = parse_csv([tmp_path / "1.csv", tmp_path / "2.csv"])
    header, rows = reference_parse_csv(io.StringIO(first))
    rows += reference_parse_csv(io.StringIO(second))[1]
    assert_streams_like_the_eager_reference(table, header, rows, MIXED, XYZ)


@pytest.mark.parametrize("first", ["a,b,label\n1,2,x\n", "a,b,label\n1,2,3,x\n"],
                         ids=["clean", "ragged"])
def test_second_header_that_differs_names_both_files(tmp_path, first):
    # every header is read before any data row: a ragged row in the first
    # file does not hide the second file's header
    (tmp_path / "1.csv").write_text(first)
    (tmp_path / "2.csv").write_text("a,c,label\n1,2,x\n")
    paths = [tmp_path / "1.csv", tmp_path / "2.csv"]
    message = f"CSV header of {paths[1]} differs from {paths[0]}"
    with pytest.raises(DataError, match=re.escape(message)):
        parse_csv(paths)


def test_byte_order_mark_is_not_part_of_the_first_header_name(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("a,b,label\n1,2,x\n", encoding="utf-8-sig")
    header, rows = parse_csv([path])
    assert header == ["a", "b", "label"]
    assert clean_numeric(header, rows, TWO_COL, XYZ)[0].tolist() == [[1.0, 2.0]]


def test_byte_order_mark_keeps_the_first_headerless_row(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("1,2,x\n3,4,y\n", encoding="utf-8-sig")
    table = parse_csv([path], ["a", "b", "label"])
    values, labels, _, dropped, _ = clean_numeric(*table, TWO_COL, XYZ)
    assert (values.tolist(), labels, dropped) == ([[1.0, 2.0], [3.0, 4.0]], ["x", "y"], 0)


@pytest.mark.parametrize("bad_file", ["1.csv", "2.csv"])
def test_row_with_too_many_cells_names_its_file_and_row(tmp_path, monkeypatch, bad_file):
    monkeypatch.setattr(dataio, "BLOCK_ROWS", 4)
    for name in ("1.csv", "2.csv"):
        lines = ["a,b,label\n"] + [f"{r},{r},x\n" for r in range(10)]
        if name == bad_file:
            lines[6] = "5,5,x,9\n"  # data row 6, in the second block
        (tmp_path / name).write_text("".join(lines))
    table = parse_csv([tmp_path / "1.csv", tmp_path / "2.csv"])
    message = f"{tmp_path / bad_file}: ragged row 6: expected 3 cells, got 4"
    with pytest.raises(DataError, match=re.escape(message)):
        clean_numeric(*table, TWO_COL, XYZ)


def test_long_label_survives_intact():
    label = "DoS " + "Slowhttptest" * 8
    text = f"a,b,label\n1,2,{label}\n3,4, y \n"
    labels = clean_numeric(*parse_text(text), TWO_COL, {label, "y"})[1]
    assert len(label) > 64 and labels == [label, "y"]


class LoadtxtSpy:
    """Wraps np.loadtxt and records, per call, the block's first record and
    whether the C reader took the block. Each call is appended as a line of
    JSON to ``path``, so a forked worker's calls are recorded too."""

    def __init__(self, monkeypatch, path):
        self.path = path
        self.real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", self)

    def __call__(self, lines, **kwargs):
        try:
            out = self.real(lines, **kwargs)
        except ValueError:
            self.record(lines[0], False)
            raise
        self.record(lines[0], True)
        return out

    def record(self, first, loaded):
        with open(self.path, "a", encoding="utf-8") as fh:  # one write per call
            fh.write(json.dumps([first, loaded]) + "\n")

    def calls(self, rows):
        """The recorded calls in block order, each block's in call order."""
        calls = [tuple(json.loads(line)) for line in self.path.read_text().splitlines()]
        return sorted(calls, key=lambda call: rows.index(call[0]))


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "no fork"])
@pytest.mark.parametrize("middle, loaded", [
    ("id5,junk,tcp,5,x,-5.25\n", [False]),  # the C reader rejects the block
    ('id5,5.5,tcp,5,"x,y",-5.25\n', []),  # a quote: the C reader never sees it
])
def test_one_block_falls_back_between_fast_blocks(tmp_path, monkeypatch, middle, loaded, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(dataio, "BLOCK_ROWS", 4)
    rows = [f"id{r},{r}.5,{('tcp', 'udp')[r % 2]},{r},x,{-r}.25\n" for r in range(12)]
    rows[5] = middle
    text = "id, a ,proto,b,label, c\n" + "".join(rows)
    reference = reference_parse_csv(io.StringIO(text))
    spy = LoadtxtSpy(monkeypatch, tmp_path / "loadtxt_calls.jsonl")
    assert_streams_like_the_eager_reference(parse_text(text), *reference, MIXED, XYZ)
    assert spy.calls(rows) == [(rows[0], True)] * 2 + [(rows[4], ok) for ok in loaded] + [
        (rows[8], True)
    ] * 2



# ------------------------------------------ the worker that parses blocks

def two_col_text(n_rows):
    return "a,b,label\n" + "".join(f"{r},{r + 0.5},{'xy'[r % 2]}\n" for r in range(n_rows))


@pytest.mark.parametrize("n_rows, forks", [
    (1, 0), (dataio.BLOCK_ROWS, 0), (dataio.BLOCK_ROWS + 1, 1), (20 * dataio.BLOCK_ROWS, 1),
])
def test_a_second_block_starts_one_worker(monkeypatch, n_rows, forks):
    counted = count_forks(monkeypatch)
    with leaves_nothing_open():
        values, labels, _, _, _ = clean_numeric(
            *parse_text(two_col_text(n_rows)), TWO_COL, {"x"}
        )
    assert len(counted) == forks
    assert values[:, 0].tolist() == list(map(float, range(0, n_rows, 2)))
    assert labels == ["x"] * len(values)


@pytest.mark.parametrize("blocks", [2, 3])
def test_both_processes_parse_a_short_input(tmp_path, monkeypatch, blocks):
    # the worker takes its share of a short round, not the whole of it
    pids, parse_block = tmp_path / "pids", dataio._parse_block

    def recording(block, plan):
        with open(pids, "a", encoding="utf-8") as fh:  # one write per call
            fh.write(f"{os.getpid()}\n")
        return parse_block(block, plan)

    monkeypatch.setattr(dataio, "_parse_block", recording)
    with leaves_nothing_open():
        clean_numeric(
            *parse_text(two_col_text(blocks * dataio.BLOCK_ROWS)), TWO_COL, XYZ
        )
    parsed_by = pids.read_text().split()
    assert len(parsed_by) == blocks and str(os.getpid()) in parsed_by
    assert len(set(parsed_by)) == 2


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "no fork"])
def test_ragged_row_while_the_worker_parses_names_its_file_and_row(tmp_path, monkeypatch, fork):
    # 2-record blocks: the ragged row is in the 8th block, in the second round
    monkeypatch.setattr(dataio, "BLOCK_ROWS", 2)
    counted = count_forks(monkeypatch)
    if not fork:
        monkeypatch.delattr(os, "fork")
    for name in ("1.csv", "2.csv"):
        (tmp_path / name).write_text(two_col_text(10))
    lines = (tmp_path / "2.csv").read_text().splitlines(keepends=True)
    lines[6] = "5,5,x,9\n"  # data row 6 of 2.csv, data row 16 of the stream
    (tmp_path / "2.csv").write_text("".join(lines))
    message = f"{tmp_path / '2.csv'}: ragged row 6: expected 3 cells, got 4"
    with leaves_nothing_open():
        table = parse_csv([tmp_path / "1.csv", tmp_path / "2.csv"])
        with pytest.raises(DataError, match=re.escape(message)):
            clean_numeric(*table, TWO_COL, XYZ)
    assert len(counted) == fork


def test_worker_that_fails_makes_ingest_raise(monkeypatch):
    parent, parse_block = os.getpid(), dataio._parse_block

    def failing_in_the_worker(block, plan):
        if os.getpid() != parent:
            raise RuntimeError("worker failed")
        return parse_block(block, plan)

    monkeypatch.setattr(dataio, "_parse_block", failing_in_the_worker)
    with leaves_nothing_open():
        message = "the worker parsing ingest blocks failed: RuntimeError: worker failed"
        with pytest.raises(OSError, match=message):
            clean_numeric(*parse_text(two_col_text(4000)), TWO_COL, XYZ)


def test_worker_killed_by_a_signal_reads_its_exit_code(monkeypatch):
    parent, parse_block = os.getpid(), dataio._parse_block

    def killed_in_the_worker(block, plan):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return parse_block(block, plan)

    monkeypatch.setattr(dataio, "_parse_block", killed_in_the_worker)
    with leaves_nothing_open():
        message = f"the worker parsing ingest blocks exited with {-signal.SIGKILL}"
        with pytest.raises(OSError, match=message):
            clean_numeric(*parse_text(two_col_text(4000)), TWO_COL, XYZ)


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, MemoryError])
def test_interrupted_fold_reaps_the_worker(monkeypatch, interrupt):
    calls, select = [], dataio.filter_by_label

    def interrupted_on_the_third_block(labels, wanted):
        calls.append(1)
        if len(calls) == 3:
            raise interrupt()
        return select(labels, wanted)

    monkeypatch.setattr(dataio, "filter_by_label", interrupted_on_the_third_block)
    with leaves_nothing_open():
        table = parse_text(two_col_text(4000))
        # the error is held, and its traceback with it, while the check runs:
        # the worker, its pipes and the input file must be closed all the same
        with pytest.raises(interrupt) as caught:
            clean_numeric(*table, TWO_COL, XYZ)
    assert caught.traceback

PADS = st.sampled_from(["", " ", "\t", "  "])
# a CSV file holds UTF-8 text: no lone surrogate
TEXT = st.text(st.characters(codec="utf-8", exclude_characters=',"\r\n'), max_size=6)
# numbers numpy's C reader parses, and so every line of a block can go to it
C_NUMBERS = st.tuples(PADS, st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map("{:.6g}".format),
    st.floats(allow_nan=False).map("{:.17e}".format),
    st.floats(-2.3e-308, 2.3e-308).map(repr),  # subnormals
    st.sampled_from(["1e400", "-1e400", "Infinity", "-Infinity", "NaN", "inf", "-0", "+.5"]),
), PADS).map("".join)
# zeros of both signs beside a few positives and infinities: a zero is then
# often a column's min, and the value a -Infinity becomes
ZERO_HEAVY = st.tuples(PADS, st.sampled_from(
    ["0", "-0", "0.0", "-0.0", "0e0", "-0e0", "1", "2.5", "Infinity", "-Infinity"]
), PADS).map("".join)
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(["0", "-0"])
)
INFINITIES = st.sampled_from(["Infinity", "-Infinity", "1e400", "-inf"])
OTHER_NUMBERS = st.one_of(
    st.sampled_from([
        "", " ", "junk", "nan(1)", "0x10", "1e", "1\x00", "\xa07", "\x1c2",
        # float reads these, the C reader does not
        "1_000", "１２", "١٢٣",
        # quoted cells holding a comma or a line break
        '"1,5"', '"2\n"', '"\r\n3"', '" 4 "', '"5"""',
    ]),
    TEXT,
)
C_PROTOS = st.sampled_from(["icmp", "tcp", "udp", " tcp ", "bogus", ""])
C_LABELS = st.one_of(
    st.sampled_from([
        "x", " y ", "z\t", "X", " Y ", "DoS GoldenEye", "dos goldeneye", "l" * 70, "x\x00",
        "\x85x\u2028",
    ]),
    TEXT,
)
OTHER_TEXT = st.sampled_from([
    '"udp"', '"t,cp"', '"a,b"', '"two\nlines"', '"two\r\nlines"', '"x\n\ny"', '"say ""hi"""',
])


@st.composite
def csv_texts(draw):
    """CSV text over MIXED. Most rows hold only cells numpy's C reader
    takes, numbers from one pool per text: any, zero-heavy or finite. The
    others may also hold the cells it rejects or reads differently, and
    quoted cells with commas and line breaks; or they are labelled
    "inf row" and hold infinities. Blank lines and CRLF line endings come
    in between. In some texts every row labelled x holds b = 7, so b is
    constant among those rows only."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    numbers = draw(st.sampled_from([C_NUMBERS, ZERO_HEAVY, FINITE]))
    constant_b = draw(st.booleans())
    lines = ["id, a ,proto,b,label, c" + end]
    for r in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["\n", "\r\n"])))
        if draw(st.integers(0, 5)) == 0:
            cells = [f"id{r}", draw(INFINITIES), "tcp", "5", "inf row", draw(INFINITIES)]
        else:
            special = draw(st.integers(0, 3)) == 0
            number = st.one_of(numbers, OTHER_NUMBERS) if special else numbers
            proto, label = (
                [st.one_of(C_PROTOS, C_LABELS, OTHER_TEXT)] * 2 if special
                else [C_PROTOS, C_LABELS]
            )
            cells = [
                f"id{r}", draw(number), draw(proto), draw(number), draw(label), draw(number),
            ]
        if constant_b and cells[4].strip().lower() == "x":
            cells[3] = "7"
        lines.append(",".join(cells) + draw(st.sampled_from(["\n", "\r\n"])))
    # every column keeps a finite value; the file may end without a newline
    b = 7 if constant_b else 2
    lines.append(f"idz,1.0,tcp,{b},x,3.0" + draw(st.sampled_from(["", end])))
    return "".join(lines)


# the labels a run selects; None stands for every label of the text, padded
WANTED = st.one_of(st.none(), st.sets(
    st.sampled_from(["x", " X", "y ", "Z", "dos GOLDENEYE", "inf row", "teardrop"]),
    min_size=1, max_size=3,
))


@pytest.mark.parametrize("block_rows", [2, 3, dataio.BLOCK_ROWS])
@settings(deadline=None, max_examples=150)
@given(text=csv_texts(), wanted=WANTED)
# a column whose max - min overflows float64 is refused
@example(
    text="id, a ,proto,b,label, c\nid0,1.7976931348623157e+308,tcp,1,x,1.0\n"
    "id1,-9.9792015476736e+291,udp,2,y,2.0\nidz,1.0,tcp,2,x,3.0\n",
    wanted={"x"},
)
def test_any_table_streams_bitwise_like_the_eager_reference(block_rows, text, wanted):
    header, rows = reference_parse_csv(io.StringIO(text))
    if wanted is None:
        wanted = {f" {lbl}\t" for lbl in reference_clean_numeric(header, rows, MIXED)[1]}
    for fork in (True, False):  # two processes parse the blocks, then one
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "BLOCK_ROWS", block_rows)
            if not fork:
                mp.delattr(os, "fork")
            assert_streams_like_the_eager_reference(
                parse_text(text), header, rows, MIXED, wanted
            )
        assert_no_child_left()


# ------------------------------------------------------------- normalization

def test_minmax_endpoints():
    table = (["a", "b", "label"], ["0,1,x", "5,1,x", "10,1,x"])
    values, _, _, _, stats = clean_numeric(*table, TWO_COL, XYZ)
    norm = minmax_normalize(values, stats)
    assert norm[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert stats.col_min[0] == 0.0 and stats.col_max[0] == 10.0


def test_minmax_constant_column_maps_to_zero():
    norm = minmax_normalize(np.array([[4.0], [4.0]]), NormalizationStats([4.0], [4.0]))
    assert norm[:, 0].tolist() == [0.0, 0.0]


def test_minmax_normalize_scales_in_place():
    values = np.array([[1.0, 4.0], [3.0, 4.0]])
    norm = minmax_normalize(values, NormalizationStats([1.0, 4.0], [3.0, 4.0]))
    assert norm is values
    assert values.tolist() == [[0.0, 0.0], [1.0, 0.0]]


def test_stats_cover_every_kept_row_and_a_zero_extreme_is_positive():
    # the max of 'a' and the min of 'b' sit in a row that is not selected; the
    # -Infinity in 'b' becomes that min, and the min of 'a', a zero written
    # both ways, is stored as +0.0
    table = (["a", "b", "label"], [
        "-0,5,x", "0,-Infinity,x", "-0,6,x", "9,-3,y", "4,junk,x",
    ])
    values, labels, _, _, stats = clean_numeric(*table, TWO_COL, {"x"})
    assert (stats.col_min.tolist(), stats.col_max.tolist()) == ([0.0, -3.0], [9.0, 6.0])
    assert not np.signbit(stats.col_min[0])
    assert values[:, 1].tolist() == [5.0, -3.0, 6.0] and labels == ["x"] * 3
    assert minmax_normalize(values, stats)[:, 1].tolist() == [8 / 9, 0.0, 1.0]


def test_denormalize_endpoints_and_no_clamping():
    stats = NormalizationStats(np.array([0.0]), np.array([10.0]))
    out = denormalize(np.array([[0.0], [1.0], [1.1]]), stats)
    assert out[:, 0].tolist() == [0.0, 10.0, 11.0]


def test_denormalize_width_mismatch_errors():
    stats = NormalizationStats(np.zeros(2), np.ones(2))
    with pytest.raises(DataError, match="columns"):
        denormalize(np.zeros((2, 3)), stats)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10_000), rows=st.integers(2, 30), cols=st.integers(1, 6))
def test_normalize_denormalize_round_trip(seed, rows, cols):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=100.0, size=(rows, cols))
    values[0] += 1.0  # keep at least two distinct values per column likely
    stats = NormalizationStats(values.min(axis=0), values.max(axis=0))
    norm = minmax_normalize(values.copy(), stats)  # scales its argument in place
    assert norm.min() >= 0.0 and norm.max() <= 1.0
    back = denormalize(norm, stats)
    span = np.where(stats.col_max > stats.col_min, stats.col_max - stats.col_min, 1.0)
    nonconst = stats.col_max > stats.col_min
    assert np.allclose(back[:, nonconst], values[:, nonconst], atol=1e-12 * span[nonconst].max())


# ------------------------------------------------------------------ filtering

ONE_COL = FeatureSchema((Column("f0", NUMERIC), Column("label", LABEL)))


def one_col_table(values, labels):
    return (["f0", "label"], [f"{v!r},{lbl}" for v, lbl in zip(values, labels)])


def test_filter_keeps_matching_rows():
    assert filter_by_label(["smurf", "normal", "smurf"], {"smurf"}).tolist() == [True, False, True]
    table = one_col_table([0.1, 0.5, 0.3], ["smurf", "normal", "smurf"])
    values, labels, label_counts, _, stats = clean_numeric(*table, ONE_COL, {"smurf"})
    assert len(values) == 2
    assert labels == ["smurf", "smurf"]
    # the stats, and the label counts, are those of every kept row
    assert (stats.col_min[0], stats.col_max[0]) == (0.1, 0.5)
    assert label_counts == {"smurf": 2, "normal": 1}


def test_filter_is_case_insensitive_and_trimmed():
    assert filter_by_label(["smurf", " SMURF "], {"SMURF"}).all()
    table = one_col_table([0.1, 0.2], ["smurf", " SMURF "])
    assert len(clean_numeric(*table, ONE_COL, {" SMURF\t"})[0]) == 2


def test_filter_zero_matches_lists_available():
    table = one_col_table([0.1, 0.2], ["smurf", "normal"])
    with pytest.raises(DataError, match="normal.*smurf|smurf.*normal"):
        clean_numeric(*table, ONE_COL, {"teardrop"})


def test_column_without_finite_values_wins_over_no_match():
    table = (["a", "b", "label"], ["Infinity,1,x", "-Infinity,2,y"])
    with pytest.raises(DataError, match="column 'a' has no finite values"):
        clean_numeric(*table, TWO_COL, {"teardrop"})


def test_all_rows_dropped_is_the_empty_matrix_error_not_no_match():
    table = (["a", "b", "label"], ["NaN,1,x", "junk,2,y", "Infinity,,x"])
    with pytest.raises(DataError, match=re.escape("cannot normalize matrix of shape (0, 2)")):
        clean_numeric(*table, TWO_COL, {"teardrop"})


def test_ingest_memory_is_bounded_by_the_selected_rows():
    # 20k rows of 40 features, 5% of them selected. The peak is the selected
    # cells plus a few copies of one block (its text, parsed and kept rows,
    # masks); holding every row would take 6.4 MB. About 1.2 MB is measured.
    d, n_rows = 40, 20_000
    schema = FeatureSchema(
        tuple(Column(f"f{j}", NUMERIC) for j in range(d)) + (Column("label", LABEL),)
    )
    rng = np.random.default_rng(11)
    cells = np.char.mod("%.6g", rng.lognormal(2.0, 1.5, size=(n_rows, d)))
    labels = np.where(np.arange(n_rows) % 20 == 7, "DoS GoldenEye", "BENIGN")
    lines = [",".join(row) + f",{lbl}\n" for row, lbl in zip(cells.tolist(), labels.tolist())]
    del cells
    header = [f"f{j}" for j in range(d)] + ["label"]
    block_bytes = sum(map(len, lines[:dataio.BLOCK_ROWS])) + dataio.BLOCK_ROWS * d * 8
    tracemalloc.start()
    try:
        values, _, _, _, stats = clean_numeric(
            header, iter(lines), schema, {"DoS GoldenEye"}
        )
        minmax_normalize(values, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (n_rows // 20, d)
    assert peak <= values.nbytes + 8 * block_bytes, (peak, values.nbytes, block_bytes)


# --------------------------------------------------------- schema and caching

def test_schema_validation():
    with pytest.raises(DataError, match="label"):
        FeatureSchema((Column("a", NUMERIC),))
    with pytest.raises(DataError, match="duplicate"):
        FeatureSchema((Column("a", NUMERIC), Column("a", LABEL)))
    with pytest.raises(DataError, match="categor"):
        Column("c", CATEGORICAL)


def test_atomic_write_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"old,bytes\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(path) as fh:
            fh.write("new,partial")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old,bytes\n"
    assert list(tmp_path.iterdir()) == [path]
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert list(tmp_path.iterdir()) == [path]


EDGE_FLOATS = [-0.0, 5e-324, 0.1, 1.0, 3.0, 1e16, 1.7976931348623157e308]


def float_matrix(n):
    """n rows of the edge values and random floats of many magnitudes."""
    rng = np.random.default_rng(n)
    matrix = rng.standard_normal((n, len(EDGE_FLOATS))) * 10.0 ** rng.integers(-300, 300, (n, 1))
    matrix[0] = EDGE_FLOATS
    matrix[-1] = EDGE_FLOATS[::-1]
    return matrix


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "no fork"])
@pytest.mark.parametrize("n", [1, 2, 3, 1025])
def test_matrix_csv_is_the_bytes_of_write_csv(tmp_path, monkeypatch, n, fork):
    counted = count_forks(monkeypatch)
    if not fork:
        monkeypatch.delattr(os, "fork")
    matrix = float_matrix(n)
    names = ["f0", "f,1", *(f"f{j}" for j in range(2, matrix.shape[1]))]
    write_csv(tmp_path / "expected.csv", names, (r.tolist() for r in matrix))
    dataio.write_matrix_csv(tmp_path / "out.csv", names, matrix)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.csv", "out.csv"]
    # one block of rows is written by this process alone
    assert len(counted) == (fork and n > dataio.BLOCK_ROWS)
    assert_no_child_left()


@pytest.mark.parametrize("name", ['a"b', "x\ny", '"q"', "c,d", "x\r\ny", "r\r", " p "])
def test_csv_header_reads_back_through_the_csv_module(tmp_path, name):
    names = [name, "f1"]
    write_csv(tmp_path / "rows.csv", names, [[1.0, 2.0]])
    dataio.write_matrix_csv(tmp_path / "matrix.csv", names, np.array([[1.0, 2.0]]))
    for path in (tmp_path / "rows.csv", tmp_path / "matrix.csv"):
        with open(path, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == [names, ["1.0", "2.0"]]


def fail_in(process: str, monkeypatch):
    """Make the block formatter raise in the worker or in this process only."""
    parent, float_rows = os.getpid(), dataio._float_rows

    def failing(block):
        if (os.getpid() == parent) == (process == "parent"):
            raise RuntimeError(f"{process} failed")
        return float_rows(block)

    monkeypatch.setattr(dataio, "_float_rows", failing)


@pytest.mark.parametrize("failure, error", [
    ("worker", OSError),
    pytest.param("tmp on /dev/full", OSError, marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full"
    )),
    ("parent", RuntimeError),
])
def test_failed_matrix_csv_keeps_the_earlier_file_and_reaps_the_worker(
    tmp_path, monkeypatch, failure, error
):
    path = tmp_path / "synthetic.csv"
    path.write_bytes(b"earlier\n")
    counted = count_forks(monkeypatch)
    if failure == "tmp on /dev/full":  # this process's writes fail, not the worker's
        (tmp_path / "synthetic.csv.tmp").symlink_to("/dev/full")
    else:
        fail_in(failure, monkeypatch)
    # the first error is raised: this process's own, named by its file, wins
    # over the exit of the worker it stops
    reason = {
        "worker": "the worker formatting .*synthetic.csv failed: RuntimeError: worker failed",
        "tmp on /dev/full": "No space left on device: .*synthetic.csv.tmp",
        "parent": "parent failed",
    }[failure]
    with pytest.raises(error, match=reason):
        dataio.write_matrix_csv(path, ["a", "b"], float_matrix(4 * dataio.BLOCK_ROWS)[:, :2])
    assert path.read_bytes() == b"earlier\n"
    assert list(tmp_path.iterdir()) == [path]
    assert len(counted) == 1
    assert_no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_names_its_file_and_keeps_the_earlier_one(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"earlier\n")
    (tmp_path / "out.csv.tmp").symlink_to("/dev/full")  # every write: no space left
    with pytest.raises(OSError, match="out.csv.tmp"):
        write_csv(path, ["a"], [[1.0]])
    assert path.read_bytes() == b"earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_dataset_matrix_names_both_rules_it_checks():
    for bad in (np.nan, np.inf, -np.inf, -0.5, 1.5):
        features = np.array([[0.0, 1.0], [0.5, bad]])
        with pytest.raises(DataError, match=r"must be finite and lie in \[0, 1\]"):
            make_dataset(features)
    assert make_dataset(np.array([[-0.0, 1.0], [5e-324, 0.5]])).n_rows == 2
    assert make_dataset(np.empty((0, 2))).n_rows == 0


def test_schema_json_round_trip(tmp_path):
    schema = schemas.nsl_kdd_schema()
    path = tmp_path / "schema.json"
    schema_to_json(schema, path)
    assert schema_from_json(path) == schema


def test_bundled_schema_feature_counts():
    assert len(schemas.nsl_kdd_schema().feature_names()) == 41
    assert len(schemas.cicids2017_schema().feature_names()) == 78


def test_dataset_cache_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    features = rng.uniform(size=(300, 2))
    features[:3] = [[0.0, 1.0], [5e-324, np.nextafter(1.0, 0.0)], [1 / 3, 0.1]]
    data = make_dataset(features, [f"l{i % 7}" for i in range(300)], TWO_COL)
    path = tmp_path / "cache.json"
    save_dataset(data, path)
    assert dataio.matrix_path(path) == tmp_path / "cache.npy"
    loaded = load_dataset(path)
    assert loaded.features.dtype == np.float64
    assert loaded.features.tobytes() == features.tobytes()
    assert loaded.labels == data.labels
    assert loaded.schema == data.schema
    assert np.array_equal(loaded.stats.col_min, data.stats.col_min)


def test_dataset_cache_saves_are_byte_identical(tmp_path):
    data = make_dataset(np.random.default_rng(6).uniform(size=(40, 2)), None, TWO_COL)
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        save_dataset(data, tmp_path / name / "dataset.json")
    for name in ("dataset.json", "dataset.npy"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    assert json.loads((tmp_path / "one" / "dataset.json").read_text())["features"] == {
        "shape": [40, 2]
    }


def test_dataset_cache_rejects_corruption(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{truncated")
    with pytest.raises(DataError, match="corrupt"):
        load_dataset(path)


def test_dataset_cache_rejects_malformed_documents(tmp_path):
    data = make_dataset([[0.25, 0.5], [0.75, 1.0]], ["a", "b"], TWO_COL)
    path = tmp_path / "cache.json"
    save_dataset(data, path)
    doc = json.loads(path.read_text())
    for key in ("schema", "stats", "labels", "features"):
        broken = {k: v for k, v in doc.items() if k != key}
        path.write_text(json.dumps(broken))
        with pytest.raises(DataError, match=f"malformed.*{key}"):
            load_dataset(path)


def test_dataset_matrix_validates_range():
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        make_dataset([[1.5]])


# ---------------------------------------------------------- pipeline accounting

def test_row_count_conservation():
    text = "a,b,label\n1,2,x\nNaN,2,x\n3,4,y\n5,6,x\n"
    header, rows = parse_text(text)
    rows = list(rows)
    parsed = len(rows)
    values, labels, label_counts, dropped, stats = clean_numeric(header, rows, TWO_COL, {"x"})
    kept = DatasetMatrix(minmax_normalize(values, stats), labels, stats, TWO_COL)
    filtered_away = sum(label_counts.values()) - kept.n_rows
    assert (kept.n_rows, filtered_away, dropped) == (2, 1, 1)
    assert kept.n_rows + filtered_away + dropped == parsed


def test_feature_order_follows_schema():
    table = (["b", "label", "a"], ["10,x,1"])
    values, *_ = clean_numeric(*table, TWO_COL, XYZ)
    # schema order (a, b), not file order
    assert values.tolist() == [[1.0, 10.0]]
