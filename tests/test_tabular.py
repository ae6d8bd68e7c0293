"""CSV ingest and emit: the byte fast path must agree with the csv-module path."""

import csv
import io
import math
import os
import re
import threading

import numpy as np
import oracle
import pytest
from hypothesis import Phase, given, settings, strategies as st

from flipaudit import (
    AuditFrame,
    FlipCounts,
    ValidationError,
    build_report,
    ingest,
    ingest_counts,
    render_structured,
)
from flipaudit.cli import _VERDICT_CODES, main
from flipaudit.frame import BLOCK, column_counts
from flipaudit.tabular import (
    ColumnMapping,
    _Columns,
    _Counts,
    _frame,
    _ingest_strict,
    frame_to_csv,
    ingest_columns,
    ingest_rows,
    write_frame,
)

DEFAULT = ColumnMapping()
REMAPPED = ColumnMapping(favorable=0, privileged=0)
WITH_TRUE = ColumnMapping(true_col="true")
NO_CORR = ColumnMapping(corr_col=None)
MAPPINGS = [DEFAULT, REMAPPED, WITH_TRUE, NO_CORR]
BOM = "\ufeff".encode()

HEADERS = [
    "pred,corr,group",
    "pred,corr,group,true",
    "group, pred ,corr",
    "pred,pred,corr,group",
    "\ufeffpred,corr,group",
    '"pred",corr,group',
    "pred,corr",
    "",
]

# Cells, separators, quotes and both line ends: what the csv module reads leniently.
ALPHABET = '012, "\n\r'


def outcome(read):
    """The frame ``read()`` returns, or the code and message of its error."""
    try:
        return read()
    except ValidationError as exc:
        return exc.code, str(exc)


def strict_frame(data, mapping):
    """The byte fast path's frame of the file ``data``, or None where it declines."""
    labels = _ingest_strict(io.BytesIO(data), mapping, _Columns)
    return None if labels is None else _frame(labels)


def strict_counts(data, mapping):
    """The byte fast path's count table of the file ``data`` (or the code and
    message of its error), or None where it declines."""
    return outcome(lambda: _ingest_strict(io.BytesIO(data), mapping, _Counts))


def counts_agree(path, mapping):
    """Whether ``ingest_counts`` gives the frame's counts, or the same error."""
    return (outcome(lambda: ingest_counts(path, mapping))
            == outcome(lambda: ingest(path, mapping).counts()))


def oracle_counts(data, mapping):
    """The oracle's count table of the CSV bytes ``data`` read under ``mapping``."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8-sig"))))
    names = [name.strip() for name in rows[0]]
    label = {}
    for name in mapping.columns():
        polarity = mapping.privileged if name == mapping.group_col else mapping.favorable
        label[name] = [int(row[names.index(name)]) ^ 1 - polarity for row in rows[1:]]
    return FlipCounts(oracle.count_table(label[mapping.pred_col],
                                         label[mapping.corr_col or mapping.pred_col],
                                         label[mapping.group_col], label.get(mapping.true_col)))


def reference(path, mapping):
    """What ``ingest_rows`` reads from the file's text, less one leading byte order mark."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return outcome(lambda: ingest_rows(csv.reader(fh), mapping))


@st.composite
def csv_files(draw):
    """A file and a mapping; half the headers hold exactly the mapped columns."""
    mapping = draw(st.sampled_from(MAPPINGS))
    header = draw(st.one_of(st.permutations(mapping.columns()).map(",".join),
                            st.sampled_from(HEADERS)))
    term = draw(st.sampled_from(["\n", "\r\n"]))
    width = len(header.split(","))
    row = st.lists(st.sampled_from("01"), min_size=width, max_size=width).map(",".join)
    body = "".join(r + term for r in draw(st.lists(row, max_size=6)))
    if body and draw(st.booleans()):
        body = body[:-len(term)]
    change = draw(st.sampled_from(["none", "byte", "byte", "slice", "all"]))
    if change == "byte" and body:  # keeps the shape, so only the byte check can decline
        pos = draw(st.integers(0, len(body) - 1))
        body = body[:pos] + draw(st.sampled_from(ALPHABET)) + body[pos + 1:]
    elif change == "slice":  # replace up to two bytes, or none, with up to three
        start = draw(st.integers(0, len(body)))
        stop = draw(st.integers(start, min(start + 2, len(body))))
        body = body[:start] + draw(st.text(ALPHABET, max_size=3)) + body[stop:]
    elif change == "all":
        body = draw(st.text(ALPHABET, max_size=30))
    return (header + term + body).encode("utf-8"), mapping


@settings(max_examples=400)
@given(case=csv_files())
def test_ingest_matches_csv_reader(tmp_path_factory, case):
    data, mapping = case
    path = tmp_path_factory.getbasetemp() / "hypothesis.csv"
    path.write_bytes(data)
    assert outcome(lambda: ingest(path, mapping)) == reference(path, mapping)
    # ingest_counts streams the same files, and reads each as ingest(...).counts().
    assert (strict_counts(data, mapping) is None) == (strict_frame(data, mapping) is None)
    assert counts_agree(path, mapping)


@pytest.mark.parametrize("term", ["\n", "\r\n"])
def test_every_byte_change_matches_csv_reader(term, tmp_path):
    header = "group,pred,corr" + term
    body = "1,0,0" + term + "0,1,1" + term
    path = tmp_path / "d.csv"
    for pos in range(len(body)):
        for char in ALPHABET:
            path.write_bytes((header + body[:pos] + char + body[pos + 1:]).encode())
            for mapping in (DEFAULT, REMAPPED):
                assert outcome(lambda: ingest(path, mapping)) == reference(path, mapping)
                assert counts_agree(path, mapping)


# Headers of 1 to 5 columns and the mapping each is read with. One column
# cannot hold the mapped pred and group, so that file is always declined.
WIDE = {
    1: ("pred", NO_CORR),
    2: ("pred,group", NO_CORR),
    3: ("group,pred,corr", DEFAULT),
    4: ("pred,corr,group,true", WITH_TRUE),
    5: ("pred,corr,group,true,extra", REMAPPED),
}


def period_rows(ncols, term):
    """Rows in one period: the fewest rows whose bytes are a multiple of 8.

    It is a row count that varies with the row length, so files of a few
    periods, give or take a row, end in varied places.
    """
    row_len = 2 * ncols - 1 + len(term)
    return math.lcm(row_len, 8) // row_len


def strict_file(ncols, term, start, rows, terminated=True):
    """Random 0/1 rows whose body starts at byte ``start`` mod 8, and their mapping.

    The header's first name is padded with leading spaces, which the strict
    path strips, so ``start`` varies the header's length.
    """
    header, mapping = WIDE[ncols]
    header = " " * ((start - len(header) - len(term)) % 8) + header
    cells = np.random.default_rng(rows).integers(0, 2, size=(rows, ncols))
    body = "".join(",".join(map(str, row)) + term for row in cells)
    if not terminated:
        body = body[:-len(term)]
    return (header + term + body).encode(), mapping


def with_byte(data, pos, char):
    return data[:pos] + bytes([char]) + data[pos + 1:]


# Three periods of rows: 12 rows of three LF columns; of five CRLF columns, 24 rows.
# The cases below add or take a row, or drop the last terminator.
WHOLE_PERIODS = strict_file(3, "\n", 5, 3 * 4)
FIRST_CELL = WHOLE_PERIODS[0].index(b"\n") + 1

# (file bytes, mapping, whether the byte fast path takes the file)
NAMED = {
    "crlf": (b"pred,corr,group\r\n1,0,0\r\n0,1,1\r\n", DEFAULT, True),
    "no_final_newline": (b"pred,corr,group\n1,0,0\n0,1,1", DEFAULT, True),
    "crlf_no_final_newline": (b"pred,corr,group\r\n1,0,0\r\n0,1,1", DEFAULT, True),
    "spaced_header": (b" pred , corr,group\n1,0,0\n", DEFAULT, True),
    "spaced_cell": (b"pred,corr,group\n1,0,0\n0, 1,1\n", DEFAULT, False),
    "quoted_cell": (b'pred,corr,group\n1,0,0\n0,"1",1\n', DEFAULT, False),
    "trailing_blank_line": (b"pred,corr,group\n1,0,0\n\n", DEFAULT, False),
    "bom_header": (BOM + b"pred,corr,group\n1,0,0\n", DEFAULT, True),
    "double_bom_header": (2 * BOM + b"pred,corr,group\n1,0,0\n", DEFAULT, False),
    "bom_spaced_cell": (BOM + b"pred,corr,group\n1,0,0\n0, 1,1\n", DEFAULT, False),
    "duplicate_columns": (b"pred,corr,pred,group\n1,0,0,1\n0,1,1,0\n", DEFAULT, True),
    "header_only": (b"pred,corr,group\n", DEFAULT, False),
    "header_without_newline": (b"pred,corr,group", DEFAULT, False),
    "empty_file": (b"", DEFAULT, False),
    "remapped": (b"pred,corr,group\n1,0,0\n0,1,1\n", REMAPPED, True),
    "no_corr_column": (b"pred,group\n1,0\n0,1\n", NO_CORR, True),
    "missing_true": (b"pred,corr,group\n1,0,0\n", WITH_TRUE, False),
    "non_binary": (b"pred,corr,group\n1,0,0\n1,2,0\n", DEFAULT, False),
    "ragged": (b"pred,corr,group\n1,0,0\n1,0\n", DEFAULT, False),
    "mixed_terminators": (b"pred,corr,group\r\n1,0,0\n0,1,1\r\n", DEFAULT, False),
    "whole_periods": (*WHOLE_PERIODS, True),
    "whole_periods_and_one_row": (*strict_file(3, "\n", 5, 3 * 4 + 1), True),
    "whole_periods_less_one_row": (*strict_file(3, "\n", 5, 3 * 4 - 1), True),
    "whole_periods_unterminated": (*strict_file(3, "\n", 5, 3 * 4, False), True),
    "whole_periods_crlf_aligned": (*strict_file(5, "\r\n", 0, 3 * 8), True),
    "whole_periods_crlf_and_one_unterminated_row":
        (*strict_file(5, "\r\n", 0, 3 * 8 + 1, False), True),
    "whole_periods_crlf_less_one_row": (*strict_file(5, "\r\n", 0, 3 * 8 - 1), True),
    "non_binary_in_first_period":
        (with_byte(WHOLE_PERIODS[0], FIRST_CELL, ord("2")), DEFAULT, False),
    "non_binary_in_last_row": (with_byte(WHOLE_PERIODS[0], -2, ord("2")), DEFAULT, False),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_case(name, tmp_path):
    data, mapping, fast = NAMED[name]
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    assert (strict_frame(data, mapping) is not None) == fast
    assert (strict_counts(data, mapping) is not None) == fast
    assert outcome(lambda: ingest(path, mapping)) == reference(path, mapping)
    assert counts_agree(path, mapping)


@pytest.mark.parametrize("start", [0, 5])  # two header lengths
@pytest.mark.parametrize("term", ["\n", "\r\n"])
@pytest.mark.parametrize("ncols", [1, 2, 3, 4, 5])
def test_whole_periods_match_csv_reader(ncols, term, start, tmp_path):
    path = tmp_path / "d.csv"
    for rows in (3 * period_rows(ncols, term) + k for k in (-1, 0, 1, 5)):
        for terminated in (True, False):
            data, mapping = strict_file(ncols, term, start, rows, terminated)
            assert (data.index(b"\n") + 1) % 8 == start
            path.write_bytes(data)
            assert (strict_frame(data, mapping) is not None) == (ncols > 1)
            assert outcome(lambda: ingest(path, mapping)) == reference(path, mapping)


@pytest.mark.parametrize("ncols, term, start", [(3, "\n", 5), (4, "\n", 0), (5, "\r\n", 3)])
def test_every_byte_change_in_whole_periods(ncols, term, start, tmp_path):
    data, mapping = strict_file(ncols, term, start, 3 * period_rows(ncols, term) + 1)
    path = tmp_path / "d.csv"
    for pos in range(data.index(b"\n") + 1, len(data)):
        for char in ALPHABET.encode():
            changed = with_byte(data, pos, char)
            # Only a cell changed to the other digit leaves the file strict.
            fast = changed == data or (data[pos] in b"01" and char in b"01")
            assert (strict_frame(changed, mapping) is not None) == fast
            assert (strict_counts(changed, mapping) is not None) == fast
            path.write_bytes(changed)
            assert outcome(lambda: ingest(path, mapping)) == reference(path, mapping)
            assert counts_agree(path, mapping)


BLOCK_EDGES = [2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1]


@pytest.mark.parametrize("rows", BLOCK_EDGES)
@pytest.mark.parametrize("ncols, term, start", [(3, "\n", 5), (5, "\r\n", 0)])
def test_strict_ingest_across_blocks(rows, ncols, term, start):
    data, mapping = strict_file(ncols, term, start, rows)
    text = io.StringIO(data.decode(), newline="")
    assert strict_frame(data, mapping) == ingest_rows(csv.reader(text), mapping)
    # A bad cell at either side of a block boundary, or in the last rows, declines it.
    first_cell = data.index(b"\n") + 1
    row_len = 2 * ncols - 1 + len(term)
    for row in (BLOCK - 1, BLOCK, rows - 2, rows - 1):
        bad = with_byte(data, first_cell + row * row_len + 2, ord("2"))
        assert strict_frame(bad, mapping) is None


# Every mapping of a file with columns pred, corr, group and true, some of
# which leave columns unread.
COUNT_MAPPINGS = MAPPINGS + [
    ColumnMapping(corr_col=None, true_col="true", favorable=0),
    ColumnMapping(true_col="true", privileged=0),
]


@pytest.mark.parametrize("mapping", COUNT_MAPPINGS)
@pytest.mark.parametrize("ncols, term, terminated",
                         [(4, "\n", True), (4, "\r\n", False),
                          (5, "\r\n", True), (5, "\n", False)])
def test_ingest_counts_across_blocks(ncols, term, terminated, mapping, tmp_path):
    data, _ = strict_file(ncols, term, 5, 2 * BLOCK + 1, terminated)
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    counts = strict_counts(data, mapping)
    assert counts == ingest_counts(path, mapping) == ingest(path, mapping).counts()
    assert counts == oracle_counts(data, mapping)


@pytest.mark.parametrize("change", ["spaced_cell", "quoted_header"])
def test_ingest_counts_of_declined_file(change, tmp_path):
    # Valid files the strict path declines are counted from ingest's frame.
    data, mapping = strict_file(3, "\n", 5, 2 * BLOCK + 1)
    if change == "spaced_cell":
        cell = data.index(b"\n") + 1 + BLOCK * 6
        data = data[:cell] + b" " + data[cell:]
    else:
        data = data.replace(b"pred", b'"pred"', 1)
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    assert strict_counts(data, mapping) is None
    counts = ingest_counts(path, mapping)
    assert counts == ingest(path, mapping).counts() == oracle_counts(data, mapping)
    assert counts.n == 2 * BLOCK + 1


COUNTED_ROWS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("n", COUNTED_ROWS)
@pytest.mark.parametrize("mapping", MAPPINGS)
# A seed has no structure to shrink, and each example reads up to 2 * BLOCK + 1 rows.
@settings(max_examples=2, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1))
def test_every_count_path_matches_oracle(mapping, n, seed, tmp_path_factory):
    # Random rows of pred, corr, group and true, read under each mapping:
    # every path that counts a file or its columns gives the loop-counted table.
    raw = np.random.default_rng(seed).integers(0, 2, size=(4, n))
    data = csv_of(["pred", "corr", "group", "true"], raw)
    cells = dict(zip(["pred", "corr", "group", "true"], raw.tolist()))
    label = {name: (col if (mapping.privileged if name == "group" else mapping.favorable)
                    else [1 - v for v in col]) for name, col in cells.items()}
    table = oracle.count_table(
        label["pred"], label["corr"] if mapping.corr_col else label["pred"], label["group"],
        label["true"] if mapping.true_col else None)
    want = outcome(lambda: FlipCounts(table))  # a missing group fails on every path

    tmp_path = tmp_path_factory.mktemp("counted")
    strict, spaced = tmp_path / "strict.csv", tmp_path / "spaced.csv"
    strict.write_bytes(data)
    body = data.index(b"\n") + 1  # one cell " 0" or " 1" sends the copy to the csv path
    spaced.write_bytes(data[:body] + b" " + data[body:])
    assert strict_counts(data, mapping) is not None
    assert strict_counts(spaced.read_bytes(), mapping) is None
    assert outcome(lambda: ingest_counts(strict, mapping)) == want
    assert outcome(lambda: ingest_counts(spaced, mapping)) == want
    assert through_fifo(data, lambda fifo: outcome(lambda: ingest_counts(fifo, mapping)),
                        tmp_path) == want
    assert outcome(lambda: column_counts(*ingest_columns(strict, mapping))) == want
    assert outcome(lambda: ingest(strict, mapping).counts()) == want


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("with_true", [False, True])
def test_corr_given_as_pred_is_counted_on_the_diagonal(n, with_true):
    # A corr that is pred itself is counted once, with its rows where corr
    # equals pred; a copy of pred is another column, counted on its own.
    rng = np.random.default_rng(n)
    pred, group, true = (bytearray(rng.integers(0, 2, size=n, dtype=np.int8).tobytes())
                         for _ in range(3))
    true = true if with_true else None
    counts = column_counts(pred, pred, group, true)
    assert counts == column_counts(pred, bytearray(pred), group, true)
    assert counts.margin("pred", "corr") == ((n - sum(pred), 0), (0, sum(pred)))


def test_bom_skipped_on_strict_path(tmp_path):
    data, mapping = strict_file(3, "\n", 5, 2 * BLOCK + 1)
    frame = strict_frame(data, mapping)
    assert frame is not None and strict_frame(BOM + data, mapping) == frame
    assert strict_counts(BOM + data, mapping) == frame.counts()
    path = tmp_path / "d.csv"
    path.write_bytes(BOM + data)
    assert ingest(path, mapping) == frame
    assert ingest_counts(path, mapping) == frame.counts()


def test_bom_skipped_on_lenient_path(tmp_path):
    data = b"pred,corr,group\n1,0,0\n0, 1,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(data)
    marked.write_bytes(BOM + data)
    assert strict_frame(BOM + data, DEFAULT) is None
    assert ingest(marked) == ingest(plain)
    assert ingest_counts(marked) == ingest(plain).counts()


@pytest.mark.parametrize("char", [b"\xff", b"\xc3\xa9", b"\xc3"])
@pytest.mark.parametrize("at", [BLOCK - 1, BLOCK, 3 * BLOCK + 2])
def test_encoding_checked_across_blocks(char, at, tmp_path):
    # A declined file's UTF-8 is checked a block at a time. A bad byte, a
    # two-byte character or a cut one, at either side of a block's edge,
    # fails as decoding the whole file does, naming the same row, or passes.
    data, mapping = strict_file(3, "\n", 5, BLOCK)
    data = data[:at] + char + data[at:]
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    try:
        data.decode("utf-8")
        want = reference(path, mapping)
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        want = ("bad_encoding", f"row {row}: byte {data[exc.start]:#04x} is not valid UTF-8")
    assert outcome(lambda: ingest(path, mapping)) == want
    assert outcome(lambda: ingest_counts(path, mapping)) == want


def csv_of(names, vectors):
    """The CSV bytes of 0/1 vectors, built in one buffer."""
    rows = np.full((len(vectors[0]), 2 * len(names)), ord(","), np.uint8)
    rows[:, -1] = ord("\n")
    rows[:, ::2] = np.stack(vectors, axis=1) + ord("0")
    return (",".join(names) + "\n").encode() + rows.tobytes()


def test_strict_ingest_scratch_does_not_grow_with_rows(traced_peak):
    names = ["pred", "corr", "group", "true"]
    data = csv_of(names, np.random.default_rng(0).integers(0, 2, size=(4, 1_000_000)))
    frame, peak = traced_peak(strict_frame, data, WITH_TRUE)
    assert frame is not None
    assert peak <= 4 * frame.n + 2**20  # the four vectors it returns, and fixed scratch


def test_ingest_holds_no_file_bytes(traced_peak, tmp_path):
    names = ["pred", "corr", "group", "true"]
    path = tmp_path / "d.csv"
    path.write_bytes(csv_of(names, np.random.default_rng(0).integers(0, 2, size=(4, 1_000_000))))
    frame, peak = traced_peak(ingest, path, WITH_TRUE)
    assert frame.n == 1_000_000
    assert peak <= 4 * frame.n + 2**20  # the four vectors it returns, and fixed scratch


def test_ingest_of_a_declined_file_holds_its_columns_once(traced_peak, tmp_path):
    names = ["pred", "corr", "group"]
    data = csv_of(names, np.random.default_rng(0).integers(0, 2, size=(3, 1_000_000)))
    # One cell " 1", which csv.reader reads as 1, sends the file to the csv path.
    path = tmp_path / "d.csv"
    path.write_bytes(data.replace(b"\n1,", b"\n 1,", 1))
    frame, peak = traced_peak(ingest, path)
    assert frame.n == 1_000_000
    # The three byte columns, room for one more, and fixed scratch.
    assert peak <= (3 + 1) * frame.n + 2**21


def test_ingest_of_a_declined_file_holds_what_ingest_columns_does(traced_peak, tmp_path):
    # The frame takes over the byte columns as read-only views: no copy of any.
    names = ["pred", "corr", "group"]
    data = csv_of(names, np.random.default_rng(0).integers(0, 2, size=(3, 1_000_000)))
    path = tmp_path / "d.csv"
    path.write_bytes(data.replace(b"\n1,", b"\n 1,", 1))
    frame, peak = traced_peak(ingest, path)
    columns, columns_peak = traced_peak(ingest_columns, path, DEFAULT)
    assert [vec.tolist() for vec in (frame.y_predicted, frame.y_corrected, frame.group)] == [
        list(col) for col in columns[:3]]
    assert peak <= columns_peak + 2**18


def test_counting_a_declined_file_keeps_no_rows(traced_peak, tmp_path):
    names = ["pred", "corr", "group"]
    data = csv_of(names, np.random.default_rng(0).integers(0, 2, size=(3, 250_000)))
    # One cell " 1", which csv.reader reads as 1, sends the file to the csv path.
    data = data.replace(b"\n1,", b"\n 1,", 1)
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    assert strict_counts(data, DEFAULT) is None
    counts, peak = traced_peak(ingest_counts, path)
    assert counts == ingest(path).counts()
    assert peak <= len(data) + 2**18  # the file's bytes, read whole, and fixed scratch


@pytest.mark.parametrize("rows", [1_000_000, 10_000_000])
def test_audit_memory_does_not_grow_with_rows(rows, traced_peak, tmp_path):
    # The file repeats one chunk of rows, so its counts are the chunk's times
    # the repeats, and writing it holds only the chunk.
    chunk = np.random.default_rng(rows).integers(0, 2, size=(3, 100_000))
    header, body = csv_of(["pred", "corr", "group"], chunk).split(b"\n", 1)
    repeats = rows // chunk.shape[1]
    path, out = tmp_path / "d.csv", tmp_path / "report.json"
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        for _ in range(repeats):
            fh.write(body)
    argv = ["audit", "-i", str(path), "--format", "structured", "-o", str(out)]
    code, peak = traced_peak(main, argv)
    path.unlink()
    want = build_report(FlipCounts(repeats * np.array(oracle.count_table(*chunk.tolist()))))
    assert (code, out.read_text()) == (_VERDICT_CODES[want.verdict], render_structured(want))
    assert peak <= 2**21  # block buffers only: no vector as long as the file


class Resized(io.BytesIO):
    """A file whose end, sought at the start, is ``delta`` bytes off its content's end."""

    def __init__(self, data, delta):
        super().__init__(data)
        self.delta = delta

    def seek(self, pos, whence=io.SEEK_SET):
        end = super().seek(pos, whence)
        return end + self.delta if whence == io.SEEK_END else end


@pytest.mark.parametrize("rows", [5, 2 * BLOCK + 1])
def test_strict_ingest_declines_a_file_that_changes_size(rows):
    data, mapping = strict_file(3, "\n", 5, rows)
    assert (_ingest_strict(Resized(data, 0), mapping, _Columns)
            == _ingest_strict(io.BytesIO(data), mapping, _Columns))
    # One row more than the size taken at the start, one fewer (a short read),
    # or a byte either way: each declines, so the csv path reads the file as it is.
    for delta in (-6, 6, -1, 1):
        assert _ingest_strict(Resized(data, delta), mapping, _Columns) is None


def through_fifo(data, read, tmp_path):
    """``read(fifo)`` of a new named pipe in ``tmp_path`` that ``data`` is written to."""
    fifo = tmp_path / "d.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()
        fifo.unlink()


FIFO_CASES = {
    "strict": strict_file(3, "\n", 5, 2 * BLOCK + 1),
    "crlf": NAMED["crlf"][:2],
    "quoted_header": (b'"pred",corr,group\n1,0,0\n0,1,1\n', DEFAULT),
    "non_binary": NAMED["non_binary"][:2],
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("read", [ingest, ingest_counts])
@pytest.mark.parametrize("name", FIFO_CASES)
def test_fifo_matches_regular_file(name, read, tmp_path):
    data, mapping = FIFO_CASES[name]
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    got = through_fifo(data, lambda fifo: outcome(lambda: read(fifo, mapping)), tmp_path)
    assert got == outcome(lambda: read(path, mapping))
    assert isinstance(got, (AuditFrame, FlipCounts)) == (name != "non_binary")


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_emit_across_blocks(n, tmp_path):
    vectors = np.random.default_rng(n).integers(0, 2, size=(4, n))
    want = csv_of(["pred", "corr", "group", "true"], vectors)
    frame = AuditFrame(*vectors)
    assert frame_to_csv(frame).encode() == want
    write_frame(frame, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == want


def test_emit_scratch_does_not_grow_with_rows(traced_peak, tmp_path):
    frame = AuditFrame(*np.random.default_rng(0).integers(0, 2, size=(4, 1_000_000)))
    path = tmp_path / "out.csv"
    _, peak = traced_peak(write_frame, frame, path)
    assert path.stat().st_size == len("pred,corr,group,true\n") + 8 * frame.n
    assert peak < 2**20


@pytest.mark.parametrize("n", [1, 2, 100_000])
@pytest.mark.parametrize("with_true", [False, True])
def test_round_trip(n, with_true, tmp_path):
    pred, corr, group, true = np.random.default_rng(n).integers(0, 2, size=(4, n))
    frame = AuditFrame(pred, corr, group, true if with_true else None)
    path = tmp_path / "rt.csv"
    write_frame(frame, path)
    assert ingest(path, ColumnMapping(true_col="true" if with_true else None)) == frame



def unclosed_quote_csv(rows=30_000, bad_row=7):
    """A CSV whose row ``bad_row`` opens a quote no later row closes."""
    lines = ["pred,corr,group"] + ["0,1,1"] * rows
    lines[bad_row] = '1,"0,0'
    return "\n".join(lines) + "\n"


def test_csv_error_has_code_and_row():
    # The open field swallows every later line and outgrows the csv module's limit.
    text = unclosed_quote_csv()
    with pytest.raises(ValidationError) as exc:
        ingest_rows(csv.reader(io.StringIO(text, newline="")), DEFAULT)
    assert exc.value.code == "bad_csv"
    match = re.fullmatch(r"row (\d+): field larger than field limit \(\d+\)", str(exc.value))
    assert match and 8 < int(match[1]) <= 30_001


@pytest.mark.parametrize("fields, message", [
    ({"corr_col": "pred"}, "mapped columns must be distinct"),
    ({"true_col": "group"}, "mapped columns must be distinct"),
    ({"favorable": 2}, "favorable and privileged values must be 0 or 1"),
    ({"privileged": -1}, "favorable and privileged values must be 0 or 1"),
    ({"group_col": None}, "pred_col and group_col must be column names"),
    ({"pred_col": None}, "pred_col and group_col must be column names"),
    ({"pred_col": 3}, "pred_col and group_col must be column names"),
    ({"corr_col": ["a"]}, "corr_col and true_col must be column names or None"),
    ({"true_col": 5}, "corr_col and true_col must be column names or None"),
])
def test_bad_mapping_rejected(fields, message):
    with pytest.raises(ValidationError, match=message) as exc:
        ColumnMapping(**fields)
    assert exc.value.code == "bad_mapping"


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("strict", [True, False])
def test_ingested_vectors_are_read_only_byte_views(mapping, strict, tmp_path):
    pred, corr, group, true = np.random.default_rng(3).integers(0, 2, size=(4, 50))
    path = tmp_path / "d.csv"
    write_frame(AuditFrame(pred, corr, group, true), path)
    data = path.read_bytes()
    if not strict:  # a quoted header is valid but goes to ingest_rows
        data = b'"pred"' + data.removeprefix(b"pred")
    path.write_bytes(data)
    assert (strict_frame(data, mapping) is not None) == strict
    frame = ingest(path, mapping)
    vectors = [frame.y_predicted, frame.y_corrected, frame.group, frame.y_true]
    columns = ingest_columns(path, mapping)
    for vec, col in list(zip(vectors, columns))[:3 + bool(mapping.true_col)]:
        # A read-only view of the bytearray ingest read, handed over uncopied.
        assert vec.readonly and vec.format == "B" and type(vec.obj) is bytearray
        assert vec.tolist() == list(col)
    assert (frame.y_corrected is frame.y_predicted) == (mapping.corr_col is None)
