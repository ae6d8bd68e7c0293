"""Strict CSV ingestion and emission for audit frames.

Rows are never dropped or coerced: a single non-binary cell or ragged row
rejects the whole file, with the offending row and column named. Dropping
rows silently would change n and therefore every rate downstream.

A file of bare 0/1 cells is checked with bytes operations, one block of
rows at a time, and read into label vectors (``ingest``) or straight into a
count table (``ingest_counts``). Any other file goes through ``csv.reader``
and ``_mapped_rows``, the one place that reports data errors, into the same
two results. One leading UTF-8 byte order mark is skipped on either path.
Only label vectors need numpy: counting a file, on either path, does not
import it. ``csv`` is imported only for a file that goes through its reader.
"""

from __future__ import annotations

import io
from collections import Counter
from typing import TYPE_CHECKING

from .frame import (
    BLOCK, AuditFrame, FlipCounts, Record, ValidationError, decode_utf8, joint_counts,
)

if TYPE_CHECKING:
    import numpy as np

_ZERO = ord("0")
_BOM = "\ufeff"
_BARE = {"0": 0, "1": 1}
_ONE_AS_ZERO = bytes.maketrans(b"1", b"0")
_CHECK_ROWS = BLOCK // 16


class ColumnMapping(Record):
    pred_col: str = "pred"
    corr_col: str | None = "corr"  # None: no corrected labels, corr = pred
    group_col: str = "group"
    true_col: str | None = None
    favorable: int = 1    # raw value that maps to the favorable label 1
    privileged: int = 1   # raw value that maps to the privileged group 1

    def __post_init__(self):
        if not (isinstance(self.pred_col, str) and isinstance(self.group_col, str)):
            raise ValidationError("pred_col and group_col must be column names",
                                  code="bad_mapping")
        if not all(isinstance(col, (str, type(None))) for col in (self.corr_col, self.true_col)):
            raise ValidationError("corr_col and true_col must be column names or None",
                                  code="bad_mapping")
        cols = self.columns()
        if len(set(cols)) != len(cols):
            raise ValidationError("mapped columns must be distinct", code="bad_mapping")
        if self.favorable not in (0, 1) or self.privileged not in (0, 1):
            raise ValidationError(
                "favorable and privileged values must be 0 or 1", code="bad_mapping"
            )

    def columns(self) -> list[str]:
        """The mapped column names, leaving out unmapped optional ones."""
        cols = [self.pred_col, self.corr_col, self.group_col, self.true_col]
        return [c for c in cols if c is not None]


def _parse_cell(raw: str, row: int, col: str) -> int:
    value = raw.strip()
    if value not in ("0", "1"):
        raise ValidationError(
            f"row {row}, column {col!r}: value {raw!r} is not binary (expected 0 or 1)",
            code="non_binary",
        )
    return int(value)


def _mapped_rows(rows, mapping: ColumnMapping):
    """Each data row's mapped cells as ints, in ``mapping.columns()`` order.

    The header and every row are checked as they are read, so a consumer
    meets the first error in the file, whatever it keeps of the rows.
    """
    try:
        header = next(rows)
    except StopIteration:
        raise ValidationError("input has no header row", code="empty")
    columns = [h.strip() for h in header]
    indices = {}
    for name in mapping.columns():
        if name not in columns:
            raise ValidationError(
                f"unknown column {name!r}; file has {columns}", code="unknown_column"
            )
        indices[name] = columns.index(name)

    rownum = 1
    for rownum, row in enumerate(rows, start=2):  # 1-based, counting the header
        if len(row) != len(columns):
            raise ValidationError(
                f"row {rownum} has {len(row)} cells, expected {len(columns)}",
                code="ragged_row",
            )
        # Bare "0" and "1" are looked up; any other cell is parsed in full.
        values = tuple([_BARE.get(row[idx]) for idx in indices.values()])
        if None in values:
            values = tuple([_parse_cell(row[idx], rownum, name) for name, idx in indices.items()])
        yield values
    if rownum == 1:
        raise ValidationError("file contains no data rows", code="empty")


def _read_rows(rows, mapping: ColumnMapping, consume):
    """``consume(_mapped_rows(rows, mapping), mapping)``; a ``csv.Error`` becomes ``bad_csv``.

    ``rows`` is a ``csv.reader`` or any iterable of cell lists.
    """
    import csv

    rows = iter(rows)
    try:
        return consume(_mapped_rows(rows, mapping), mapping)
    except csv.Error as exc:
        # A reader fails this way on, say, an unclosed quote whose field
        # outgrows csv.field_size_limit(); line_num is where it stopped.
        line = getattr(rows, "line_num", None)
        raise ValidationError(f"row {line}: {exc}" if line else str(exc),
                              code="bad_csv") from None


def _frame_of_rows(cells, mapping: ColumnMapping) -> AuditFrame:
    import numpy as np

    names = mapping.columns()
    table = np.fromiter(cells, np.dtype((np.int8, len(names))))
    return _frame(mapping, {name: table[:, j].copy() for j, name in enumerate(names)})


def _counts_of_rows(cells, mapping: ColumnMapping) -> FlipCounts:
    names = mapping.columns()
    positions = [names.index(name) for name in _axes(mapping)]
    raw = [0] * (1 << len(positions))
    for values, count in Counter(cells).items():
        raw[sum(values[p] << bit for bit, p in enumerate(reversed(positions)))] += count
    return _count_table(mapping, raw)


def ingest_rows(rows, mapping: ColumnMapping) -> AuditFrame:
    """The frame of ``rows``, a ``csv.reader`` or any iterable of cell lists."""
    return _read_rows(rows, mapping, _frame_of_rows)


def _frame(mapping: ColumnMapping, vectors: dict[str, np.ndarray]) -> AuditFrame:
    """The frame of the mapped columns, given as new int8 0/1 vectors by name."""
    import numpy as np

    def vec(name: str | None, flip_when: int) -> np.ndarray | None:
        if name is None:
            return None
        arr = vectors[name]
        if flip_when == 0:
            np.subtract(1, arr, out=arr)
        arr.setflags(write=False)  # read-only and owning: AuditFrame keeps it uncopied
        return arr

    y_predicted = vec(mapping.pred_col, mapping.favorable)
    y_corrected = vec(mapping.corr_col, mapping.favorable)
    return AuditFrame(
        y_predicted=y_predicted,
        y_corrected=y_predicted if y_corrected is None else y_corrected,
        group=vec(mapping.group_col, mapping.privileged),
        y_true=vec(mapping.true_col, mapping.favorable),
    )


def _axes(mapping: ColumnMapping) -> list[str]:
    """The columns of the table's axes, (group, pred, corr[, true]); corr is pred if unmapped."""
    axes = [mapping.group_col, mapping.pred_col, mapping.corr_col or mapping.pred_col]
    return axes + [mapping.true_col] if mapping.true_col is not None else axes


def _count_table(mapping: ColumnMapping, raw: list[int]) -> FlipCounts:
    """The count table of ``raw``, counts over the raw values of ``_axes(mapping)``.

    ``raw[i]`` counts the rows whose values, read as bits with the first
    axis highest, spell ``i``. A 0 ``privileged`` value flips the group
    bit, and a 0 ``favorable`` value every label bit.
    """
    labels = len(raw).bit_length() - 2  # the axes after group
    flip = 0
    if mapping.privileged == 0:
        flip |= 1 << labels
    if mapping.favorable == 0:
        flip |= (1 << labels) - 1
    cells = [raw[i ^ flip] for i in range(len(raw))]
    while len(cells) > 2:
        cells = [cells[i:i + 2] for i in range(0, len(cells), 2)]
    return FlipCounts(cells)


class _Vectors:
    """Copies each block's mapped columns into n-long vectors; gives the frame.

    Column ``name`` of a block of rows ``row_len`` bytes long is its bytes
    ``offsets[name]``, ``offsets[name] + row_len``, and so on.
    """

    of_rows = staticmethod(_frame_of_rows)

    def __init__(self, mapping: ColumnMapping, n: int, row_len: int, offsets: dict[str, int]):
        import numpy as np

        self.mapping, self.row_len, self.offsets = mapping, row_len, offsets
        self.vectors = {name: np.empty(n, np.int8) for name in mapping.columns()}

    def add(self, first: int, buffer: bytearray, length: int):
        import numpy as np

        block = np.frombuffer(buffer, np.uint8, count=length)
        for name, vec in self.vectors.items():
            col = block[self.offsets[name]::self.row_len]
            np.subtract(col, _ZERO, out=vec[first:first + col.size], dtype=np.int8)

    def result(self) -> AuditFrame:
        return _frame(self.mapping, self.vectors)


class _Counts:
    """Adds the joint counts of each block's mapped columns to one table; gives it.

    A column's cells become one big int, a byte a row, in which "0" is 0x30
    and "1" is 0x31. The AND of some columns then has 0x31 in exactly the
    rows where all of them are 1, so its bit count less two bits a row
    counts those rows, which is all ``joint_counts`` needs. Nothing here
    grows with n, and nothing needs numpy.
    """

    of_rows = staticmethod(_counts_of_rows)

    def __init__(self, mapping: ColumnMapping, n: int, row_len: int, offsets: dict[str, int]):
        self.mapping, self.row_len, self.offsets = mapping, row_len, offsets
        self.axes = _axes(mapping)
        self.raw = [0] * (1 << len(self.axes))

    def add(self, first: int, buffer: bytearray, length: int):
        rows = -(-length // self.row_len)
        columns = [int.from_bytes(buffer[self.offsets[name]:length:self.row_len], "big")
                   for name in self.axes]
        counts = joint_counts(columns, rows, lambda col: col.bit_count() - 2 * rows)
        self.raw = [total + count for total, count in zip(self.raw, counts)]

    def result(self) -> FlipCounts:
        return _count_table(self.mapping, self.raw)


def _ingest_strict(fh, mapping: ColumnMapping,
                   sink=_Vectors) -> AuditFrame | FlipCounts | None:
    """A file of bare 0/1 cells, read in blocks of rows into ``sink``; None for any other file.

    ``fh`` is a seekable binary file at its start. ``sink`` is ``_Vectors``,
    which gives the frame, or ``_Counts``, which gives its count table.
    The file is taken only when ``ingest_rows`` would read it the same way:
    an ASCII header with no quote, stray CR or NUL, then rows of exactly
    ``d,d,...,d`` with each ``d`` 0 or 1, each ended by the header's
    terminator (the last row may lack it). Anything else, valid or not, is
    declined, never rejected, so the csv path stays the one place that
    reports data errors and accepts lenient input. A file that changes size
    while it is read is declined too.
    """
    line = fh.readline().removeprefix(_BOM.encode())
    if not line.endswith(b"\n"):
        return None
    header, term = line[:-1], b"\n"
    if header.endswith(b"\r"):
        header, term = header[:-1], b"\r\n"
    if not header or not header.isascii() or any(c in header for c in (b'"', b"\r", b"\0")):
        return None
    columns = [h.strip() for h in header.decode("ascii").split(",")]
    if any(name not in columns for name in mapping.columns()):
        return None

    width = 2 * len(columns) - 1  # cells and commas, without the terminator
    row_len = width + len(term)
    start = fh.tell()
    size = fh.seek(0, io.SEEK_END) - start
    fh.seek(start)
    n = -(-size // row_len)
    if n < 1 or size - (n - 1) * row_len not in (width, row_len):
        return None
    # With every "1" read as "0", each run of up to _CHECK_ROWS rows of a
    # strict file equals that many copies of the row pattern, less the last
    # row's terminator where it lacks one. Runs keep the check's copies small.
    pattern = (b",".join([b"0"] * len(columns)) + term) * min(n, _CHECK_ROWS)
    offsets = {name: 2 * columns.index(name) for name in mapping.columns()}

    # Each block is read into one reused buffer and checked; the sink takes
    # the mapped columns of a block that passes.
    into = sink(mapping, n, row_len, offsets)
    buffer = bytearray(min(n, BLOCK) * row_len)
    view = memoryview(buffer)
    for first in range(0, n, BLOCK):
        length = min(size - first * row_len, len(buffer))
        if fh.readinto(view[:length]) != length:
            return None
        for start in range(0, length, len(pattern)):
            run = buffer[start:min(start + len(pattern), length)]
            if run.translate(_ONE_AS_ZERO) != pattern[:len(run)]:
                return None
        into.add(first, buffer, length)
    if fh.read(1):
        return None
    return into.result()


def _ingest(path, mapping: ColumnMapping, sink) -> AuditFrame | FlipCounts:
    """``_ingest_strict(file, mapping, sink)``, or ``sink.of_rows`` of the file's rows.

    A file the strict path declines is read again, whole, and its rows go
    through ``csv.reader``. An input that cannot seek, such as a pipe, is
    read whole first.
    """
    try:
        with open(path, "rb") as fh:
            source = fh if fh.seekable() else io.BytesIO(fh.read())
            result = _ingest_strict(source, mapping, sink)
            if result is not None:
                return result
            source.seek(0)
            data = source.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", code="unreadable")
    if not data.isascii():
        decode_utf8(data, "row")  # a bad byte fails before any row is read
    import csv

    # The text is decoded as it is read, so the file's bytes are its one copy.
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    return _read_rows(csv.reader(text), mapping, sink.of_rows)


def ingest(path, mapping: ColumnMapping | None = None) -> AuditFrame:
    """Read a header-bearing UTF-8 CSV file into a validated frame.

    A file of bare 0/1 cells is read in blocks of rows, so its bytes are
    never all in memory; any other file is read again, whole, for
    ``csv.reader``. An input that cannot seek, such as a pipe, is read
    whole first.
    """
    return _ingest(path, mapping or ColumnMapping(), _Vectors)


def ingest_counts(path, mapping: ColumnMapping | None = None) -> FlipCounts:
    """``ingest(path, mapping).counts()``, holding no vector as long as the file.

    A file of bare 0/1 cells is tallied block by block, so a seekable one
    is counted in memory that does not grow with its rows. Any other file
    is read as ``ingest`` reads it, but each row is counted as it is
    checked, so every error keeps its code, message and order. Neither
    path imports numpy.
    """
    return _ingest(path, mapping or ColumnMapping(), _Counts)


def frame_to_csv_blocks(frame: AuditFrame, favorable: int = 1, privileged: int = 1):
    """The bytes of a frame in the canonical column layout (pred, corr, group[, true]).

    They come as the header and then blocks of up to ``BLOCK`` rows. The row
    blocks are views of one reused buffer, so each is valid only until the
    next is drawn: write it, or copy it, first. The labels are written in
    the raw polarity ``ColumnMapping`` reads with the same ``favorable``,
    and the group in that of ``privileged``: a 0 writes each value v as 1 - v.
    """
    import numpy as np

    names = ["pred", "corr", "group"]
    cols = [frame.y_predicted, frame.y_corrected, frame.group]
    polarities = [favorable, favorable, privileged]
    if frame.y_true is not None:
        names.append("true")
        cols.append(frame.y_true)
        polarities.append(favorable)
    # The digit of v is "0" + v, or "1" - v where the polarity is 0.
    digits = [(np.add, _ZERO) if polarity else (np.subtract, _ZERO + 1)
              for polarity in polarities]
    yield (",".join(names) + "\n").encode("ascii")
    scratch = np.empty((min(frame.n, BLOCK), 2 * len(cols)), np.uint8)
    scratch[:, 1::2] = ord(",")
    scratch[:, -1] = ord("\n")
    for start in range(0, frame.n, BLOCK):
        rows = scratch[:min(frame.n - start, BLOCK)]
        for j, (col, (op, zero)) in enumerate(zip(cols, digits)):
            op(zero, col[start:start + BLOCK], out=rows[:, 2 * j], casting="unsafe")
        yield memoryview(rows).cast("B")


def frame_to_csv(frame: AuditFrame) -> str:
    """The text of ``frame_to_csv_blocks(frame)``, joined."""
    # The blocks share one buffer, so a list of them would not hold the rows.
    # BytesIO copies each block as it comes and hands its buffer over uncopied.
    out = io.BytesIO()
    out.writelines(frame_to_csv_blocks(frame))
    return str(out.getvalue(), "ascii")


def write_frame(frame: AuditFrame, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(frame_to_csv_blocks(frame))
