"""Strict CSV ingestion and emission for audit frames.

Rows are never dropped or coerced: a single non-binary cell or ragged row
rejects the whole file, with the offending row and column named. Dropping
rows silently would change n and therefore every rate downstream.

A file of bare 0/1 cells is parsed with numpy, one block of rows at a time,
into label vectors (``ingest``) or straight into a count table
(``ingest_counts``); any other file goes through ``csv.reader`` and
``ingest_rows``, the one place that reports data errors. One leading UTF-8
byte order mark is skipped on either path.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .frame import BLOCK, AuditFrame, FlipCounts, ValidationError, decode_utf8, tally

_ZERO = ord("0")
_BOM = "\ufeff"


@dataclass(frozen=True)
class ColumnMapping:
    pred_col: str = "pred"
    corr_col: str | None = "corr"  # None: no corrected labels, corr = pred
    group_col: str = "group"
    true_col: str | None = None
    favorable: int = 1    # raw value that maps to the favorable label 1
    privileged: int = 1   # raw value that maps to the privileged group 1

    def __post_init__(self):
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


def ingest_rows(rows, mapping: ColumnMapping) -> AuditFrame:
    """The frame of ``rows``, a ``csv.reader`` or any iterable of cell lists."""
    rows = iter(rows)
    try:
        return _ingest_rows(rows, mapping)
    except csv.Error as exc:
        # A reader fails this way on, say, an unclosed quote whose field
        # outgrows csv.field_size_limit(); line_num is where it stopped.
        line = getattr(rows, "line_num", None)
        raise ValidationError(f"row {line}: {exc}" if line else str(exc),
                              code="bad_csv") from None


def _ingest_rows(rows, mapping: ColumnMapping) -> AuditFrame:
    try:
        header = next(rows)
    except StopIteration:
        raise ValidationError("input has no header row", code="empty")
    columns = [h.strip() for h in header]
    wanted = mapping.columns()
    indices = {}
    for name in wanted:
        if name not in columns:
            raise ValidationError(
                f"unknown column {name!r}; file has {columns}", code="unknown_column"
            )
        indices[name] = columns.index(name)

    data: dict[str, list[int]] = {name: [] for name in wanted}
    for rownum, row in enumerate(rows, start=2):  # 1-based, counting the header
        if len(row) != len(columns):
            raise ValidationError(
                f"row {rownum} has {len(row)} cells, expected {len(columns)}",
                code="ragged_row",
            )
        for name, idx in indices.items():
            data[name].append(_parse_cell(row[idx], rownum, name))
    if not data[mapping.pred_col]:
        raise ValidationError("file contains no data rows", code="empty")
    return _frame(mapping, {name: np.asarray(cells, dtype=np.int8)
                            for name, cells in data.items()})


def _frame(mapping: ColumnMapping, vectors: dict[str, np.ndarray]) -> AuditFrame:
    """The frame of the mapped columns, given as new int8 0/1 vectors by name."""
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


class _Vectors:
    """Copies each block's mapped columns into n-long vectors; gives the frame."""

    def __init__(self, mapping: ColumnMapping, n: int):
        self.mapping = mapping
        self.vectors = {name: np.empty(n, np.int8) for name in mapping.columns()}

    def add(self, first: int, cells: dict[str, np.ndarray]):
        for name, vec in self.vectors.items():
            np.subtract(cells[name], _ZERO, out=vec[first:first + BLOCK], dtype=np.int8)

    def result(self) -> AuditFrame:
        return _frame(self.mapping, self.vectors)


class _Counts:
    """Adds the tally of each block's mapped columns to one count table; gives it.

    The cells go through block-sized scratch, so nothing grows with n. The
    table is tallied over raw values; ``result`` flips the axes that a 0
    ``favorable`` or ``privileged`` value remaps.
    """

    def __init__(self, mapping: ColumnMapping, n: int):
        self.mapping = mapping
        self.scratch = {name: np.empty(min(n, BLOCK), np.int8) for name in mapping.columns()}
        # Table axes: (group, pred, corr[, true]); corr = pred when it is unmapped.
        self.axes = [mapping.group_col, mapping.pred_col, mapping.corr_col or mapping.pred_col]
        if mapping.true_col is not None:
            self.axes.append(mapping.true_col)
        self.table = np.zeros((2,) * len(self.axes), np.int64)

    def add(self, first: int, cells: dict[str, np.ndarray]):
        # A cell's value is the low bit of "0" or "1". The block is checked
        # after this, so any other byte declines the file, and the table with it.
        for name, col in self.scratch.items():
            np.bitwise_and(cells[name], 1, out=col[:cells[name].size], casting="unsafe")
        rows = cells[self.mapping.pred_col].size
        self.table += tally(*(self.scratch[name][:rows] for name in self.axes))

    def result(self) -> FlipCounts:
        table = self.table
        if self.mapping.privileged == 0:
            table = table[::-1]
        if self.mapping.favorable == 0:
            table = np.flip(table, axis=tuple(range(1, table.ndim)))
        return FlipCounts(table)


def _ingest_strict(fh, mapping: ColumnMapping,
                   sink=_Vectors) -> AuditFrame | FlipCounts | None:
    """A file of bare 0/1 cells, read in blocks of rows into ``sink``; None for any other file.

    ``fh`` is a seekable binary file at its start. ``sink`` is ``_Vectors``,
    which gives the frame, or ``_Counts``, which gives its count table.
    The file is taken only when ``ingest_rows`` would read it the same way:
    an ASCII header with no quote, stray CR or NUL, then rows of exactly
    ``d,d,...,d`` with each ``d`` 0 or 1, each ended by the header's
    terminator (the last row may lack it). Anything else, valid or not, is
    declined, never rejected, so ``ingest_rows`` stays the one place that
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
    # A byte b matches its pattern byte p when b & mask == p; masking the
    # low bit lets a cell's pattern "0" match both "0" and "1".
    pattern = np.frombuffer(b",".join([b"0"] * len(columns)) + term, np.uint8)
    mask = np.full(row_len, 0xFF, np.uint8)
    mask[:width:2] = 0xFE
    # A period holds whole rows and whole 8-byte words, and a block of BLOCK
    # rows holds whole periods (tiles, a power of two, divides BLOCK). So each
    # block's whole periods are checked a word at a time against the masks
    # tiled to one period, and only the last block has bytes after them
    # (fewer rows than a period, and a last row that may lack its
    # terminator), checked a byte at a time.
    period = math.lcm(row_len, 8)
    tiles = period // row_len
    wide_mask = np.tile(mask, tiles).view(np.uint64)
    wide_pattern = np.tile(pattern, tiles).view(np.uint64)

    # Each block is read into one reused buffer. The sink takes its mapped
    # columns first; then it is masked and XORed with the pattern in place,
    # which leaves it all zero when the block matches.
    into = sink(mapping, n)
    offsets = {name: 2 * columns.index(name) for name in mapping.columns()}
    buffer = np.empty(min(n, BLOCK) * row_len, np.uint8)
    for first in range(0, n, BLOCK):
        block = buffer[:min(size - first * row_len, buffer.size)]
        if fh.readinto(block) != block.size:
            return None
        # Column j's cells sit at bytes 2j, 2j + row_len, ..., the last row's too.
        into.add(first, {name: block[offset::row_len] for name, offset in offsets.items()})
        words = block.size // period * period
        wide = block[:words].view(np.uint64).reshape(-1, period // 8)
        wide &= wide_mask
        wide ^= wide_pattern
        tail = block[words:]
        tail &= np.resize(mask, tail.size)
        tail ^= np.resize(pattern, tail.size)
        if wide.any() or tail.any():
            return None
    if fh.read(1):
        return None
    return into.result()


def _ingest(path, mapping: ColumnMapping, sink) -> AuditFrame | FlipCounts:
    """``_ingest_strict(file, mapping, sink)``, or the frame ``ingest_rows`` reads.

    A file the strict path declines is read again, whole, for
    ``csv.reader``. An input that cannot seek, such as a pipe, is read whole
    first.
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
    text = io.StringIO(decode_utf8(data, "row").removeprefix(_BOM), newline="")
    return ingest_rows(csv.reader(text), mapping)


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
    is read as ``ingest`` reads it and then counted, so every error keeps
    its code and message.
    """
    result = _ingest(path, mapping or ColumnMapping(), _Counts)
    return result.counts() if isinstance(result, AuditFrame) else result


def frame_to_csv_blocks(frame: AuditFrame):
    """The bytes of a frame in the canonical column layout (pred, corr, group[, true]).

    They come as the header and then blocks of up to ``BLOCK`` rows. The row
    blocks are views of one reused buffer, so each is valid only until the
    next is drawn: write it, or copy it, first.
    """
    names = ["pred", "corr", "group"]
    cols = [frame.y_predicted, frame.y_corrected, frame.group]
    if frame.y_true is not None:
        names.append("true")
        cols.append(frame.y_true)
    yield (",".join(names) + "\n").encode("ascii")
    scratch = np.empty((min(frame.n, BLOCK), 2 * len(cols)), np.uint8)
    scratch[:, 1::2] = ord(",")
    scratch[:, -1] = ord("\n")
    for start in range(0, frame.n, BLOCK):
        rows = scratch[:min(frame.n - start, BLOCK)]
        for j, col in enumerate(cols):
            np.add(col[start:start + BLOCK], _ZERO, out=rows[:, 2 * j], casting="unsafe")
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
