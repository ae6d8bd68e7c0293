"""Strict CSV ingestion and emission for audit frames.

Rows are never dropped or coerced: a single non-binary cell or ragged row
rejects the whole file, with the offending row and column named. Dropping
rows silently would change n and therefore every rate downstream.

A file of bare 0/1 cells is checked with bytes operations, one block of
rows at a time, and read into 0/1 byte label columns (``ingest_columns``,
or ``ingest`` for a frame that holds read-only views of them), or into
columns a block long that ``frame.add_cells`` counts (``ingest_counts``).
Polarity is applied as a column is read. Any other file goes through
``csv.reader`` and ``_mapped_rows``, the one place that reports data
errors, into the same results. One leading UTF-8 byte order mark is
skipped on either path. The counting, and the count table's axis order,
are ``frame``'s alone. Nothing here needs numpy. ``csv`` is imported only
for a file that goes through its reader.
"""

from __future__ import annotations

import io

from .frame import (
    BLOCK, AuditFrame, FlipCounts, Record, ValidationError, add_cells, encoding_error,
)

_BOM = "\ufeff"
_BARE = {"0": 0, "1": 1}
_ONE_AS_ZERO = bytes.maketrans(b"1", b"0")
# By polarity, the label a cell ("0", "1") or raw value byte reads as, and the
# cell a label is written as: a 0 polarity reads and writes each v as 1 - v.
_LABEL = (bytes.maketrans(b"01\0\1", b"\1\0\1\0"), bytes.maketrans(b"01", b"\0\1"))
_CELL = (bytes.maketrans(b"\0\1", b"10"), bytes.maketrans(b"\0\1", b"01"))
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


def _frame(labels: tuple) -> AuditFrame:
    """The frame of ``_Columns``' labels, handed over as read-only views of its columns."""
    views = {id(col): memoryview(col).toreadonly() for col in labels if col is not None}
    return AuditFrame(*[views.get(id(col)) for col in labels])


def ingest_rows(rows, mapping: ColumnMapping) -> AuditFrame:
    """The frame of ``rows``, a ``csv.reader`` or any iterable of cell lists."""
    return _frame(_read_rows(rows, mapping, _Columns.of_rows))


def _polarity(mapping: ColumnMapping, name: str) -> int:
    """The raw value of column ``name`` that reads as 1."""
    return mapping.privileged if name == mapping.group_col else mapping.favorable


def _packed(cells, mapping: ColumnMapping):
    """The label columns, by name, of ``_mapped_rows``' cells, packed ``BLOCK`` rows at a time."""
    from itertools import chain, islice

    names = mapping.columns()
    while block := bytes(chain.from_iterable(islice(cells, BLOCK))):
        yield {name: block[j::len(names)].translate(_LABEL[_polarity(mapping, name)])
               for j, name in enumerate(names)}


class _Columns:
    """Copies each block's mapped columns into n-long 0/1 ``bytearray`` columns; gives them.

    Column ``name`` of a block of rows ``row_len`` bytes long is the strided slice from
    ``offsets[name]``, which one ``bytes.translate`` turns into labels of its polarity.
    """

    def __init__(self, mapping: ColumnMapping, n: int, row_len: int, offsets: dict[str, int]):
        self.mapping, self.row_len, self.offsets = mapping, row_len, offsets
        self.columns = {name: bytearray(n) for name in mapping.columns()}

    def add(self, first: int, buffer: bytearray, length: int):
        for name, col in self.columns.items():
            cells = buffer[self.offsets[name]:length:self.row_len]
            col[first:first + len(cells)] = cells.translate(_LABEL[_polarity(self.mapping, name)])

    def result(self):
        return self.labels(self.mapping, self.columns)

    @classmethod
    def of_rows(cls, cells, mapping: ColumnMapping):
        """The labels of ``_mapped_rows``' cells."""
        columns = {name: bytearray() for name in mapping.columns()}
        for block in _packed(cells, mapping):
            for name, col in block.items():
                columns[name] += col
        return cls.labels(mapping, columns)

    @staticmethod
    def labels(mapping: ColumnMapping, columns: dict) -> tuple:
        """The columns by name as (pred, corr, group, true): an unmapped corr is pred."""
        pred = columns[mapping.pred_col]
        return (pred, columns.get(mapping.corr_col, pred), columns[mapping.group_col],
                columns.get(mapping.true_col))


class _Counts(_Columns):
    """``_Columns`` one block long, whose labels ``add_cells`` counts; gives the table.

    Nothing here grows with n.
    """

    def __init__(self, mapping: ColumnMapping, n=0, row_len=0, offsets=None):
        super().__init__(mapping, min(n, BLOCK), row_len, offsets)
        self.block, self.cells = self.labels(mapping, self.columns), [0] * 16

    def add(self, first: int, buffer: bytearray, length: int):
        super().add(0, buffer, length)
        self.cells = add_cells(self.cells, self.block, 0, -(-length // self.row_len))

    def result(self) -> FlipCounts:
        return FlipCounts.of_cells(self.cells)

    @classmethod
    def of_rows(cls, cells, mapping: ColumnMapping) -> FlipCounts:
        """The count table of ``_mapped_rows``' cells, counted as they are checked."""
        into = cls(mapping)
        for block in _packed(cells, mapping):
            into.cells = add_cells(into.cells, cls.labels(mapping, block), 0,
                                   len(block[mapping.pred_col]))
        return into.result()


def _ingest_strict(fh, mapping: ColumnMapping, sink) -> tuple | FlipCounts | None:
    """A file of bare 0/1 cells, read in blocks of rows into ``sink``; None for any other file.

    ``fh`` is a seekable binary file at its start. ``sink`` is ``_Columns``,
    which gives its label columns, or ``_Counts``, which gives its count
    table. The file is taken only when ``ingest_rows`` would read it the same
    way: an ASCII header with no quote, stray CR or NUL, then rows of exactly
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


def _check_utf8(fh) -> None:
    """Fail ``bad_encoding``, naming its row, at the first byte of ``fh`` that is not UTF-8.

    A failing decode's bytes are those held back (never a newline), then its block.
    """
    import codecs

    decoder = codecs.getincrementaldecoder("utf-8")()
    row, block = 1, None  # the row at the start of the block
    while block != b"":
        block = fh.read(BLOCK)
        try:
            decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:
            raise encoding_error("row", row + exc.object.count(b"\n", 0, exc.start), exc) from None
        row += block.count(b"\n")


def _ingest(path, mapping: ColumnMapping, sink) -> tuple | FlipCounts:
    """``_ingest_strict(file, mapping, sink)``, or ``sink.of_rows`` of the file's rows.

    A file the strict path declines is checked for UTF-8, a block at a
    time, and read again through ``csv.reader``, decoded as it is read. An
    input that cannot seek, such as a pipe, is read whole first.
    """
    try:
        with open(path, "rb") as fh:
            source = fh if fh.seekable() else io.BytesIO(fh.read())
            result = _ingest_strict(source, mapping, sink)
            if result is not None:
                return result
            source.seek(0)
            _check_utf8(source)
            source.seek(0)
            import csv

            text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
            return _read_rows(csv.reader(text), mapping, sink.of_rows)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", code="unreadable")


def ingest(path, mapping: ColumnMapping | None = None) -> AuditFrame:
    """Read a header-bearing UTF-8 CSV file into a validated frame.

    A file of bare 0/1 cells is read in blocks of rows, so its bytes are
    never all in memory; any other file is read again through
    ``csv.reader``. An input that cannot seek, such as a pipe, is read
    whole first.
    """
    return _frame(_ingest(path, mapping or ColumnMapping(), _Columns))


def ingest_columns(path, mapping: ColumnMapping) -> tuple:
    """``ingest``'s labels (pred, corr, group, true) as the 0/1 ``bytearray`` columns it views."""
    return _ingest(path, mapping, _Columns)


def ingest_counts(path, mapping: ColumnMapping | None = None) -> FlipCounts:
    """``ingest(path, mapping).counts()``, holding no vector as long as the file.

    Label columns are counted a block of rows at a time, as they are read and
    checked, so a seekable file is counted in memory that does not grow with
    its rows, and every error keeps its code, message and order.
    """
    return _ingest(path, mapping or ColumnMapping(), _Counts)


def columns_to_csv_blocks(labels, favorable: int, privileged: int, flips=()):
    """The bytes of 0/1 byte columns (pred, corr, group, true) in the canonical layout.

    A column is bytes-like, one 0/1 byte a row; a true of None is left
    out; each (value, rows) of ``flips``, rows in order, sets corr to value
    in those rows, so corr may be pred, uncopied. They come as the header and
    then blocks of up to ``BLOCK`` rows, views of one reused buffer, so each is
    valid only until the next is drawn: write it, or copy it, first. The labels
    are written in the raw polarity ``ColumnMapping`` reads with the same
    ``favorable``, and the group in that of ``privileged``: a 0 writes v as 1 - v.
    """
    named = [(name, memoryview(col), _CELL[polarity])
             for name, col, polarity in zip(("pred", "corr", "group", "true"), labels,
                                            (favorable, favorable, privileged, favorable))
             if col is not None]
    yield (",".join(name for name, _, _ in named) + "\n").encode("ascii")
    n, width = len(named[0][1]), 2 * len(named)
    pending = [(next(rows, n), rows, _CELL[favorable][value]) for value, rows in flips]
    buffer = bytearray(b",".join([b"0"] * len(named)) + b"\n")
    buffer *= min(n, BLOCK)  # in place: no second copy of the block's bytes
    for start in range(0, n, BLOCK):
        end = min(n, start + BLOCK)
        size = width * (end - start)
        for j, (_, col, cells) in enumerate(named):
            buffer[2 * j:size:width] = bytes(col[start:end]).translate(cells)
        for i, (row, rows, cell) in enumerate(pending):
            while row < end:  # corr's cell in each of the kind's rows in the block
                buffer[2 + width * (row - start)] = cell
                row = next(rows, n)
            pending[i] = row, rows, cell
        yield memoryview(buffer)[:size]


def frame_to_csv_blocks(frame: AuditFrame, favorable: int = 1, privileged: int = 1):
    """``columns_to_csv_blocks`` of the frame's labels: (pred, corr, group[, true])."""
    labels = (frame.y_predicted, frame.y_corrected, frame.group, frame.y_true)
    return columns_to_csv_blocks(labels, favorable, privileged)


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
