"""Validated label columns, and the count table an audit reads from them.

A label column is 0/1 bytes, one a row; a frame holds read-only memoryviews.
``add_cells`` is the one counter of every table: it adds aligned columns' flat
cells, a block of rows at a time, and ``FlipCounts.of_cells`` nests them, so
only this module knows the table's axis order. numpy is imported only to check
labels that are not a list, a tuple or a C-contiguous buffer of 1-byte labels.
"""

from __future__ import annotations

import math
import numbers
from functools import reduce
from itertools import product
from operator import and_

UNPRIVILEGED = 0
PRIVILEGED = 1
# The axes of a count table, in the order its cells are nested.
AXES = ("group", "pred", "corr", "true")

# Rows (or values) a pass over a long vector handles at a time. Every pass
# that would otherwise make a temporary as long as the data works in blocks
# of this size, so its scratch memory does not grow with n.
BLOCK = 1 << 16
_BAD_BYTE = bytes([0, 0] + [1] * 254)  # 1 at each byte that is not a 0/1 label


class ValidationError(ValueError):
    """The package's one error: bad input, config or output, or a repair out of reach.

    ``code`` is a stable machine-readable identifier so callers (notably the
    CLI) can distinguish failure modes without parsing the message.
    """

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


class Record:
    """A frozen record whose fields are its class's annotations, in order.

    It behaves as a frozen dataclass does, but costs nothing at import: the
    dataclass module loads ``inspect`` (about 13 ms of every launch) and
    builds each class's methods with ``exec`` (about 1.3 ms a class). An
    annotated class attribute is its field's default. ``__init__`` binds
    arguments as a signature of the fields would, then calls
    ``__post_init__``; fields are read-only. Equality and hashing are over
    the tuple of fields; a class that sets ``__hash__ = None`` is unhashable.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {key: cls.__dict__[key] for key in cls._fields if key in cls.__dict__}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        positional = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in positional:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = {**self._defaults, **positional, **kwargs}
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        for key in fields:
            object.__setattr__(self, key, values[key])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return {key: getattr(self, key) for key in self._fields}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


def encoding_error(unit: str, number: int, exc: UnicodeDecodeError) -> ValidationError:
    """The ``bad_encoding`` error of ``exc``'s bad byte, on ``unit`` ``number``."""
    byte = exc.object[exc.start]
    return ValidationError(f"{unit} {number}: byte {byte:#04x} is not valid UTF-8", "bad_encoding")


def decode_utf8(data: bytes, unit: str = "line") -> str:
    """The text of UTF-8 ``data`` less one leading BOM; a bad byte fails naming its ``unit``."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise encoding_error(unit, data.count(b"\n", 0, exc.start) + 1, exc) from None


def read_text(path) -> str:
    """``decode_utf8`` of the file at ``path``; failing to read it is ``unreadable``."""
    try:
        with open(path, "rb") as fh:
            return decode_utf8(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", code="unreadable") from None


def check_seed(seed, code: str) -> None:
    """Fail with ``code`` unless ``seed`` is a non-negative integer, numpy's included."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}", code=code)


def real_or_nan(value) -> float:
    """``value`` as a float if it is a real number (numpy's included) a float holds, else nan.

    Every bound the package is given (epsilon, fair interval, thresholds)
    is checked through it, so a string or a huge int fails its check
    instead of raising ``TypeError`` or ``OverflowError``.
    """
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def _not_binary(name: str, row: int, value) -> ValidationError:
    return ValidationError(f"{name}[{row}] = {value} is not a binary value (expected 0 or 1)",
                           code="non_binary")


def _list_bytes(values, name: str) -> bytes:
    """A list or tuple of integer-valued numbers as bytes; else its error, in numpy's order."""
    try:
        return bytes(values)  # ints from 0 to 255, bools and numpy's included
    except (TypeError, ValueError):
        pass
    if any(isinstance(v, (list, tuple)) or getattr(v, "ndim", 0) for v in values):
        raise ValidationError(f"{name} must be one-dimensional", code="bad_shape")
    if not all(hasattr(v, "real") and not isinstance(v, (str, bytes)) for v in values):
        raise ValidationError(f"{name} contains non-numeric values", code="non_binary")
    ints = [int(v.real) if v.real % 1 == 0 == v.imag else None for v in values]
    if None in ints:
        row = ints.index(None)
        raise ValidationError(f"{name}[{row}] = {values[row]!r} is not an integer label",
                              code="non_binary")
    bad = [row for row, v in enumerate(ints) if v not in (0, 1)]
    if bad:
        raise _not_binary(name, bad[0], ints[bad[0]])
    return bytes(ints)


def _array_labels(values, name: str):
    """Array-like 0/1 ``values`` as a read-only ``uint8`` array; else ``_list_bytes`` of them."""
    import numpy as np

    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional", code="bad_shape")
    # Native bool or integer values are 0/1 if, read as unsigned, none is above 1.
    dtype = arr.dtype
    native = dtype.kind in "biu" and dtype.isnative
    if not (arr.view(f"u{dtype.itemsize}").max(initial=0) <= 1 if native
            else ((arr == 0) | (arr == 1)).all()):
        return _list_bytes(list(arr), name)  # its values, numpy's scalars, checked one by one
    labels = arr.astype(np.uint8)
    labels.setflags(write=False)
    return labels


def _as_binary_vector(values, name: str) -> memoryview:
    """``values`` as a read-only memoryview of format ``B``: one 0/1 byte a row.

    A list or tuple is checked in Python, and a C-contiguous buffer of 1-byte
    labels with ``bytes.translate``, a ``BLOCK`` at a time; anything else is
    converted by numpy (``_array_labels``). ``bytes``, a read-only memoryview
    and a read-only array that owns its data cannot change under the frame,
    so they are shared; any other buffer is copied once.
    """
    if isinstance(values, (list, tuple)):
        values = _list_bytes(values, name)
    try:
        view = memoryview(values)
    except (TypeError, ValueError):
        view = None
    if (view is None or view.ndim != 1 or not view.c_contiguous
            or view.format not in ("B", "b", "?")):
        values = _array_labels(values, name)
        view = memoryview(values)
    if not view:
        raise ValidationError(f"{name} is empty", code="empty")
    for start in range(0, len(view), BLOCK):
        bad = view[start:start + BLOCK].tobytes().translate(_BAD_BYTE).find(1)
        if bad >= 0:
            raise _not_binary(name, start + bad, view[start + bad])
    if view.readonly and getattr(getattr(values, "flags", None), "owndata", True):
        return values if type(values) is memoryview and values.format == "B" else view.cast("B")
    return memoryview(view.tobytes())


def add_cells(cells: list[int], labels, start: int, stop: int) -> list[int]:
    """``cells`` plus the flat cells of rows ``start`` to ``stop`` of ``labels``.

    ``labels`` are aligned 0/1 byte columns (pred, corr, group, true); a
    true of None is left out. Cell i counts the rows whose (group, pred,
    corr[, true]) labels, read as bits with the first highest, spell i;
    ``cells`` starts as ``[0] * 16``, which the sum cuts to 8 cells without
    true labels. A column's rows are one big int, a byte a row, so
    ``int.bit_count`` of an AND of columns counts the rows where all of them
    are 1; Möbius inversion over the subsets of columns gives the rows where
    exactly they are. A corr that is pred itself is counted once, and its
    rows go in the cells where corr equals pred. Nothing here grows with n.
    """
    pred, corr, group, true = labels
    columns = [group, pred] + [corr] * (corr is not pred) + [true] * (true is not None)
    # Bit b of a subset's index: the b-th column from the last.
    columns = [int.from_bytes(memoryview(col)[start:stop], "big")
               for col in reversed(columns)]
    found = [stop - start]  # found[s]: rows in which every column of subset s is 1
    for subset in range(1, 1 << len(columns)):
        found.append(reduce(and_, [col for bit, col in enumerate(columns)
                                   if subset >> bit & 1]).bit_count())
    for bit in range(len(columns)):
        for subset in range(len(found)):
            if not subset >> bit & 1:
                found[subset] -= found[subset | 1 << bit]
    if corr is pred:
        # Cell i of (group, pred, corr[, true]) is cell (group, pred[, true]) of
        # found where its corr bit equals its pred bit, and 0 where they differ.
        t = int(true is not None)
        found = [found[i >> 1 + t << t | i & t] if (i >> t & 1) == (i >> 1 + t & 1) else 0
                 for i in range(2 * len(found))]
    return [total + count for total, count in zip(cells, found)]


def column_counts(pred, corr, group, true) -> FlipCounts:
    """The count table of aligned 0/1 byte columns; ``true`` may be None."""
    cells, n = [0] * 16, len(group)
    for start in range(0, n, BLOCK):
        cells = add_cells(cells, (pred, corr, group, true), start, min(n, start + BLOCK))
    return FlipCounts.of_cells(cells)


def _cells(table):
    """The cells of ``table``, nested sequences of ints, in order."""
    if isinstance(table, int):
        yield table
    else:
        for part in table:
            yield from _cells(part)


def _nested(cells: list):
    """Flat ``cells``, 2**d of them, as d levels of nested pairs in tuples; d = 0 gives the cell."""
    while len(cells) > 1:
        cells = [tuple(cells[i:i + 2]) for i in range(0, len(cells), 2)]
    return cells[0]


def _pairs(value, depth: int):
    """``value`` as ``depth`` levels of nested pairs of ints, in tuples; None if it is not."""
    if depth == 0:
        is_int = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        return int(value) if is_int else None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        return None
    pair = tuple(_pairs(half, depth - 1) for half in value)
    return None if None in pair else pair


class FlipCounts(Record):
    """The count table every audit number is read from.

    ``table[g][p][c]`` (or ``table[g][p][c][t]`` with true labels) is the
    number of instances in group ``g`` with predicted label ``p``,
    corrected label ``c`` and true label ``t``: at most 16 cells, whatever
    the number of rows. It is given as nested lists or an integer array
    and held as nested tuples of Python ints, and both groups must have
    instances. Readers ask for the margin they need, by axis name, so only
    this class and ``add_cells`` know the axis order.
    """

    table: tuple

    def __post_init__(self):
        given, got = self.table, type(self.table).__name__
        if hasattr(given, "dtype"):  # an array: its cells as Python ints
            got = f"shape {given.shape} of {given.dtype}"
            given = given.tolist() if given.dtype.kind in "iu" else None
        table = _pairs(given, 3) or _pairs(given, 4)
        if table is None:
            raise ValidationError(f"counts must be a 2x2x2 or 2x2x2x2 integer table, got {got}",
                                  code="bad_counts")
        if min(_cells(table)) < 0:
            raise ValidationError("counts must not be negative", code="bad_counts")
        for gid in (UNPRIVILEGED, PRIVILEGED):
            if not any(_cells(table[gid])):
                raise ValidationError(f"group {gid} has no instances", code="missing_group")
        object.__setattr__(self, "table", table)

    @classmethod
    def of_cells(cls, cells: list[int]) -> FlipCounts:
        """The table of ``add_cells``' flat cells, 8 or 16, nested in the order of ``AXES``."""
        return cls(_nested(cells))

    @property
    def n(self) -> int:
        return self.margin()

    @property
    def has_true(self) -> bool:
        return not isinstance(self.table[0][0][0], int)

    def margin(self, *axes: str):
        """The table summed over every axis not in ``axes``, indexed in their order.

        ``margin("group", "corr")[g][c]`` counts the instances of group
        ``g`` with corrected label ``c``; ``margin()`` counts them all.
        Each axis is one of ``AXES``, ``"true"`` only when the table has
        true labels, and none may repeat.
        """
        names = AXES if self.has_true else AXES[:3]
        if len(set(axes)) != len(axes) or not set(axes) <= set(names):
            raise ValueError(f"margin axes must be distinct names from {names}, got {axes}")
        where = [names.index(axis) for axis in axes]
        sums = dict.fromkeys(product((0, 1), repeat=len(axes)), 0)
        for index, count in zip(product((0, 1), repeat=len(names)), _cells(self.table)):
            sums[tuple(index[i] for i in where)] += count
        return _nested(list(sums.values()))  # in the order of the nested table's cells


class AuditFrame(Record):
    """Aligned predicted/corrected labels plus group membership.

    Label encoding is strict: 1 is the favorable outcome, 0 the unfavorable
    one; group 1 is the privileged group, group 0 the unprivileged group.
    Anything outside {0, 1} is rejected rather than coerced, since silent
    coercion would corrupt every downstream count.

    Every label vector the package reads from outside is checked here: each
    must be binary, one-dimensional, non-empty and as long as ``y_predicted``;
    only ``y_true`` may be None. Each is held as a read-only memoryview of
    format ``B``, one 0/1 byte a row (``_as_binary_vector``); an object given
    under two names is checked and converted once, and both get the result.
    Frames are equal when their labels are, and are unhashable.
    """

    y_predicted: memoryview
    y_corrected: memoryview
    group: memoryview
    y_true: memoryview | None = None

    __hash__ = None

    def __post_init__(self):
        # Every vector is converted before any length is compared.
        checked = {}  # by id: the dict iterated keeps each given object alive
        for name, values in self._asdict().items():
            if values is not None or name != "y_true":  # only y_true may be None
                if id(values) not in checked:
                    checked[id(values)] = _as_binary_vector(values, name)
                object.__setattr__(self, name, checked[id(values)])
        for name, vec in self._asdict().items():
            if vec is not None and len(vec) != self.n:
                raise ValidationError(f"{name} has length {len(vec)}, expected {self.n}",
                                      code="length_mismatch")

    @property
    def n(self) -> int:
        return len(self.y_predicted)

    def counts(self) -> FlipCounts:
        """The frame's (group, pred, corr[, true]) count table."""
        return column_counts(self.y_predicted, self.y_corrected, self.group, self.y_true)

    def with_corrected(self, y_corrected) -> "AuditFrame":
        """A copy with ``y_corrected`` checked in; the other columns are shared as they are."""
        return AuditFrame(self.y_predicted, y_corrected, self.group, self.y_true)
