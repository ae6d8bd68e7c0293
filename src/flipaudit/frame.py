"""Validated label vectors, and the count table an audit reads from them.

``add_cells`` is the one counter: it adds aligned 0/1 byte columns' flat
cells, a block of rows at a time, and ``FlipCounts.of_cells`` nests them.
A frame's counts and every table the CLI reads come from it, so only this
module knows the table's axis order. The count table is plain Python;
numpy is imported only where label vectors are made or read, so counting
and reporting do not load it.
"""

from __future__ import annotations

import math
import numbers
from functools import reduce
from itertools import product
from operator import and_
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

UNPRIVILEGED = 0
PRIVILEGED = 1
# The axes of a count table, in the order its cells are nested.
AXES = ("group", "pred", "corr", "true")

# Rows (or values) a pass over a long vector handles at a time. Every pass
# that would otherwise make a temporary as long as the data works in blocks
# of this size, so its scratch memory does not grow with n.
BLOCK = 1 << 16


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
    the tuple of fields, unless the class defines its own ``__eq__``, which
    leaves it unhashable.
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


def _as_binary_vector(values, name: str) -> np.ndarray:
    import numpy as np

    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional", code="bad_shape")
    if arr.size == 0:
        raise ValidationError(f"{name} is empty", code="empty")
    dtype = arr.dtype
    if dtype.kind in "biu" and dtype.isnative and arr.view(f"u{dtype.itemsize}").max() <= 1:
        # A bool or integer vector whose values read as unsigned are at most 1
        # (a negative one reads above it) is 0/1, so one range pass checks it.
        # A read-only int8 array that owns its data cannot change under the
        # frame, so it is not copied.
        if dtype != np.int8 or arr.flags.writeable or not arr.flags.owndata:
            arr = arr.astype(np.int8)
            arr.setflags(write=False)
        return arr
    try:
        as_int = arr.astype(np.int64)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} contains non-numeric values", code="non_binary")
    if not np.array_equal(as_int, arr):
        bad = int(np.nonzero(as_int != arr)[0][0])
        raise ValidationError(
            f"{name}[{bad}] = {arr[bad]!r} is not an integer label", code="non_binary"
        )
    bad_mask = (as_int != 0) & (as_int != 1)
    if bad_mask.any():
        bad = int(np.nonzero(bad_mask)[0][0])
        raise ValidationError(
            f"{name}[{bad}] = {as_int[bad]} is not a binary value (expected 0 or 1)",
            code="non_binary",
        )
    labels = as_int.astype(np.int8)
    labels.setflags(write=False)
    return labels


def add_cells(cells: list[int], labels, start: int, stop: int) -> list[int]:
    """``cells`` plus the flat cells of rows ``start`` to ``stop`` of ``labels``.

    ``labels`` are aligned 0/1 byte columns (pred, corr, group, true), each a
    ``bytearray`` or an ``int8`` vector; a true of None is left out. Cell i
    counts the rows whose (group, pred, corr[, true]) labels, read as bits
    with the first highest, spell i; ``cells`` starts as ``[0] * 16``, which
    the sum cuts to 8 cells without true labels. A column's rows are one big
    int, a byte a row, so ``int.bit_count`` of an AND of columns counts the
    rows where all of them are 1; Möbius inversion over the subsets of
    columns gives the rows where exactly they are. A corr that is pred
    itself is counted once, and its rows go in the cells where corr equals
    pred. Nothing here grows with n, and nothing needs numpy.
    """
    pred, corr, group, true = labels
    columns = [group, pred] + [corr] * (corr is not pred) + [true] * (true is not None)
    # Bit b of a subset's index: the b-th column from the last.
    columns = [int.from_bytes(memoryview(col).cast("B")[start:stop], "big")
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
    """The count table of aligned 0/1 ``bytearray`` or ``int8`` columns; ``true`` may be None."""
    cells, n = [0] * 16, len(memoryview(group).cast("B"))
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
        given = self.table
        if hasattr(given, "dtype"):  # an array: its cells as Python ints
            got = f"shape {given.shape} of {given.dtype}"
            given = given.tolist() if given.dtype.kind in "iu" else None
        else:
            got = type(given).__name__
        table = _pairs(given, 3) or _pairs(given, 4)
        if table is None:
            raise ValidationError(
                f"counts must be a 2x2x2 or 2x2x2x2 integer table, got {got}",
                code="bad_counts",
            )
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
    must be binary, one-dimensional, non-empty and as long as
    ``y_predicted``; only ``y_true`` may be None. An object given under two
    names is checked and converted once, and both get the result.
    """

    y_predicted: np.ndarray
    y_corrected: np.ndarray
    group: np.ndarray
    y_true: np.ndarray | None = None

    def __post_init__(self):
        # Every vector is converted before any length is compared.
        names = ("y_predicted", "y_corrected", "group", "y_true")
        given = [getattr(self, name) for name in names]  # alive, so their ids stay unique
        checked = {}
        for name, values in zip(names, given):
            if values is not None or name != "y_true":  # only y_true may be None
                if id(values) not in checked:
                    checked[id(values)] = _as_binary_vector(values, name)
                object.__setattr__(self, name, checked[id(values)])
        n = self.n
        for name in names:
            vec = getattr(self, name)
            if vec is not None and vec.size != n:
                raise ValidationError(
                    f"{name} has length {vec.size}, expected {n}", code="length_mismatch"
                )

    @property
    def n(self) -> int:
        return int(self.y_predicted.size)

    def __eq__(self, other) -> bool:
        import numpy as np

        if not isinstance(other, AuditFrame):
            return NotImplemented
        if not (
            np.array_equal(self.y_predicted, other.y_predicted)
            and np.array_equal(self.y_corrected, other.y_corrected)
            and np.array_equal(self.group, other.group)
        ):
            return False
        if (self.y_true is None) != (other.y_true is None):
            return False
        return self.y_true is None or np.array_equal(self.y_true, other.y_true)

    def counts(self) -> FlipCounts:
        """The frame's (group, pred, corr[, true]) count table."""
        return column_counts(self.y_predicted, self.y_corrected, self.group, self.y_true)

    def with_corrected(self, y_corrected) -> "AuditFrame":
        """Return a copy with a different corrected-label vector.

        The other vectors are shared, and so is ``y_corrected`` when it is a
        read-only int8 array that owns its data.
        """
        return AuditFrame(
            y_predicted=self.y_predicted,
            y_corrected=y_corrected,
            group=self.group,
            y_true=self.y_true,
        )
