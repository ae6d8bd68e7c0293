from functools import cache
from itertools import permutations

import numpy as np
import oracle
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import flip_summaries
from flipaudit import (
    AuditFrame,
    ValidationError,
    build_report,
    directional_flip_ratio,
    flip_rate,
    harmful_flip_proportion,
)
from flipaudit.frame import AXES, BLOCK, FlipCounts
from flipaudit.metrics import (
    NO_FLIPS,
    NO_HARMFUL,
    ONLY_BENEFICIAL,
    ONLY_HARMFUL,
    REGULAR,
)


class TestFlipDirections:
    def test_definitional_cases(self):
        # 1 -> 0 in group 0 is an unfavorable flip, 0 -> 1 in group 1 a favorable one.
        counts = build_report(AuditFrame([1, 0], [0, 1], [0, 1]).counts()).counts
        assert (counts["group0_flips"], counts["group0_harmful_flips"]) == (1, 1)
        assert (counts["group1_flips"], counts["group1_harmful_flips"]) == (1, 0)

    def test_identity_case(self):
        counts = build_report(AuditFrame([1, 1, 0], [1, 1, 0], [0, 1, 0]).counts()).counts
        assert (counts["total_flips"], counts["harmful_flips"]) == (0, 0)

    def test_reference_scenario_flip_placement(self, reference_frame):
        overall, group0, group1 = flip_summaries(reference_frame)
        assert (group0.n_unfavorable, group0.n_favorable) == (136, 0)
        assert (group1.n_favorable, group1.n_unfavorable) == (38, 0)
        assert overall.n_flips == 174


class TestFrameValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="y_corrected"):
            AuditFrame([1, 0], [1], [0, 1])

    def test_non_binary_names_index_and_column(self):
        with pytest.raises(ValidationError, match=r"group\[2\]"):
            AuditFrame([1, 0, 1], [1, 0, 1], [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            AuditFrame([], [], [])

    @pytest.mark.parametrize("group, code, message", [
        ([[0, 1], [1, 0]], "bad_shape", "group must be one-dimensional"),
        (["a", "b"], "non_binary", "group contains non-numeric values"),
    ], ids=["two_dimensional", "non_numeric"])
    def test_malformed_vector_rejected(self, group, code, message):
        with pytest.raises(ValidationError, match=message) as exc:
            AuditFrame([1, 0], [1, 0], group)
        assert exc.value.code == code

    @pytest.mark.parametrize("name", ["y_predicted", "y_corrected", "group"])
    def test_only_y_true_may_be_none(self, name):
        vectors = {"y_predicted": [1, 0, 1, 0], "y_corrected": [1, 1, 1, 0],
                   "group": [0, 1, 0, 1], "y_true": None}
        assert AuditFrame(**vectors).y_true is None
        with pytest.raises(ValidationError, match=f"{name} must be one-dimensional") as exc:
            AuditFrame(**{**vectors, name: None, "y_true": [0, 1, 0, 1]})
        assert exc.value.code == "bad_shape"

    def test_no_float_coercion(self):
        with pytest.raises(ValidationError):
            AuditFrame([1.0, 0.5], [1, 0], [0, 1])

    def test_read_only_owning_vector_still_checked(self):
        group = np.array([0, 1, 2], dtype=np.int64)
        group.setflags(write=False)
        with pytest.raises(ValidationError, match=r"group\[2\]") as exc:
            AuditFrame([1, 0, 1], [1, 0, 1], group)
        assert exc.value.code == "non_binary"

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("index", [0, 3, 6])
    @pytest.mark.parametrize("value", [-1, 2, np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    def test_int64_out_of_range_names_first_index(self, value, index, frozen):
        group = np.array([0, 1, 0, 1, 0, 1, 0], dtype=np.int64)
        group[index] = value
        group[index + 1:] = 5  # later bad values must not be the one reported
        group.setflags(write=not frozen)
        pred = np.ones(group.size, dtype=np.int64)
        with pytest.raises(ValidationError) as exc:
            AuditFrame(pred, pred, group)
        assert exc.value.code == "non_binary"
        assert str(exc.value) == (
            f"group[{index}] = {value} is not a binary value (expected 0 or 1)"
        )

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("index", [0, 3, 6])
    @pytest.mark.parametrize("dtype, value", [
        (np.int8, -1), (np.int8, 2), (np.int8, -128), (np.int8, 127),
        (np.uint8, 2), (np.uint8, 255),
        (np.int32, -1), (np.int32, 2), (np.int32, np.iinfo(np.int32).min),
        (np.int32, np.iinfo(np.int32).max),
    ])
    def test_narrow_int_out_of_range_names_first_index(self, dtype, value, index, frozen):
        group = np.array([0, 1, 0, 1, 0, 1, 0], dtype=dtype)
        group[index] = value
        group[index + 1:] = 5  # later bad values must not be the one reported
        group.setflags(write=not frozen)
        pred = np.ones(group.size, dtype=dtype)
        with pytest.raises(ValidationError) as exc:
            AuditFrame(pred, pred, group)
        assert exc.value.code == "non_binary"
        assert str(exc.value) == (
            f"group[{index}] = {value} is not a binary value (expected 0 or 1)"
        )

    @pytest.mark.parametrize("values", [
        [1, 0, 1], [True, False, True], np.array([1, 0, 1], np.uint16),
        np.array([1, 0, 1], np.int64), np.array([1.0, 0.0, 1.0]),
        np.array([1, 0, 1, 1], np.int8)[::-1][1:],
    ], ids=["list", "bool", "uint16", "int64", "float", "int8_view"])
    def test_vectors_are_read_only_byte_views(self, values):
        frame = AuditFrame(values, values, [0, 1, 0], values)
        other = frame.with_corrected(values)
        for vec in (frame.y_predicted, frame.y_corrected, frame.group, frame.y_true,
                    other.y_corrected):
            assert isinstance(vec, memoryview) and vec.readonly and vec.format == "B"
        assert frame.y_predicted.tolist() == [1, 0, 1]
        # numpy reads a frame's column as a zero-copy, read-only uint8 array.
        array = np.asarray(frame.y_predicted)
        assert array.dtype == np.uint8 and not array.flags.writeable
        assert np.shares_memory(array, np.asarray(frame.y_predicted))

    def test_big_endian_checked_by_value(self):
        # Big-endian 1 << 56 has the bytes of a native 1; big-endian 1 does not.
        group = np.array([0, 1, 0], dtype=">i8")
        assert AuditFrame(group, group, group).group.tolist() == [0, 1, 0]
        group[1] = 1 << 56
        with pytest.raises(ValidationError) as exc:
            AuditFrame([1, 0, 1], [1, 0, 1], group)
        assert str(exc.value) == (
            f"group[1] = {1 << 56} is not a binary value (expected 0 or 1)"
        )

    def test_frozen_owning_int8_shared(self):
        pred = np.array([1, 0, 1], dtype=np.int8)
        pred.setflags(write=False)
        frame = AuditFrame(pred, pred, [0, 1, 0])
        assert frame.y_predicted.obj is pred and frame.y_corrected is frame.y_predicted
        assert frame.with_corrected(pred).y_corrected.obj is pred
        assert frame.y_predicted.readonly and frame.y_predicted.format == "B"
        assert frame.y_predicted.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("kind, shared", [
        ("bytes", True), ("read-only memoryview", True), ("frozen owning int8", True),
        ("bytearray", False), ("writable int8", False), ("int8 view", False),
        ("read-only view of a writable int8", False), ("int64", False),
    ])
    def test_sharing_rule(self, kind, shared):
        # What cannot change under the frame is shared as given; anything else
        # is copied once, so writing to it later leaves the frame as it was.
        labels = [1, 0, 1, 1]
        given = {
            "bytes": lambda: bytes(labels),
            "read-only memoryview": lambda: memoryview(bytearray(labels)).toreadonly(),
            "frozen owning int8": lambda: np.array(labels, np.int8),
            "bytearray": lambda: bytearray(labels),
            "writable int8": lambda: np.array(labels, np.int8),
            "int8 view": lambda: np.repeat(np.array(labels, np.int8), 2)[::2],
            "read-only view of a writable int8": lambda: np.array(labels, np.int8)[:],
            "int64": lambda: np.array(labels),
        }[kind]()
        if kind in ("frozen owning int8", "read-only view of a writable int8"):
            given.setflags(write=False)
        frame = AuditFrame(given, labels, [0, 1, 0, 1])
        column = frame.y_predicted
        assert column.readonly and column.format == "B" and column.tolist() == labels
        owner = given.obj if isinstance(given, memoryview) else given
        assert (column.obj is owner) == shared
        if not shared:
            writable = given if getattr(given, "base", None) is None else given.base
            writable[0] = 0  # the caller writes what it gave, or the array under it
            assert column.tolist() == labels

    @pytest.mark.parametrize("values, code, message", [
        ([1, 0.5, 2], "non_binary", "y_predicted[1] = 0.5 is not an integer label"),
        # The first non-integer is reported before an earlier non-binary value.
        ([2, 1.0, 0.5], "non_binary", "y_predicted[2] = 0.5 is not an integer label"),
        ([1.0, 300, 2], "non_binary",
         "y_predicted[1] = 300 is not a binary value (expected 0 or 1)"),
        ((1, 10**30), "non_binary", f"y_predicted[1] = {10**30} is not a binary value "
                                    "(expected 0 or 1)"),
        ([1, "a"], "non_binary", "y_predicted contains non-numeric values"),
        ([[1], [0]], "bad_shape", "y_predicted must be one-dimensional"),
        # A numpy array that is not 0/1 integers is checked value by value, as
        # its numpy scalars: their reprs are kept.
        (np.array([1.0, 0.25]), "non_binary", "y_predicted[1] = np.float64(0.25) is not an "
                                              "integer label"),
        (np.array([1, 7]), "non_binary", "y_predicted[1] = 7 is not a binary value "
                                         "(expected 0 or 1)"),
    ], ids=["half", "half_after_two", "300", "huge", "string", "nested", "float64", "int64"])
    def test_errors_keep_numpys_order(self, values, code, message):
        with pytest.raises(ValidationError) as exc:
            AuditFrame(values, [1, 0], [0, 1])
        assert (exc.value.code, str(exc.value)) == (code, message)

    @pytest.mark.parametrize("kind", ["list", "int64"])
    def test_vector_given_twice_checked_once(self, kind):
        pred = [1, 0, 1, 1] if kind == "list" else np.array([1, 0, 1, 1])
        frame = AuditFrame(pred, pred, [0, 1, 0, 1])
        assert frame.y_predicted is frame.y_corrected
        assert frame.y_predicted.tolist() == [1, 0, 1, 1]

    def test_vector_given_twice_copied_once(self, traced_peak):
        pred, group = np.random.default_rng(0).integers(0, 2, size=(2, 1_000_000))
        frame, peak = traced_peak(AuditFrame, pred, pred, group)
        assert frame.y_predicted is frame.y_corrected
        assert peak < 2.5 * frame.n  # one int8 copy each of pred and group

    def test_writable_int8_copied(self):
        pred = np.array([1, 0, 1], dtype=np.int8)
        frame = AuditFrame(pred, pred, [0, 1, 0])
        pred[0] = 0
        assert frame.y_predicted.tolist() == [1, 0, 1]
        assert frame.y_predicted.obj is not pred and frame.y_predicted.readonly
        assert frame.y_predicted.format == "B"

    def test_writable_vector_copied(self):
        pred = np.array([1, 0, 1], dtype=np.int64)
        frame = AuditFrame(pred, [1, 0, 1], [0, 1, 0])
        pred[0] = 0
        assert frame.y_predicted.tolist() == [1, 0, 1]

    def test_with_corrected_shares_validated_vectors(self):
        frame = AuditFrame([1, 0, 1], [1, 0, 1], [0, 1, 0], [0, 0, 1])
        other = frame.with_corrected([0, 0, 1])
        assert other.y_predicted is frame.y_predicted
        assert other.group is frame.group
        assert other.y_true is frame.y_true


class TestFlipRate:
    def test_reference_value(self):
        mv = flip_rate(174, 1320)
        assert mv.value == pytest.approx(174 / 1320)
        assert round(mv.value, 2) == 0.13
        assert mv.annotation == REGULAR

    def test_no_flips(self):
        mv = flip_rate(0, 10)
        assert mv.value == 0.0
        assert mv.annotation == NO_FLIPS

    def test_all_flipped_boundary(self):
        assert flip_rate(10, 10).value == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            flip_rate(0, 0)


class TestDirectionalFlipRatio:
    def test_reference_value(self):
        mv = directional_flip_ratio(38, 136)
        assert mv.value == pytest.approx(38 / 136)
        assert round(mv.value, 2) == 0.28

    def test_only_beneficial(self):
        mv = directional_flip_ratio(38, 0)
        assert mv.is_infinite
        assert mv.annotation == ONLY_BENEFICIAL

    def test_only_harmful(self):
        mv = directional_flip_ratio(0, 136)
        assert mv.value == 0.0
        assert mv.annotation == ONLY_HARMFUL

    def test_absence_of_flips(self):
        mv = directional_flip_ratio(0, 0)
        assert mv.value == 1.0
        assert mv.annotation == NO_FLIPS


class TestHarmfulFlipProportion:
    def test_reference_value(self):
        mv = harmful_flip_proportion(136, 174)
        assert mv.value == pytest.approx(136 / 174)
        assert round(mv.value, 2) == 0.78
        assert mv.annotation == REGULAR

    def test_only_harmful(self):
        mv = harmful_flip_proportion(136, 136)
        assert mv.value == 1.0
        assert mv.annotation == ONLY_HARMFUL

    def test_no_harmful(self):
        mv = harmful_flip_proportion(0, 38)
        assert mv.value == 0.0
        assert mv.annotation == NO_HARMFUL

    def test_no_flips_convention(self):
        mv = harmful_flip_proportion(0, 0)
        assert mv.value == 0.0
        assert mv.annotation == NO_FLIPS


class TestSummarizeCounts:
    def test_reference_overall(self, reference_frame):
        s, _, _ = flip_summaries(reference_frame)
        assert s.n_flips == 174
        assert s.flip_rate.value == pytest.approx(0.1318, abs=1e-4)
        assert s.hfp.value == pytest.approx(0.782, abs=1e-3)

    def test_reference_group1(self, reference_frame):
        _, _, s = flip_summaries(reference_frame)
        assert s.n_flips == 38
        assert s.flip_rate.value == pytest.approx(0.0729, abs=1e-4)

    def test_identity(self, identity_frame):
        s, _, _ = flip_summaries(identity_frame)
        assert s.n_flips == 0
        assert s.dfr.value == 1.0
        assert s.hfp.value == 0.0


# Each kind of label input a frame takes, made from a 0/1 int64 vector.
INPUTS = {
    "list": lambda bits: bits.tolist(),
    "bool": lambda bits: bits.astype(bool),
    "int64": lambda bits: bits,
    "int8": lambda bits: bits.astype(np.int8),
}


@cache
def labels_and_table(n, with_true):
    """Random (pred, corr, group, true) vectors of length n, and their oracle count table."""
    pred, corr, group, true = np.random.default_rng(n).integers(0, 2, size=(4, n))
    labels = (pred, corr, group, true if with_true else None)
    return labels, oracle.count_table(*(None if v is None else v.tolist() for v in labels))


@pytest.mark.parametrize("kind", list(INPUTS))
@pytest.mark.parametrize("with_true", [False, True])
@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, 2 * BLOCK + 1])
def test_frame_counts_match_the_oracle(n, with_true, kind):
    labels, table = labels_and_table(n, with_true)
    frame = AuditFrame(*(None if v is None else INPUTS[kind](v) for v in labels))
    assert frame.counts() == FlipCounts(table)


@pytest.mark.parametrize("with_true", [False, True])
@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, 2 * BLOCK + 1])
def test_pred_given_as_corr_is_counted_on_the_diagonal(n, with_true):
    # The frame holds one vector under both names, and its rows go in the
    # cells where corr equals pred, as a copy of pred counted on its own does.
    (pred, _, group, true), _ = labels_and_table(n, with_true)
    frame = AuditFrame(pred, pred, group, true)
    assert frame.y_corrected is frame.y_predicted
    counts = frame.counts()
    assert counts == FlipCounts(oracle.count_table(pred.tolist(), pred.tolist(), group.tolist(),
                                                   None if true is None else true.tolist()))
    assert counts == AuditFrame(pred, pred.copy(), group, true).counts()
    assert counts.margin("pred", "corr") == ((n - pred.sum(), 0), (0, pred.sum()))


def test_frame_counts_scratch_does_not_grow_with_rows(traced_peak):
    n = 1_000_000
    frame = AuditFrame(*np.random.default_rng(0).integers(0, 2, size=(4, n), dtype=np.int8))
    counts, peak = traced_peak(frame.counts)
    assert counts.n == n
    assert peak <= 2**20  # a block of each column as a big int, and its ANDs


class TestFlipCounts:
    def test_frame_counts_are_its_oracle_table(self):
        pred, corr, group, true = np.random.default_rng(7).integers(0, 2, size=(4, 500)).tolist()
        counts = AuditFrame(pred, corr, group).counts()
        assert counts == FlipCounts(oracle.count_table(pred, corr, group))
        assert (counts.n, counts.has_true) == (500, False)
        assert counts.margin("group", "pred", "corr") == counts.table
        with_true = AuditFrame(pred, corr, group, true).counts()
        assert with_true == FlipCounts(oracle.count_table(pred, corr, group, true))
        assert (with_true.n, with_true.has_true) == (500, True)
        assert with_true.margin("group", "pred", "corr") == counts.table

    @pytest.mark.parametrize("table", [
        np.ones((2, 2)), np.ones((2, 2, 3), int), np.ones((2,) * 5, int),
        np.ones((2, 2, 2)), np.ones((2, 2, 2), bool), np.ones((2, 2, 2), object),
        [[[1, 1], [1, "a"]]] * 2, [[[1, 1], [1, object()]]] * 2,
        [[[True, True], [True, False]]] * 2, [[[1, 1], [1, 1.0]]] * 2,
        [[[1, 1], [1, 1]]] * 2 + [[[1, 1], [1, 1]]], [[[1, 1], [1]]] * 2,
        [[[1, 1], [1, [1, 1]]]] * 2, "ab", None,
    ])
    def test_shape_and_dtype_checked(self, table):
        with pytest.raises(ValidationError, match="integer table") as exc:
            FlipCounts(table)
        assert exc.value.code == "bad_counts"

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int8, np.uint8])
    def test_integer_arrays_accepted(self, dtype):
        table = np.arange(1, 17, dtype=dtype).reshape((2,) * 4)
        assert FlipCounts(table) == FlipCounts(table.tolist())
        assert FlipCounts(table).n == 136

    def test_negative_count_rejected(self):
        table = np.ones((2, 2, 2, 2), int)
        table[1, 0, 1, 0] = -1
        with pytest.raises(ValidationError, match="negative") as exc:
            FlipCounts(table)
        assert exc.value.code == "bad_counts"

    @pytest.mark.parametrize("gid", [0, 1])
    def test_missing_group_message(self, gid):
        table = np.ones((2, 2, 2), int)
        table[gid] = 0
        with pytest.raises(ValidationError) as exc:
            FlipCounts(table)
        assert (exc.value.code, str(exc.value)) == ("missing_group",
                                                    f"group {gid} has no instances")
        # The frame's counts fail the same way.
        group = np.full(4, 1 - gid)
        with pytest.raises(ValidationError) as exc:
            AuditFrame([1, 0, 1, 0], [1, 0, 0, 0], group).counts()
        assert (exc.value.code, str(exc.value)) == ("missing_group",
                                                    f"group {gid} has no instances")

    @pytest.mark.parametrize("given", [
        np.arange(8, dtype=np.uint8).reshape(2, 2, 2),
        np.arange(8).reshape(2, 2, 2).tolist(),
        [[[0, np.int64(1)], (2, np.uint16(3))], [[4, 5], [6, 7]]],
    ])
    def test_table_is_an_immutable_copy_of_ints(self, given):
        counts = FlipCounts(given)
        if isinstance(given, np.ndarray):
            given[...] = 0
        else:
            given[0][0][0] = 9
        assert counts.table == (((0, 1), (2, 3)), ((4, 5), (6, 7)))

        def cells(table):
            assert type(table) is tuple and len(table) == 2
            for half in table:
                yield from [half] if type(half) is int else cells(half)

        assert list(cells(counts.table)) == list(range(8))
        assert hash(counts) == hash(FlipCounts(counts.table))

    def test_equality(self):
        table = np.arange(1, 9).reshape(2, 2, 2)
        assert FlipCounts(table) == FlipCounts(table.tolist())
        assert FlipCounts(table) != FlipCounts(table + 1)
        # Summing out the true labels gives equal cells but a different table.
        with_true = np.stack([table, np.zeros_like(table)], axis=-1)
        assert FlipCounts(with_true) != FlipCounts(table)


def _tuples(value):
    """``value``, nested lists of ints from ``ndarray.tolist``, as nested tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


@st.composite
def count_arrays(draw):
    """An 8- or 16-cell count table, as an array, whose groups both have instances."""
    shape = (2,) * draw(st.sampled_from([3, 4]))
    cells = draw(st.lists(st.integers(0, 10**6), min_size=2**len(shape),
                          max_size=2**len(shape)))
    table = np.array(cells, np.int64).reshape(shape)
    assume(table[0].any() and table[1].any())
    return table


class TestMargin:
    @given(count_arrays())
    def test_every_ordered_subset_of_axes_is_numpy_sum(self, table):
        counts = FlipCounts(table)
        names = AXES[:table.ndim]
        for size in range(len(names) + 1):
            for axes in permutations(names, size):
                order = [names.index(axis) for axis in axes]
                rest = [i for i in range(table.ndim) if i not in order]
                expected = table.transpose(order + rest).sum(axis=tuple(range(size, table.ndim)))
                assert counts.margin(*axes) == _tuples(expected.tolist()), axes
        assert counts.margin() == counts.n == table.sum()

    @pytest.mark.parametrize("ndim", [3, 4])
    @pytest.mark.parametrize("axes", [("group", "group"), ("pred", "corr", "pred"),
                                      ("label",), ("corr", "Group")])
    def test_repeated_or_unknown_axis_rejected(self, ndim, axes):
        with pytest.raises(ValueError, match="margin axes"):
            FlipCounts(np.ones((2,) * ndim, int)).margin(*axes)

    @pytest.mark.parametrize("axes", [("true",), ("group", "true", "corr")])
    def test_true_axis_needs_true_labels(self, axes):
        with pytest.raises(ValueError, match="margin axes"):
            FlipCounts(np.ones((2, 2, 2), int)).margin(*axes)
