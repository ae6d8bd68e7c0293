"""The contract every ``frame.Record`` subclass keeps: a frozen dataclass's."""

import numpy as np
import pytest

from flipaudit.debias import Plan
from flipaudit.fairness import FairnessResult
from flipaudit.frame import AuditFrame, FlipCounts, Record, ValidationError
from flipaudit.metrics import MetricValue
from flipaudit.pipeline import Decision, PipelineOutcome
from flipaudit.report import MetricCell, ProportionalityReport
from flipaudit.scenario import GroupScenario, ScenarioSpec
from flipaudit.tabular import ColumnMapping
from flipaudit.thresholds import Band, ThresholdConfig, ThresholdEntry

TABLE = (((3, 1), (0, 2)), ((2, 0), (1, 4)))
VALUE = MetricValue("finite", 0.5, "Regular calculation")
FAIR = FairnessResult(0.05, None, (-0.1, 0.1), True, True, "")
REPORT = ProportionalityReport("1", {"total_samples": 13}, {"fr": MetricCell(VALUE, Band.MODERATE)},
                               FAIR, None, "ReviewRequired")

# Each record's arguments for one valid instance, every field given, in order.
ARGS = {
    FlipCounts: (TABLE,),
    AuditFrame: ([1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 1, 0]),
    MetricValue: ("finite", 0.5, "Regular calculation"),
    FairnessResult: (0.05, None, (-0.1, 0.1), True, True, "note"),
    ThresholdEntry: (0.0, 0.1, 0.3),
    ThresholdConfig: ({"FR": ThresholdEntry(0.0, 0.1, 0.3)},),
    MetricCell: (VALUE, Band.MODERATE),
    ProportionalityReport: ("1", {"total_samples": 13}, {}, FAIR, FAIR, "Proportionate"),
    GroupScenario: (5, 2, 1, 1),
    ScenarioSpec: (GroupScenario(5, 2, 1, 1), GroupScenario(4, 2, 0, 0), 3),
    ColumnMapping: ("p", "c", "g", "t", 0, 0),
    PipelineOutcome: (FAIR, FAIR, REPORT, Decision.FAIR_BUT_DISPROPORTIONATE),
    Plan: (FlipCounts(TABLE), ((1, 0), (0, 2))),
}
# The trailing fields that have defaults, and those defaults.
DEFAULTS = {
    AuditFrame: {"y_true": None},
    FairnessResult: {"note": ""},
    ScenarioSpec: {"seed": 0},
    ColumnMapping: {"pred_col": "pred", "corr_col": "corr", "group_col": "group",
                    "true_col": None, "favorable": 1, "privileged": 1},
}
# Records holding a dict, or comparing arrays, cannot be hashed.
UNHASHABLE = {AuditFrame, ThresholdConfig, ProportionalityReport, PipelineOutcome}
RECORDS = list(ARGS)


def make(record):
    return record(*ARGS[record])


def test_every_record_is_covered():
    assert set(Record.__subclasses__()) == set(RECORDS)
    assert len(RECORDS) == 13


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
class TestContract:
    def test_fields_follow_the_annotations(self, record):
        obj = make(record)
        assert len(record._fields) == len(ARGS[record])
        assert obj._asdict() == {key: getattr(obj, key) for key in record._fields}
        assert list(obj._asdict()) == list(record._fields)

    def test_positional_and_keyword_construction_agree(self, record):
        by_keyword = record(**dict(zip(record._fields, ARGS[record])))
        assert make(record) == by_keyword
        half = len(record._fields) // 2
        mixed = record(*ARGS[record][:half], **dict(zip(record._fields[half:],
                                                        ARGS[record][half:])))
        assert mixed == by_keyword

    def test_bad_arguments_raise_type_error(self, record):
        args, fields = ARGS[record], record._fields
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            record(*args, bogus=1)
        with pytest.raises(TypeError, match="positional arguments but"):
            record(*args, args[-1])
        with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
            record(*args, **{fields[0]: args[0]})
        required = [key for key in fields if key not in DEFAULTS.get(record, {})]
        if required:
            with pytest.raises(TypeError, match=f"missing required arguments: .*{required[-1]}"):
                record(**{key: value for key, value in zip(fields, args)
                          if key != required[-1]})

    def test_fields_are_read_only(self, record):
        obj = make(record)
        before = repr(obj)
        for key in record._fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{key}'"):
                setattr(obj, key, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{key}'"):
                delattr(obj, key)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert repr(obj) == before

    def test_defaults_apply(self, record):
        defaults = DEFAULTS.get(record, {})
        required = len(record._fields) - len(defaults)
        obj = record(*ARGS[record][:required])
        assert {key: getattr(obj, key) for key in defaults} == defaults

    def test_equality_and_hash_agree(self, record):
        first, second = make(record), make(record)
        assert first == second and not first != second
        assert first != ARGS[record] and first != object()
        if record in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)
            assert {first: 1}[second] == 1

    def test_repr_names_every_field(self, record):
        obj = make(record)
        values = {key: getattr(obj, key) for key in record._fields}
        # A memoryview field, a frame's label column, shows its labels.
        shown = ", ".join(f"{key}={value.tolist() if isinstance(value, memoryview) else value!r}"
                          for key, value in values.items())
        assert repr(obj) == f"{record.__name__}({shown})"


@pytest.mark.parametrize("record, args, code", [
    (FlipCounts, ((((1, 0), (0, 0)), ((0, 0), (0, 0))),), "missing_group"),
    (AuditFrame, ([1, 2], [1, 1], [0, 1]), "non_binary"),
    (ThresholdEntry, (0.0, 0.3, 0.1), "bad_thresholds"),
    (GroupScenario, (0, 0, 0, 0), "bad_scenario"),
    (ScenarioSpec, (GroupScenario(5, 2, 1, 1), GroupScenario(4, 2, 0, 0), -1), "bad_scenario"),
    (ColumnMapping, ("a", "a"), "bad_mapping"),
    (Plan, (FlipCounts(TABLE), ((1, 3), (0, 0))), "bad_plan"),
], ids=lambda case: getattr(case, "__name__", None))
def test_post_init_still_validates(record, args, code):
    with pytest.raises(ValidationError) as exc:
        record(*args)
    assert exc.value.code == code


def test_unequal_fields_unequal_records():
    assert ThresholdEntry(0.0, 0.1, 0.3) != ThresholdEntry(0.0, 0.1, 0.4)
    assert GroupScenario(5, 2, 1, 1) != GroupScenario(5, 2, 1, 0)
    assert ColumnMapping() != ColumnMapping(true_col="t")


def test_repr_has_the_dataclass_form():
    spec = ScenarioSpec(GroupScenario(5, 2, 1, 1), GroupScenario(4, 2, 0, 0))
    assert repr(spec) == (
        "ScenarioSpec(group0=GroupScenario(size=5, positive_predictions=2, favorable_flips=1, "
        "unfavorable_flips=1), group1=GroupScenario(size=4, positive_predictions=2, "
        "favorable_flips=0, unfavorable_flips=0), seed=0)"
    )


def test_audit_frame_repr_shows_its_labels():
    frame = AuditFrame(b"\1\0", [1, 1], np.array([0, 1]))
    assert repr(frame) == ("AuditFrame(y_predicted=[1, 0], y_corrected=[1, 1], group=[0, 1], "
                           "y_true=None)")


def test_audit_frame_compares_labels_and_is_unhashable():
    # Record's equality compares the frames' read-only byte views by content.
    frame = AuditFrame([1, 0, 1], [1, 1, 0], [0, 1, 1])
    assert frame == AuditFrame(np.array([1, 0, 1]), (1, 1, 0), np.array([0, 1, 1], np.int8))
    assert frame == AuditFrame(b"\1\0\1", bytearray(b"\1\1\0"), memoryview(b"\0\1\1"))
    assert all(isinstance(vec, memoryview) and vec.readonly and vec.format == "B"
               for vec in (frame.y_predicted, frame.y_corrected, frame.group))
    assert frame != AuditFrame([1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 1, 0])
    assert frame != frame.with_corrected([1, 1, 1])
    with pytest.raises(TypeError):
        hash(frame)
