import sys

import numpy as np
import pytest

from conftest import flip_summaries
from flipaudit import (
    GroupScenario,
    REFERENCE_EXAMPLE,
    ScenarioSpec,
    ValidationError,
    generate_scenario,
    sp_equalizing_debiaser,
)
from flipaudit.debias import check_options
from flipaudit.scenario import dumps_spec, load_spec, loads_spec

INT64_ROWS = sys.maxsize // 8  # the most rows an int64 array holds


def random_spec(rng) -> ScenarioSpec:
    def group():
        size = int(rng.integers(1, 40))
        pos = int(rng.integers(0, size + 1))
        return GroupScenario(
            size=size,
            positive_predictions=pos,
            favorable_flips=int(rng.integers(0, size - pos + 1)),
            unfavorable_flips=int(rng.integers(0, pos + 1)),
        )

    return ScenarioSpec(group0=group(), group1=group(), seed=int(rng.integers(0, 2**31)))


class TestGenerateScenario:
    def test_reference_example_totals(self, reference_frame):
        assert reference_frame.n == 1320
        assert flip_summaries(reference_frame)[0].n_flips == 174

    def test_zero_flip_spec_is_identity(self):
        spec = ScenarioSpec(
            group0=GroupScenario(5, 2, 0, 0),
            group1=GroupScenario(5, 3, 0, 0),
            seed=1,
        )
        frame = generate_scenario(spec)
        assert np.array_equal(frame.y_predicted, frame.y_corrected)

    def test_round_trip_on_random_specs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            spec = random_spec(rng)
            frame = generate_scenario(spec)
            _, group0, group1 = flip_summaries(frame)
            for g, spec_g in ((group0, spec.group0), (group1, spec.group1)):
                assert g.n == spec_g.size
                assert g.n_favorable == spec_g.favorable_flips
                assert g.n_unfavorable == spec_g.unfavorable_flips

    def test_deterministic_under_seed(self):
        a = generate_scenario(REFERENCE_EXAMPLE)
        b = generate_scenario(REFERENCE_EXAMPLE)
        assert a == b

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer") \
                as exc:
            ScenarioSpec(GroupScenario(5, 2, 0, 0), GroupScenario(5, 3, 0, 0), seed=seed)
        assert exc.value.code == "bad_scenario"

    @pytest.mark.parametrize("seed, accepted", [
        (0, True), (np.int64(3), True), (np.uint8(1), True), (True, True),
        (-1, False), (1.5, False), ("3", False),
    ])
    def test_scenario_and_debiaser_take_the_same_seeds(self, seed, accepted):
        def code(make):
            try:
                make()
            except ValidationError as exc:
                assert str(exc) == f"seed must be a non-negative integer, got {seed!r}"
                return exc.code
            return None

        groups = GroupScenario(5, 2, 0, 0), GroupScenario(5, 3, 0, 0)
        assert code(lambda: ScenarioSpec(*groups, seed=seed)) == (None if accepted
                                                                 else "bad_scenario")
        assert code(lambda: check_options(0.1, seed)) == (None if accepted else "bad_seed")
        frame = generate_scenario(ScenarioSpec(*groups))
        assert code(lambda: sp_equalizing_debiaser(frame.y_predicted, frame.group, 0.1, seed)) \
            == (None if accepted else "bad_seed")

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValidationError, match="unfavorable_flips"):
            GroupScenario(size=5, positive_predictions=1,
                          favorable_flips=0, unfavorable_flips=2)

    @pytest.mark.parametrize("size, positive, message", [
        (0, 0, "group size must be >= 1"),
        (3, 4, r"positive_predictions 4 outside \[0, 3\]"),
        (3, -1, r"positive_predictions -1 outside \[0, 3\]"),
    ])
    def test_size_and_positives_checked(self, size, positive, message):
        with pytest.raises(ValidationError, match=message) as exc:
            GroupScenario(size=size, positive_predictions=positive,
                          favorable_flips=0, unfavorable_flips=0)
        assert exc.value.code == "bad_scenario"

    @pytest.mark.parametrize("counts, message", [
        ((5.5, 2, 0, 0), "size must be an integer, got 5.5"),
        (("5", 2, 0, 0), "size must be an integer, got '5'"),
        ((5, 2.0, 0, 0), "positive_predictions must be an integer, got 2.0"),
        ((5, 2, np.float64(1), 0), f"favorable_flips must be an integer, got {np.float64(1)!r}"),
        ((5, 2, 0, None), "unfavorable_flips must be an integer, got None"),
        ((99999999999999999999, 2, 0, 0),
         f"group size 99999999999999999999 exceeds {INT64_ROWS}"),
        ((sys.maxsize, 2, 0, 0), f"group size {sys.maxsize} exceeds {INT64_ROWS}"),
    ], ids=["float_size", "str_size", "float_positives", "numpy_float_flips", "none_flips",
            "huge_size", "maxsize"])
    def test_counts_are_integers_numpy_can_allocate(self, counts, message):
        with pytest.raises(ValidationError) as exc:
            GroupScenario(*counts)
        assert (exc.value.code, str(exc.value)) == ("bad_scenario", message)

    def test_numpy_integer_counts_accepted(self):
        group = GroupScenario(np.int64(5), np.uint8(2), np.int32(1), np.int16(1))
        frame = generate_scenario(ScenarioSpec(group, GroupScenario(4, 2, 0, 0)))
        assert frame.n == 9

    def test_huge_size_in_spec_fails_before_generation(self):
        # The check runs when the spec is loaded, so nothing is allocated.
        text = dumps_spec(REFERENCE_EXAMPLE).replace("group0.size = 799",
                                                     "group0.size = 99999999999999999999")
        with pytest.raises(ValidationError, match="group size 99999999999999999999") as exc:
            loads_spec(text)
        assert exc.value.code == "bad_scenario"

    # Each spec's arrays need more than 2**48 bytes, more than any address
    # space maps, so nothing is ever allocated.
    @pytest.mark.parametrize("size0, size1, message", [
        (INT64_ROWS, 1, f"scenario of {INT64_ROWS + 1} rows exceeds {INT64_ROWS}"),
        (INT64_ROWS - 1, 1, f"scenario of {INT64_ROWS} rows does not fit in memory"),
        (2**50, 2**50, f"scenario of {2**51} rows does not fit in memory"),
    ], ids=["sum_too_large", "largest", "too_large_for_memory"])
    def test_scenario_numpy_cannot_allocate_fails_coded(self, size0, size1, message):
        with pytest.raises(ValidationError) as exc:
            generate_scenario(ScenarioSpec(GroupScenario(size0, 0, 0, 0),
                                           GroupScenario(size1, 0, 0, 0)))
        assert (exc.value.code, str(exc.value)) == ("bad_scenario", message)

    def test_negative_flips_rejected(self):
        with pytest.raises(ValidationError, match="flip counts must be nonnegative") as exc:
            GroupScenario(5, 2, -1, 0)
        assert exc.value.code == "bad_scenario"

    def test_favorable_flip_needs_negative_prediction(self):
        with pytest.raises(ValidationError, match="favorable_flips"):
            GroupScenario(size=3, positive_predictions=3,
                          favorable_flips=1, unfavorable_flips=0)


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(dumps_spec(REFERENCE_EXAMPLE))
        assert load_spec(path) == REFERENCE_EXAMPLE

    def test_comment_lines_skipped(self):
        text = "# reference example\n" + dumps_spec(REFERENCE_EXAMPLE) + "   # end\n"
        assert loads_spec(text) == REFERENCE_EXAMPLE

    def test_missing_key_rejected(self):
        with pytest.raises(ValidationError, match="group1.size"):
            loads_spec("seed = 0\n"
                       "group0.size = 3\n"
                       "group0.positive_predictions = 1\n"
                       "group0.favorable_flips = 0\n"
                       "group0.unfavorable_flips = 0\n")

    def test_unknown_key_rejected(self):
        text = dumps_spec(REFERENCE_EXAMPLE).replace("group1.size", "group1.sizee")
        with pytest.raises(ValidationError, match="scenario line 6: unknown key 'group1.sizee'") \
                as exc:
            loads_spec(text)
        assert exc.value.code == "bad_scenario"

    def test_duplicate_key_rejected(self):
        text = dumps_spec(REFERENCE_EXAMPLE) + "group0.size = 5\n"
        with pytest.raises(ValidationError, match="scenario line 10: duplicate key 'group0.size'") \
                as exc:
            loads_spec(text)
        assert exc.value.code == "bad_scenario"

    def test_negative_seed_rejected(self):
        text = dumps_spec(REFERENCE_EXAMPLE).replace("seed = 0", "seed = -1")
        with pytest.raises(ValidationError, match="scenario line 1: seed must be a "
                                                  "non-negative integer") as exc:
            loads_spec(text)
        assert exc.value.code == "bad_scenario"

    def test_line_without_equals_rejected(self):
        with pytest.raises(ValidationError,
                           match="scenario line 1: expected 'key = value'") as exc:
            loads_spec("seed 0\n")
        assert exc.value.code == "bad_scenario"

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError, match="non-integer"):
            loads_spec("group0.size = many\n")
