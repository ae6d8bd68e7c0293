import numpy as np
import pytest

import oracle
from flipaudit import (
    Decision,
    REFERENCE_EXAMPLE,
    ValidationError,
    generate_scenario,
    make_sp_debiaser,
    render_structured,
    run_audit_pipeline,
)
from flipaudit import frame as frame_module
from flipaudit.debias import place
from flipaudit.frame import AuditFrame
from flipaudit.pipeline import PipelineError, run_counts_pipeline


def passthrough_for(frame):
    """Debiaser returning the frame's own corrected labels."""

    def debias(y_predicted, group):
        return frame.y_corrected

    return debias


def identity_debiaser(y_predicted, group):
    return np.asarray(y_predicted).copy()


class TestRunAuditPipeline:
    def test_already_fair_exits_early(self):
        pred = np.array([1, 0, 1, 0])
        group = np.array([0, 0, 1, 1])

        def exploding(y_predicted, g):
            raise AssertionError("debiaser must not run on fair inputs")

        outcome = run_audit_pipeline(pred, group, exploding)
        assert outcome.decision is Decision.NO_DEBIAS_NEEDED
        assert outcome.report.counts["total_flips"] == 0
        assert outcome.post_fairness == outcome.pre_fairness

    def test_reference_scenario_is_fair_but_disproportionate(self, reference_frame):
        outcome = run_audit_pipeline(
            reference_frame.y_predicted,
            reference_frame.group,
            passthrough_for(reference_frame),
            y_true=reference_frame.y_true,
        )
        assert not outcome.pre_fairness.passed
        assert outcome.post_fairness.passed
        assert outcome.pre_fairness.sp_difference > 0.1
        assert oracle.within(
            oracle.sp_difference(reference_frame.y_corrected, reference_frame.group), 0.1)
        assert outcome.report.verdict == "Disproportionate"
        assert outcome.decision is Decision.FAIR_BUT_DISPROPORTIONATE

    def test_balanced_repair_is_fair_and_proportionate(self):
        # Rates 56/100 and 45/100 fail the gate. The debiaser flips 50 labels
        # in each group, 26 down and 24 up in group 0 and the reverse in
        # group 1, which brings SP to 0.07 with flips spread evenly.
        pred = np.array([1] * 56 + [0] * 44 + [1] * 45 + [0] * 55)
        group = np.repeat([0, 1], 100)
        corrected = pred.copy()
        corrected[0:26] = 0
        corrected[56:80] = 1
        corrected[100:124] = 0
        corrected[145:171] = 1
        outcome = run_audit_pipeline(pred, group, lambda y_predicted, g: corrected)
        assert not outcome.pre_fairness.passed
        assert outcome.post_fairness.passed
        cells = outcome.report.proportionality_cells().values()
        assert {cell.band.label for cell in cells} == {"Acceptable"}
        assert outcome.report.verdict == "Proportionate"
        assert outcome.decision is Decision.FAIR_AND_PROPORTIONATE

    def test_ineffective_debiaser_still_unfair(self):
        pred = np.array([1, 1, 1, 0, 0, 0])
        group = np.array([0, 0, 0, 1, 1, 1])
        outcome = run_audit_pipeline(pred, group, identity_debiaser)
        assert outcome.decision is Decision.STILL_UNFAIR
        assert not outcome.post_fairness.passed

    def test_sp_debiaser_reaches_fair_interval(self):
        rng = np.random.default_rng(13)
        pred = rng.integers(0, 2, size=60)
        group = np.array([0] * 30 + [1] * 30)
        pred[:30] = (rng.random(30) < 0.8).astype(int)
        pred[30:] = (rng.random(30) < 0.3).astype(int)
        debias = make_sp_debiaser(0.1, rng_seed=2)
        outcome = run_audit_pipeline(pred, group, debias)
        assert outcome.post_fairness.passed
        # The seeded debiaser repeats its labels.
        assert oracle.within(oracle.sp_difference(debias(pred, group), group), 0.1)
        assert outcome.decision in (
            Decision.FAIR_AND_PROPORTIONATE,
            Decision.FAIR_BUT_DISPROPORTIONATE,
        )

    def test_debiaser_failure_carries_pre_gate(self):
        pred = np.array([1, 1, 1, 0, 0, 0])
        group = np.array([0, 0, 0, 1, 1, 1])

        def broken(y_predicted, g):
            raise RuntimeError("boom")

        with pytest.raises(PipelineError) as exc:
            run_audit_pipeline(pred, group, broken)
        assert exc.value.pre_fairness.sp_difference == pytest.approx(1.0)
        assert exc.value.code == "debiaser_failed"
        assert str(exc.value) == "debiaser failed: boom"

    def test_debiaser_code_is_kept(self):
        # An unreachable epsilon: the debiaser's DebiasError code is the pipeline's.
        pred = np.array([1, 0, 1, 0, 0])
        group = np.array([0, 0, 1, 1, 1])
        with pytest.raises(ValidationError) as exc:
            run_audit_pipeline(pred, group, make_sp_debiaser(0.05))
        assert isinstance(exc.value, PipelineError)
        assert exc.value.code == "unreachable_epsilon"
        assert str(exc.value).startswith("debiaser failed: cannot reach |SP| <= 0.05; ")

    @pytest.mark.parametrize("result, code", [
        ([1, 0, 1], "length_mismatch"),
        ([2, 0, 1, 0, 1, 0], "non_binary"),
    ])
    def test_debiaser_result_validated_as_y_corrected(self, result, code):
        pred = np.array([1, 1, 1, 0, 0, 0])
        group = np.array([0, 0, 0, 1, 1, 1])
        with pytest.raises(ValidationError, match="y_corrected") as exc:
            run_audit_pipeline(pred, group, lambda y_predicted, g: result)
        assert exc.value.code == code
        # The debiaser returned; its result failed, not the debiaser.
        assert not isinstance(exc.value, PipelineError)

    def test_determinism_under_fixed_seed(self):
        frame = generate_scenario(REFERENCE_EXAMPLE)
        runs = [
            run_audit_pipeline(
                frame.y_predicted, frame.group,
                make_sp_debiaser(0.1, rng_seed=5),
                y_true=frame.y_true,
            )
            for _ in range(2)
        ]
        assert runs[0].decision is runs[1].decision
        assert render_structured(runs[0].report) == render_structured(runs[1].report)


@pytest.mark.parametrize("fair, passes", [(True, 1), (False, 3)])
def test_each_frame_counted_once(fair, passes, monkeypatch):
    # Rows are counted once per frame: the identity frame, then (after the
    # debiaser's own count) the repaired frame, whose counts feed both the
    # second gate and the report.
    group = np.repeat([0, 1], 1000)
    y_true = np.tile([0, 1], 1000)
    pred = y_true if fair else group
    tally = frame_module.tally
    calls = []

    def counting_tally(*vectors):
        calls.append(len(vectors[0]))
        return tally(*vectors)

    monkeypatch.setattr(frame_module, "tally", counting_tally)
    outcome = run_audit_pipeline(pred, group, make_sp_debiaser(0.1), y_true=y_true)
    assert (outcome.decision is Decision.NO_DEBIAS_NEEDED) == fair
    assert calls == [group.size] * passes


def placer(frame, seed, calls=None):
    """``run_counts_pipeline``'s ``place``: the table of ``frame`` with the plan placed."""
    def place_plan(plan):
        if calls is not None:
            calls.append(plan)
        return frame.with_corrected(place(plan, frame, seed)).counts()

    return place_plan


class TestRunCountsPipeline:
    @pytest.mark.parametrize("truth", ["none", "pred", "mixed"])
    def test_same_outcome_as_the_vector_pipeline(self, truth):
        rng = np.random.default_rng(21)
        placed = 0
        for seed in range(150):
            pred, group = rng.integers(0, 2, size=(2, int(rng.integers(4, 60))))
            if not 0 < group.sum() < group.size:
                continue
            y_true = {"none": None, "pred": pred, "mixed": rng.integers(0, 2, pred.size)}[truth]
            epsilon = float(rng.choice([0.02, 0.05, 0.1, 0.2]))
            frame = AuditFrame(pred, pred, group, y_true)

            def outcome(run):
                try:
                    return run()
                except ValidationError as exc:
                    return exc.code, str(exc)

            calls = []
            want = outcome(lambda: run_audit_pipeline(
                pred, group, make_sp_debiaser(epsilon, seed), y_true=y_true))
            got = outcome(lambda: run_counts_pipeline(
                frame.counts(), epsilon, placer(frame, seed, calls)))
            assert got == want
            placed += len(calls)
            if truth != "mixed":  # the counts fix every flip
                assert not calls
        assert placed > 10 if truth == "mixed" else placed == 0

    def test_debiaser_failure_carries_pre_gate(self):
        frame = AuditFrame([1, 0, 1, 0, 0], [1, 0, 1, 0, 0], [0, 0, 1, 1, 1])
        with pytest.raises(PipelineError) as exc:
            run_counts_pipeline(frame.counts(), 0.05, placer(frame, 0))
        assert exc.value.code == "unreachable_epsilon"
        assert str(exc.value).startswith("debiaser failed: cannot reach |SP| <= 0.05; ")
        assert exc.value.pre_fairness.sp_difference == pytest.approx(1 / 6)

    @pytest.mark.parametrize("pred", [[1, 0, 1, 0], [1, 1, 0, 0]], ids=["fair", "unfair"])
    def test_bad_epsilon_fails_before_the_gate(self, pred):
        frame = AuditFrame(pred, pred, [0, 0, 1, 1])
        with pytest.raises(ValidationError) as exc:
            run_counts_pipeline(frame.counts(), -1.0, placer(frame, 0))
        assert exc.value.code == "bad_epsilon"
        assert not isinstance(exc.value, PipelineError)

    def test_counts_with_flips_are_bad_counts(self):
        frame = AuditFrame([1, 0, 1, 0], [0, 0, 1, 0], [0, 0, 1, 1])
        with pytest.raises(ValidationError) as exc:
            run_counts_pipeline(frame.counts(), 0.1, placer(frame, 0))
        assert exc.value.code == "bad_counts"
