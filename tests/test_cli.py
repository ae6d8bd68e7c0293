import gc
import io
import json
import math
import os
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import flipaudit
import oracle
from conftest import run_python
from flipaudit import (
    REFERENCE_EXAMPLE, ThresholdConfig, build_report, emit_chart, generate_scenario, ingest,
    render_structured,
)
from flipaudit.cli import main
from flipaudit.scenario import dumps_spec
from flipaudit.tabular import ColumnMapping, frame_to_csv, write_frame
from flipaudit.frame import AuditFrame, ValidationError


@pytest.fixture
def reference_csv(tmp_path, reference_frame):
    path = tmp_path / "reference.csv"
    write_frame(reference_frame, path)
    return path


@pytest.fixture
def identity_csv(tmp_path, identity_frame):
    path = tmp_path / "identity.csv"
    write_frame(identity_frame, path)
    return path


class TestIngest:
    def test_small_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("pred,corr,group\n1,0,0\n0,1,1\n1,1,0\n0,0,1\n")
        frame = ingest(path)
        assert frame.n == 4
        assert frame.y_true is None

    def test_non_binary_cell_cites_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = ["pred,corr,group"] + ["1,0,0"] * 5 + ["1,2,0", "0,0,1"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="row 7.*'corr'") as exc:
            ingest(path)
        assert exc.value.code == "non_binary"

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("pred,corr,group\n1,0\n")
        with pytest.raises(ValidationError) as exc:
            ingest(path)
        assert exc.value.code == "ragged_row"

    def test_unknown_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,0,0\n")
        with pytest.raises(ValidationError) as exc:
            ingest(path)
        assert exc.value.code == "unknown_column"

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValidationError) as exc:
            ingest(tmp_path / "missing.csv")
        assert exc.value.code == "unreadable"

    def test_favorable_and_privileged_remapping(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("pred,corr,group\n1,0,0\n0,1,1\n")
        frame = ingest(path, ColumnMapping(favorable=0, privileged=0))
        assert frame.y_predicted.tolist() == [0, 1]
        assert frame.group.tolist() == [1, 0]

    def test_round_trip_exact(self, reference_frame, tmp_path):
        path = tmp_path / "rt.csv"
        write_frame(reference_frame, path)
        back = ingest(path, ColumnMapping(true_col="true"))
        assert back == reference_frame


class TestSynthAudit:
    def test_synth_then_audit_reproduces_counts(self, tmp_path, capsys):
        csv_path = tmp_path / "synth.csv"
        assert main(["synth", "--scenario", "reference-example", "-o", str(csv_path)]) == 0
        code = main(["audit", "-i", str(csv_path), "--format", "structured"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert report["total_samples"] == 1320
        assert report["total_flips"] == 174
        assert report["verdict"] == "Disproportionate"

    def test_audit_identity_exits_zero(self, identity_csv, capsys):
        assert main(["audit", "-i", str(identity_csv)]) == 0
        assert "Verdict: Proportionate" in capsys.readouterr().out

    def test_scenario_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(
            "seed = 3\n"
            "group0.size = 6\ngroup0.positive_predictions = 3\n"
            "group0.favorable_flips = 1\ngroup0.unfavorable_flips = 1\n"
            "group1.size = 4\ngroup1.positive_predictions = 2\n"
            "group1.favorable_flips = 0\ngroup1.unfavorable_flips = 0\n"
        )
        assert main(["synth", "--scenario", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("pred,corr,group,true\n")
        assert len(out.strip().splitlines()) == 11

    def test_bad_input_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("pred,corr,group\n1,0,2\n")
        assert main(["audit", "-i", str(path)]) == 1
        assert "error [non_binary]: " in capsys.readouterr().err

    def test_non_utf8_input_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"pred,corr,group\n1,0,0\n0,1,\xff\n")
        assert main(["audit", "-i", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error [bad_encoding]: row 3: ")

    def test_partial_thresholds_keep_defaults(self, reference_csv, tmp_path, capsys):
        path = tmp_path / "fr-only.txt"
        path.write_text("FR 0 0.2 0.4\n")
        default_code = main(["audit", "-i", str(reference_csv), "--format", "structured"])
        default = json.loads(capsys.readouterr().out)
        code = main(["audit", "-i", str(reference_csv), "--format", "structured",
                     "--thresholds", str(path)])
        report = json.loads(capsys.readouterr().out)
        # Overall FR 174/1320 is Moderate under the default 0.1 band, Acceptable under 0.2.
        assert (default["fr"]["band"], report["fr"]["band"]) == ("Moderate", "Acceptable")
        for key, value in report.items():
            if key not in ("fr", "group0_fr", "group1_fr"):
                assert value == default[key], key
        assert report["verdict"] == "Disproportionate"
        assert code == default_code == 3

    def test_usage_error_exits_one(self):
        assert main(["audit"]) == 1


class TestPlot:
    def test_svg_well_formed_three_panels(self, tmp_path, reference_csv, capsys):
        report_path = tmp_path / "report.json"
        main(["audit", "-i", str(reference_csv), "--format", "structured",
              "-o", str(report_path)])
        svg_path = tmp_path / "chart.svg"
        assert main(["plot", "-i", str(report_path), "-o", str(svg_path)]) == 0
        root = ET.parse(svg_path).getroot()
        panels = [el for el in root.iter() if el.get("class") == "panel"]
        assert len(panels) == 3

    def test_report_on_stdin(self, tmp_path, reference_csv, monkeypatch):
        report_path = tmp_path / "report.json"
        main(["audit", "-i", str(reference_csv), "--format", "structured",
              "-o", str(report_path)])
        from_file, from_stdin = tmp_path / "file.svg", tmp_path / "stdin.svg"
        assert main(["plot", "-i", str(report_path), "-o", str(from_file)]) == 0
        stdin = io.TextIOWrapper(io.BytesIO(report_path.read_bytes()))
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["plot", "-i", "-", "-o", str(from_stdin)]) == 0
        assert from_stdin.read_bytes() == from_file.read_bytes()

    def test_infinite_bar_clamped_and_red(self, reference_frame):
        svg = emit_chart(build_report(reference_frame.counts()))
        assert "∞" in svg
        # HDI and HFD bars are clamped to the axis cap and colored red.
        assert svg.count('fill="#c0392b"') >= 2

    def test_deterministic(self, reference_frame):
        report = build_report(reference_frame.counts())
        assert emit_chart(report) == emit_chart(report)

    def test_no_flip_report_all_green(self, identity_frame):
        svg = emit_chart(build_report(identity_frame.counts()))
        assert '#c0392b' not in svg
        assert '#e6b800' not in svg


class TestDebiasCommand:
    def test_debias_outputs_corrected_csv(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        frame = AuditFrame(
            y_predicted=[1, 1, 1, 1, 0, 1, 1, 1, 0, 0],
            y_corrected=[1, 1, 1, 1, 0, 1, 1, 1, 0, 0],
            group=[1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
        )
        write_frame(frame, path)
        assert main(["debias", "-i", str(path), "--epsilon", "0.1"]) == 0
        out = capsys.readouterr().out
        back = [line.split(",") for line in out.strip().splitlines()[1:]]
        corr = np.array([int(r[1]) for r in back])
        group = np.array([int(r[2]) for r in back])
        assert oracle.within(oracle.sp_difference(corr, group), 0.1)

    @pytest.mark.parametrize("favorable, privileged", [(0, 0), (0, 1), (1, 0)])
    def test_output_keeps_the_input_polarity(self, favorable, privileged, reference_csv,
                                             capsysbinary):
        # The input with the label columns, the group column or both inverted,
        # and read back with the matching flags: the same rows inside, so the
        # same flips, and the output inverted in the same columns.
        def invert(data: bytes) -> bytes:
            flags = [favorable, favorable, privileged, favorable]  # pred, corr, group, true
            header, *rows = data.splitlines(keepends=True)
            return header + b"".join(
                bytes(c ^ 1 if c in b"01" and not flags[i // 2] else c
                      for i, c in enumerate(row)) for row in rows)

        inverted = reference_csv.with_name("inverted.csv")
        inverted.write_bytes(invert(reference_csv.read_bytes()))
        argv = ["debias", "--true-col", "true", "-o", "-"]
        assert main([*argv, "-i", str(reference_csv)]) == 0
        want = capsysbinary.readouterr().out
        assert main([*argv, "-i", str(inverted), "--favorable", str(favorable),
                     "--privileged", str(privileged)]) == 0
        got = capsysbinary.readouterr().out
        assert got != want
        assert invert(got) == want


@pytest.fixture
def raw_csv(tmp_path, reference_frame):
    """The reference frame without corrected labels: pred, group, true."""
    path = tmp_path / "raw.csv"
    rows = zip(reference_frame.y_predicted, reference_frame.group, reference_frame.y_true)
    path.write_text("pred,group,true\n" + "".join(f"{p},{g},{t}\n" for p, g, t in rows))
    return path


@pytest.mark.parametrize("argv", [["debias"], ["pipeline", "--true-col", "true"]])
def test_corr_column_not_required(argv, raw_csv, reference_csv, capsys):
    code = main([*argv, "-i", str(reference_csv)])
    expected = capsys.readouterr().out
    assert main([*argv, "-i", str(raw_csv)]) == code
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["debias", "pipeline"])
def test_unreachable_epsilon_has_code(command, tmp_path, capsys):
    path = tmp_path / "five.csv"
    path.write_text("pred,group\n1,0\n0,0\n1,1\n0,1\n0,1\n")
    assert main([command, "-i", str(path), "--epsilon", "0.05"]) == 1
    assert capsys.readouterr().err.startswith("error [unreachable_epsilon]: ")


# The file named last on the command line; "{tmp}" is the test's directory.
@pytest.mark.parametrize("argv, data, line", [
    (["plot", "-o", "{tmp}/chart.svg", "-i"], b'{"a": "\xff"}', 1),
    (["synth", "--scenario"], b"seed = 0\n# caf\xff\n", 2),
    (["audit", "-i", "{tmp}/d.csv", "--thresholds"], b"FR 0 0.1 0.3\nFR\xff\n", 2),
], ids=["plot", "synth_scenario", "audit_thresholds"])
def test_non_utf8_text_input_has_code(argv, data, line, tmp_path, capsys):
    (tmp_path / "d.csv").write_text("pred,corr,group\n1,0,0\n0,1,1\n")
    path = tmp_path / "input"
    path.write_bytes(data)
    assert main([arg.format(tmp=tmp_path) for arg in argv] + [str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error [bad_encoding]: line {line}: byte 0xff is not valid UTF-8\n"
    )


# The file named last on the command line, and valid text for it.
@pytest.mark.parametrize("argv, text", [
    (["plot", "-o", "{tmp}/out", "-i"],
     lambda: render_structured(build_report(generate_scenario(REFERENCE_EXAMPLE).counts()))),
    (["synth", "-o", "{tmp}/out", "--scenario"], lambda: dumps_spec(REFERENCE_EXAMPLE)),
    (["audit", "-i", "{tmp}/d.csv", "-o", "{tmp}/out", "--thresholds"],
     lambda: ThresholdConfig.default().dumps()),
], ids=["plot", "synth_scenario", "audit_thresholds"])
@pytest.mark.parametrize("case", ["missing", "bom"])
def test_text_input_missing_or_with_bom(argv, text, case, tmp_path, capsys):
    (tmp_path / "d.csv").write_text("pred,corr,group\n1,0,0\n0,1,1\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    path = tmp_path / "input"
    if case == "missing":
        # As a missing CSV does, it fails with a code.
        assert main(argv + [str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error [unreadable]: cannot read {path}: ")
        return
    # One leading byte order mark is skipped, as in a CSV.
    path.write_text(text())
    code = main(argv + [str(path)])
    plain = (tmp_path / "out").read_bytes()
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(argv + [str(path)]) == code
    assert (tmp_path / "out").read_bytes() == plain
    assert capsys.readouterr().err == ""


def golden_edit(name, edit):
    """The report tests/golden/``name`` after ``edit`` changes its parsed JSON in place."""
    data = json.loads((Path(__file__).parent / "golden" / name).read_text())
    edit(data)
    return json.dumps(data)


def golden_with(name, key, **changes):
    """tests/golden/``name`` with ``changes`` made to the object at ``key``."""
    return golden_edit(name, lambda data: data[key].update(changes))


AUDIT_FR = 0.1318181818181818  # the fr value the counts in tests/golden/audit.json give


@pytest.mark.parametrize("text, problem", [
    ("pred,corr,group\n1,0,0\n", "not JSON: Expecting value: line 1 column 1 (char 0)"),
    ("{}", "missing key 'group0_samples'"),
    (golden_edit("audit.json", lambda data: data.update(fr=1)),
     "'int' object is not subscriptable"),
    (golden_edit("audit.json", lambda data: data.update(fr={
        "kind": "finite", "value": 0.5, "annotation": "Regular calculation", "band": "Great"})),
     "unknown band label 'Great'"),
    (golden_edit("audit.json", lambda data: data.update(fr={
        "kind": "inf", "value": 5.0, "annotation": "One value is zero", "band": "Disproportionate"})),
     "fr kind is 'inf', not 'finite'"),
    # Values render_structured never writes.
    (golden_with("audit.json", "fr", value=math.nan), f"fr value is nan, not {AUDIT_FR}"),
    (golden_with("audit.json", "fr", value=-math.inf), f"fr value is -inf, not {AUDIT_FR}"),
    (golden_with("audit.json", "fr", value=math.inf).replace("Infinity", "1e999"),
     f"fr value is inf, not {AUDIT_FR}"),
    (golden_with("audit.json", "fr", value="0.5"), f"fr value is '0.5', not {AUDIT_FR}"),
    (golden_with("audit.json", "fr", value=True), f"fr value is True, not {AUDIT_FR}"),
    (golden_edit("audit.json", lambda data: data.update(total_flips="many")),
     "total_flips is 'many', not 174"),
    (golden_edit("audit.json", lambda data: data.update(total_flips=-3)),
     "total_flips is -3, not 174"),
    (golden_edit("audit.json", lambda data: data.update(total_flips=1.5)),
     "total_flips is 1.5, not 174"),
    (golden_edit("audit.json", lambda data: data.update(verdict="Great")),
     "verdict is 'Great', not 'Disproportionate'"),
    (golden_edit("pipeline.json", lambda data: data.update(verdict="Proportionate")),
     "verdict is 'Proportionate', not 'Disproportionate'"),
    (golden_edit("audit.json", lambda data: data.update(schema_version="7")),
     "schema_version is '7', not '1'"),
    (golden_edit("audit.json", lambda data: data.update(schema_version=1)),
     "schema_version is 1, not '1'"),
    (golden_with("pipeline.json", "fairness_post", sp_pass="yes"),
     "fairness_post sp_pass is 'yes', not a bool"),
    (golden_with("pipeline.json", "fairness_pre", extra=0),
     "FairnessResult() got an unexpected keyword argument 'extra'"),
    (golden_with("pipeline.json", "fairness_post", fair_interval=[-0.1, 0.1, 0.2]),
     "fair interval must be two finite numbers lo <= 0 <= hi, got [-0.1, 0.1, 0.2]"),
    (golden_with("pipeline.json", "fairness_post", sp_difference=None),
     "fairness_post sp_difference is None, not a finite number"),
    (golden_with("pipeline.json", "fairness_pre", eo_difference=math.nan),
     "fairness_pre eo_difference is nan, not a finite number"),
    # Cells MetricValue would reject: the rebuilt cell is compared first.
    (golden_with("audit.json", "fr", value=None), f"fr value is None, not {AUDIT_FR}"),
    (golden_with("audit.json", "fr", annotation=""),
     "fr annotation is '', not 'Regular calculation'"),
    (golden_with("audit.json", "fr", kind="nan"), "fr kind is 'nan', not 'finite'"),
    # Values that contradict the report's own counts.
    (golden_with("pipeline.json", "fr", annotation=5),
     "fr annotation is 5, not 'Regular calculation'"),
    (golden_with("pipeline.json", "fr", display="9.99"), "fr display is '9.99', not '0.045'"),
    (golden_with("pipeline.json", "fairness_pre", note=5), "fairness_pre note is 5, not a str"),
    (golden_edit("pipeline.json", lambda data: data.update(total_flips=1_000_000)),
     "total_flips is 1000000, not 59"),
    (golden_with("pipeline.json", "fr", value=0.9), "fr value is 0.9, not 0.0446969696969697"),
    (golden_edit("pipeline.json", lambda data: data.update(group0_flips=10_000)),
     "group0_flips is 10000, not a count from 0 to 799"),
    (golden_with("pipeline.json", "hdi", value=2.0), "hdi value is 2.0, not 1.0"),
    # Counts whose metrics a float cannot hold.
    (golden_edit("pipeline.json", lambda data: data.update(
        group1_samples=10**400, group1_flips=10**400, group1_harmful_flips=1)),
     "integer division result too large for a float"),
    # Each problem names the key it is at.
    (golden_edit("pipeline.json", lambda data: data.pop("fairness_pre")),
     "missing key 'fairness_pre'"),
    (golden_edit("pipeline.json", lambda data: data.pop("fairness_post")),
     "missing key 'fairness_post'"),
    (golden_edit("audit.json", lambda data: data["fr"].pop("display")),
     "fr: missing key 'display'"),
    (golden_edit("audit.json", lambda data: data["hdi"].pop("band")),
     "hdi: missing key 'band'"),
    (golden_edit("audit.json", lambda data: data.update(
        group0_samples=0, group0_flips=0, group0_harmful_flips=0)),
     "group0_samples: group 0 has no instances"),
], ids=["csv", "empty_object", "cell_not_object", "unknown_band", "inf_with_value",
        "value_nan", "value_minus_infinity", "value_1e999", "value_string", "value_bool",
        "count_string", "count_negative", "count_float", "verdict_unknown",
        "verdict_not_the_bands", "schema_string_7", "schema_int_1", "pass_string",
        "fairness_unknown_key", "fair_interval_three", "sp_difference_null",
        "eo_difference_nan", "finite_value_null", "annotation_empty", "kind_nan",
        "annotation_int", "display_not_the_value", "note_int", "total_flips_not_the_sum",
        "value_not_the_counts", "flips_over_samples", "hdi_not_both_zero", "counts_overflow",
        "no_fairness_pre", "no_fairness_post", "no_display", "no_band", "group_empty"])
def test_plot_rejects_text_that_is_not_a_report(text, problem, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["plot", "-i", str(path), "-o", str(tmp_path / "chart.svg")]) == 1
    assert capsys.readouterr().err == (
        f"error [bad_report]: not a structured report: {problem}\n"
    )


def test_malformed_thresholds_have_code(reference_csv, tmp_path, capsys):
    path = tmp_path / "thresholds.txt"
    path.write_text("FR 0 0.1\n")
    assert main(["audit", "-i", str(reference_csv), "--thresholds", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error [bad_thresholds]: line 1: ")


@pytest.mark.parametrize("rows, code", [(["1,0,1", "0,2,1"], "non_binary"),
                                        (["1,0,1", "0,1,1"], "missing_group")])
def test_input_errors_come_before_threshold_errors(rows, code, tmp_path, capsys):
    # audit counts its input before it reads the threshold file, so a group
    # with no rows is reported as the input's error.
    data, thresholds = tmp_path / "d.csv", tmp_path / "thresholds.txt"
    data.write_text("\n".join(["pred,corr,group", *rows]) + "\n")
    thresholds.write_text("FR 0 0.1\n")
    assert main(["audit", "-i", str(data), "--thresholds", str(thresholds)]) == 1
    assert capsys.readouterr().err.startswith(f"error [{code}]: ")


def test_unclosed_quote_has_code(tmp_path, capsys):
    # Row 7 opens a quote that swallows the rest of the file and outgrows
    # the csv module's field limit.
    lines = ["pred,corr,group"] + ["0,1,1"] * 30_000
    lines[7] = '1,"0,0'
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["audit", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error \[bad_csv\]: row \d+: field larger than field limit "
                        r"\(\d+\)\n", err)


@pytest.mark.parametrize("command", [["synth", "--scenario", "reference-example"],
                                     ["debias", "-i", "{csv}", "--true-col", "true"]],
                         ids=["synth", "debias"])
def test_csv_to_stdout_equals_csv_to_file(command, reference_csv, tmp_path, capsysbinary):
    argv = [arg.format(csv=reference_csv) for arg in command]
    out = tmp_path / "out.csv"
    assert main([*argv, "-o", str(out)]) == 0
    assert main([*argv, "-o", "-"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


class TestPipelineCommand:
    def test_fair_input_no_debias(self, identity_csv, capsys):
        assert main(["pipeline", "-i", str(identity_csv)]) == 0
        assert "Decision: NoDebiasNeeded" in capsys.readouterr().out

    def test_reference_csv_runs(self, reference_csv, capsys):
        code = main(["pipeline", "-i", str(reference_csv), "--true-col", "true"])
        out = capsys.readouterr().out
        assert "Decision:" in out
        assert code in (0, 2, 3)

    @pytest.mark.parametrize("epsilon", ["nan", "-5"])
    @pytest.mark.parametrize("fixture", ["identity_csv", "reference_csv"])
    def test_bad_epsilon_exits_one(self, fixture, epsilon, request, capsys):
        path = request.getfixturevalue(fixture)
        assert main(["pipeline", "-i", str(path), "--epsilon", epsilon]) == 1
        assert capsys.readouterr().err.startswith("error [bad_epsilon]: ")

    @pytest.mark.parametrize("command", ["debias", "pipeline"])
    @pytest.mark.parametrize("fixture", ["identity_csv", "reference_csv"])
    def test_bad_seed_exits_one(self, command, fixture, request, capsys):
        path = request.getfixturevalue(fixture)
        assert main([command, "-i", str(path), "--seed", "-1", "-o", "-"]) == 1
        assert capsys.readouterr().err.startswith("error [bad_seed]: ")

    def test_sp_of_exactly_epsilon_needs_no_debias(self, tmp_path, capsys):
        # Rates 4/10 and 3/10: an SP of exactly 1/10, which the default
        # interval holds, though 0.4 - 0.3 is just above 0.1 in floats.
        path = tmp_path / "boundary.csv"
        rows = [(int(i < 4), 0) for i in range(10)] + [(int(i < 3), 1) for i in range(10)]
        path.write_text("pred,group\n" + "".join(f"{p},{g}\n" for p, g in rows))
        assert main(["pipeline", "-i", str(path)]) == 0
        assert capsys.readouterr().out.endswith("Decision: NoDebiasNeeded\n")
        assert main(["debias", "-i", str(path)]) == 0
        back = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(int(r[0]), int(r[2])) for r in back] == rows
        assert all(r[0] == r[1] for r in back)

    def test_fair_but_disproportionate_exit_code_follows_verdict(self, raw_csv, capsys):
        # Without true labels the repair passes the gate, and the report's
        # Disproportionate verdict sets the exit code.
        assert main(["pipeline", "-i", str(raw_csv)]) == 3
        out = capsys.readouterr().out
        assert "Verdict: Disproportionate" in out
        assert out.endswith("Decision: FairButDisproportionate\n")

    # pipeline reports a file error first, then a bad option, then a group
    # with no rows, with or without a true column.
    @pytest.mark.parametrize("true_col", [[], ["--true-col", "true"]], ids=["no_true", "true"])
    @pytest.mark.parametrize("rows, options, code", [
        (["1,2,1", "0,1,0"], ["--epsilon", "-1"], "non_binary"),
        (["1,0,1", "0,0,0"], ["--epsilon", "-1", "--seed", "-1"], "bad_epsilon"),
        (["1,0,1", "0,0,0"], ["--seed", "-1", "--thresholds", "{tmp}/bad.txt"], "bad_seed"),
        (["1,0,1", "0,0,0"], ["--thresholds", "{tmp}/bad.txt"], "bad_thresholds"),
        (["1,0,1", "0,0,0"], [], "missing_group"),
    ], ids=["file_before_epsilon", "epsilon_before_group", "seed_before_group",
            "thresholds_before_group", "missing_group"])
    def test_errors_keep_their_order(self, rows, options, code, true_col, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("\n".join(["pred,group,true", *rows]) + "\n")
        (tmp_path / "bad.txt").write_text("FR 0 0.1\n")
        argv = ["pipeline", "-i", str(path), *true_col, *options]
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith(f"error [{code}]: ")

    @pytest.mark.parametrize("true_col", [[], ["--true-col", "true"]], ids=["no_true", "true"])
    def test_unreachable_epsilon_is_a_debiaser_failure(self, true_col, tmp_path, capsys):
        path = tmp_path / "five.csv"
        path.write_text("pred,group,true\n1,0,1\n0,0,0\n1,1,1\n0,1,0\n0,1,0\n")
        assert main(["pipeline", "-i", str(path), *true_col, "--epsilon", "0.05"]) == 1
        assert capsys.readouterr().err == (
            "error [unreachable_epsilon]: debiaser failed: cannot reach |SP| <= 0.05; "
            "best achievable gap is 0.166667\n")

    def test_input_on_a_pipe_is_read_once(self, tmp_path):
        # Mixed true values: placing the flips needs the rows, which a pipe
        # cannot give twice.
        golden = Path(__file__).parent / "golden"
        out = tmp_path / "pipeline.txt"
        proc = run_python(["-m", "flipaudit.cli", "pipeline", "-i", "/dev/stdin",
                           "--true-col", "true", "-o", str(out)],
                          input=(golden / "reference.csv").read_text())
        assert (proc.returncode, proc.stderr) == (3, "")
        assert out.read_bytes() == (golden / "pipeline.txt").read_bytes()

    def test_structured_output_carries_decision(self, reference_csv, tmp_path, capsys):
        out = tmp_path / "pipeline.json"
        main(["pipeline", "-i", str(reference_csv), "--true-col", "true",
              "--format", "structured", "-o", str(out)])
        data = json.loads(out.read_text())
        assert list(data)[-1] == "decision"
        assert data["decision"] == "StillUnfair"
        assert main(["plot", "-i", str(out), "-o", str(tmp_path / "chart.svg")]) == 0


# One failing invocation per error code; "{tmp}" is the test's directory.
@pytest.mark.parametrize("code, argv", [
    ("non_binary", ["audit", "-i", "{tmp}/non-binary.csv"]),
    ("bad_encoding", ["audit", "-i", "{tmp}/not-utf8.csv"]),
    ("unreadable", ["audit", "-i", "{tmp}/missing.csv"]),
    ("unreadable", ["plot", "-i", "-", "-o", "{tmp}/chart.svg"]),
    ("unwritable", ["audit", "-i", "{tmp}/data.csv", "-o", "{tmp}/missing/out.txt"]),
    ("unwritable", ["audit", "-i", "{tmp}/data.csv", "-o", "{tmp}"]),
    ("bad_thresholds", ["audit", "-i", "{tmp}/data.csv", "--thresholds", "{tmp}/thresholds.txt"]),
    ("bad_report", ["plot", "-i", "{tmp}/data.csv", "-o", "{tmp}/chart.svg"]),
    ("bad_report", ["plot", "-i", "{tmp}/nan-kind.json", "-o", "{tmp}/chart.svg"]),
    ("bad_epsilon", ["pipeline", "-i", "{tmp}/data.csv", "--epsilon", "nan"]),
    ("bad_seed", ["debias", "-i", "{tmp}/data.csv", "--seed", "-1"]),
    ("unreachable_epsilon", ["debias", "-i", "{tmp}/five.csv", "--epsilon", "0.05"]),
    ("bad_scenario", ["synth", "--scenario", "{tmp}/huge.txt"]),
    ("bad_scenario", ["synth", "--scenario", "{tmp}/maxsize.txt"]),
], ids=["non_binary", "bad_encoding", "unreadable_file", "unreadable_stdin",
        "unwritable_missing_dir", "unwritable_dir", "bad_thresholds", "bad_report",
        "bad_report_kind", "bad_epsilon", "bad_seed", "unreachable_epsilon", "bad_scenario",
        "bad_scenario_maxsize"])
def test_every_failure_prints_one_coded_line(code, argv, tmp_path):
    (tmp_path / "data.csv").write_text("pred,corr,group\n1,0,0\n0,1,1\n")
    (tmp_path / "non-binary.csv").write_text("pred,corr,group\n1,0,2\n")
    (tmp_path / "not-utf8.csv").write_bytes(b"pred,corr,group\n1,0,0\n0,1,\xff\n")
    (tmp_path / "thresholds.txt").write_text("FR 0 0.1\n")
    (tmp_path / "five.csv").write_text("pred,group\n1,0\n0,0\n1,1\n0,1\n0,1\n")
    # A metric cell of a kind that is neither "finite" nor "inf".
    report = (Path(__file__).parent / "golden" / "audit.json").read_text()
    (tmp_path / "nan-kind.json").write_text(report.replace('"finite"', '"nan"', 1))
    # Sizes past sys.maxsize, and at it: each must fail before numpy is asked
    # for the array.
    for name, size in (("huge", 99999999999999999999), ("maxsize", sys.maxsize)):
        (tmp_path / f"{name}.txt").write_text(
            dumps_spec(REFERENCE_EXAMPLE).replace("group0.size = 799", f"group0.size = {size}"))
    # stdin open for writing only, so reading it fails.
    with open(tmp_path / "stdin", "wb") as stdin:
        proc = run_python(["-m", "flipaudit.cli", *(arg.format(tmp=tmp_path) for arg in argv)],
                          stdin=stdin)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert re.match(r"error \[[a-z_]+\]: ", line), line
    assert line.startswith(f"error [{code}]: ")


# Imports the package, runs its CLI's main(argv) if argv is given, and prints
# the exit code and the name of every module loaded.
IMPORT_PROBE = """
import sys
import flipaudit
code = 0
if sys.argv[1:]:
    from flipaudit.cli import main
    code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""

# Modules whose loading a case pins down, besides flipaudit's own: numpy for
# label vectors, numpy.random, which placing flips once took, csv for a file
# the strict check declines, json for reports. flipaudit needs neither
# dataclasses nor inspect; numpy imports inspect.
WATCHED = {"numpy", "numpy.random", "csv", "json", "dataclasses", "inspect"}
COUNTING = {"cli", "frame", "tabular", "report", "fairness", "metrics", "thresholds"}


@pytest.mark.parametrize("case", ["import", "version", "audit", "audit_declined", "debias",
                                  "debias_fair", "plot", "pipeline", "pipeline_true_pred",
                                  "pipeline_mixed_true"])
def test_each_command_loads_only_the_modules_it_runs(case, tmp_path):
    golden = Path(__file__).parent / "golden"
    data = (golden / "reference.csv").read_bytes()
    if case == "audit_declined":  # valid, but the strict path declines a quoted header
        data = b'"pred"' + data.removeprefix(b"pred")
    if case == "pipeline_true_pred":  # each row's true label is its prediction
        data = b"".join(row[:-2] + row[:1] + b"\n" for row in data.splitlines(True)[1:])
        data = b"pred,corr,group,true\n" + data
    path, out = tmp_path / "d.csv", tmp_path / "out"
    path.write_bytes(data)
    audit = ["audit", "-i", str(path), "-o", str(out)]
    debias = ["debias", "-o", str(out), "-i"]
    pipeline = ["pipeline", "-i", str(path), "-o", str(out)]
    debiasing = {"cli", "frame", "tabular", "debias", "fairness"}
    piping = COUNTING | {"debias", "pipeline"}
    # argv, exit code, the flipaudit submodules loaded, the WATCHED modules loaded
    argv, code, submodules, watched = {
        "import": ([], 0, set(), set()),
        "version": (["--version"], 0, {"cli", "frame"}, set()),
        "audit": (audit, 3, COUNTING, {"json"}),
        "audit_declined": (audit, 3, COUNTING, {"csv", "json"}),
        # The labels stay byte columns, and flips are drawn by the standard library.
        "debias": ([*debias, str(path)], 0, debiasing, set()),
        "debias_fair": ([*debias, str(golden / "identity.csv")], 0, debiasing, set()),
        "plot": (["plot", "-i", str(golden / "audit.json"), "-o", str(out)], 0,
                 {"cli", "frame", "report", "fairness", "metrics", "thresholds", "chart"},
                 {"json"}),
        # The counts fix every flip, without true labels or with true = pred.
        "pipeline": (pipeline, 3, piping, {"json"}),
        "pipeline_true_pred": ([*pipeline, "--true-col", "true"], 3, piping, {"json"}),
        # Mixed true values: the flips are placed, over the file's byte columns.
        "pipeline_mixed_true": ([*pipeline, "--true-col", "true"], 3, piping, {"json"}),
    }[case]
    proc = run_python(["-c", IMPORT_PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    exit_code, *modules = proc.stdout.splitlines()[-1].split()
    assert int(exit_code) == code
    assert {m for m in modules if m.startswith("flipaudit")} == (
        {"flipaudit"} | {f"flipaudit.{name}" for name in submodules})
    assert WATCHED.intersection(modules) == watched
    if argv[:1] == ["audit"]:
        assert out.read_bytes() == (golden / "audit.txt").read_bytes()
    if case == "pipeline_mixed_true":
        assert out.read_bytes() == (golden / "pipeline.txt").read_bytes()


# A fresh interpreter: the library's label API on lists, files and frames,
# then whether numpy was imported.
LIBRARY_PROBE = """
import sys
import flipaudit
from flipaudit import AuditFrame, frame_to_csv, ingest, sp_equalizing_debiaser
from flipaudit.tabular import ColumnMapping, ingest_rows
strict, declined = sys.argv[1:]
frame = AuditFrame([1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1], (1, 0, 0, 1))
assert frame.counts().n == 4
mapping = ColumnMapping(true_col="true")
assert ingest(strict, mapping) == ingest(declined, mapping)
rows = ingest_rows([["pred", "corr", "group"], ["1", "0", "0"], [" 0", "1", "1"]],
                   ColumnMapping())
assert rows == AuditFrame([1, 0], [0, 1], [0, 1])
corrected = sp_equalizing_debiaser([1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], 0.1)
print(frame_to_csv(AuditFrame([1, 1, 1, 0, 0, 0], corrected, [0, 0, 0, 1, 1, 1])), end="")
print("numpy" in sys.modules)
"""


def test_library_labels_need_no_numpy(tmp_path):
    strict = Path(__file__).parent / "golden" / "reference.csv"
    data = strict.read_bytes()
    declined = tmp_path / "declined.csv"
    declined.write_bytes(data.replace(b"\n1,", b"\n 1,", 1))
    proc = run_python(["-c", LIBRARY_PROBE, str(strict), str(declined)])
    assert proc.returncode == 0, proc.stderr
    *csv_lines, numpy_loaded = proc.stdout.splitlines()
    assert numpy_loaded == "False"
    assert csv_lines[0] == "pred,corr,group" and len(csv_lines) == 7


# A fresh interpreter in which numpy cannot be imported.
NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n"


def test_synth_without_numpy_names_the_extra(tmp_path):
    proc = run_python(["-c", NO_NUMPY + "from flipaudit import REFERENCE_EXAMPLE\n"
                       "from flipaudit import generate_scenario\n"
                       "try:\n    generate_scenario(REFERENCE_EXAMPLE)\n"
                       "except ValueError as exc:\n    print(exc.code, exc)\n"])
    assert proc.returncode == 0, proc.stderr
    code, message = proc.stdout.rstrip("\n").split(" ", 1)
    assert code == "missing_dependency" and "pip install 'flipaudit[synth]'" in message
    out = tmp_path / "out.csv"
    proc = run_python(["-c", NO_NUMPY + "from flipaudit.cli import main\n"
                       "sys.exit(main(sys.argv[1:]))",
                       "synth", "--scenario", "reference-example", "-o", str(out)])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error [missing_dependency]: {message}\n"
    assert not out.exists()


# A fresh interpreter: resolves every submodule as an attribute of the
# package, then each public name, and prints what ``dir`` lists.
PACKAGE_PROBE = """
import pkgutil, types
import flipaudit
for info in pkgutil.iter_modules(flipaudit.__path__):
    assert isinstance(getattr(flipaudit, info.name), types.ModuleType), info.name
namespace = {}
exec("from flipaudit import *", namespace)
assert {name for name in namespace if name != "__builtins__"} == set(flipaudit.__all__)
print(*dir(flipaudit))
"""


def test_package_resolves_each_name_on_first_use():
    proc = run_python(["-c", PACKAGE_PROBE])
    assert proc.returncode == 0, proc.stderr
    assert set(flipaudit.__all__) <= set(proc.stdout.split())
    for name in flipaudit.__all__:
        value = getattr(flipaudit, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        flipaudit.no_such_name
    # A name the CLI does not take stays absent, so a tracer reports it so.
    assert not hasattr(flipaudit.cli, "frame_to_csv")
    assert flipaudit.cli.ingest is flipaudit.tabular.ingest


# One name per command, looked up on the cli module when the command runs.
@pytest.mark.parametrize("name, argv", [
    ("generate_scenario", ["synth", "--scenario", "reference-example"]),
    ("ingest_counts", ["audit", "-i", "{golden}/reference.csv"]),
    ("emit_chart", ["plot", "-i", "{golden}/audit.json"]),
    ("ingest_columns", ["debias", "-i", "{golden}/reference.csv"]),
    ("run_audit_pipeline", ["pipeline", "-i", "{golden}/reference.csv"]),
    # Mixed true values: the flips' rows decide the table, so they are placed.
    ("flip_rows", ["pipeline", "-i", "{golden}/reference.csv", "--true-col", "true"]),
])
def test_commands_call_the_names_set_on_the_cli_module(name, argv, tmp_path, monkeypatch):
    calls = []
    real = getattr(flipaudit.cli, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(flipaudit.cli, name, spy)
    golden = Path(__file__).parent / "golden"
    argv = [arg.format(golden=golden) for arg in argv] + ["-o", str(tmp_path / "out")]
    assert main(argv) in (0, 3)
    assert calls == [name]


@pytest.mark.parametrize("command", ["audit", "debias", "--version", "--help"])
@pytest.mark.parametrize("sink, unbuffered", [
    ("closed_pipe", False), ("dev_full", False), ("closed_pipe", True), ("dev_full", True),
], ids=["closed_pipe", "dev_full", "closed_pipe_unbuffered", "dev_full_unbuffered"])
def test_stdout_write_failure_is_unwritable(command, sink, unbuffered, monkeypatch):
    # Buffered stdout: a short report fails only when it is flushed, and the
    # interpreter flushes again at exit. Unbuffered, a write fails at once,
    # and argparse, printing --help or --version, would ignore the failure.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    argv = ["-m", "flipaudit.cli", command]
    if not command.startswith("--"):
        argv += ["-i", str(Path(__file__).parent / "golden" / "reference.csv")]
    if sink == "dev_full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as stdout:
            proc = run_python(argv, stdout=stdout)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python(argv, stdout=write_end)
        finally:
            os.close(write_end)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith("error [unwritable]: cannot write -: ")


CLOSED = "error [unwritable]: cannot write -: stdout is closed\n"


@pytest.mark.parametrize("args, code, stderr", [
    (["audit", "-i", "{csv}"], 1, CLOSED),
    (["audit", "-i", "{csv}", "-o", os.devnull], 3, ""),  # stdout is not needed
    (["--version"], 1, CLOSED),
], ids=["to_stdout", "to_file", "version"])
def test_closed_stdout_is_unwritable(args, code, stderr):
    # As a shell's `>&-` does, the command starts with no descriptor 1.
    csv_path = str(Path(__file__).parent / "golden" / "reference.csv")
    argv = ["-m", "flipaudit.cli", *(arg.format(csv=csv_path) for arg in args)]
    proc = run_python(argv, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (code, stderr)


def test_closed_stdin_is_unreadable(tmp_path):
    # As a shell's `<&-` does, plot -i - starts with no descriptor 0.
    chart = tmp_path / "chart.svg"
    proc = run_python(["-m", "flipaudit.cli", "plot", "-i", "-", "-o", str(chart)],
                      preexec_fn=lambda: os.close(0))
    assert (proc.returncode, proc.stderr) == (
        1, "error [unreadable]: cannot read -: stdin is closed\n")
    assert not chart.exists()


# Registers an exit handler before the CLI is imported, then leaves through
# the process entry. The handler runs after the entry has frozen the collector.
ENTRY_PROBE = """
import atexit, gc
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
from flipaudit.cli import run
run()
"""


def _review_required_csv(path):
    # Flips (favorable, unfavorable) of (1, 3) and (1, 4) in two groups of 20.
    rows = ["pred,corr,group"]
    for g, fav, unfav in ((0, 1, 3), (1, 1, 4)):
        rest = 20 - fav - unfav
        rows += [f"0,1,{g}"] * fav + [f"1,0,{g}"] * unfav
        rows += [f"1,1,{g}"] * (rest // 2) + [f"0,0,{g}"] * (rest - rest // 2)
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("case, code", [
    ("version", 0), ("proportionate", 0), ("error", 1), ("review", 2), ("disproportionate", 3),
])
def test_process_entry_exits_with_the_code_after_exit_handlers(case, code, tmp_path):
    golden = Path(__file__).parent / "golden"
    _review_required_csv(tmp_path / "review.csv")
    out = ["-o", str(tmp_path / "out.txt")]
    argv = {
        "version": ["--version"],
        "proportionate": ["audit", "-i", str(golden / "identity.csv"), *out],
        "error": ["audit", "-i", str(tmp_path / "missing.csv"), *out],
        "review": ["audit", "-i", str(tmp_path / "review.csv"), *out],
        "disproportionate": ["audit", "-i", str(golden / "reference.csv"), *out],
    }[case]
    proc = run_python(["-c", ENTRY_PROBE, *argv])
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == "frozen at exit: True"
    if case == "version":
        assert proc.stdout.splitlines()[0] == flipaudit.__version__


def test_main_leaves_the_collector_as_it_found_it(reference_csv, tmp_path, capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    for argv in (["--version"], ["audit", "-i", str(reference_csv), "-o", str(tmp_path / "r")],
                 ["audit", "-i", str(tmp_path / "missing.csv")]):
        main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == before, argv


def test_installed_command_runs_the_module_entry():
    # Read by hand: Python 3.10 has no tomllib.
    root = Path(__file__).parent.parent
    section, script = None, None
    for line in (root / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and line.startswith("flipaudit"):
            script = line.partition("=")[2].strip().strip('"')
    source = Path(flipaudit.cli.__file__).read_text()
    [entry] = re.findall(r'^if __name__ == "__main__":\n    (\w+)\(\)\n', source, re.M)
    assert script == f"flipaudit.cli:{entry}"
    assert getattr(flipaudit.cli, entry) is flipaudit.cli.run
