"""The CLI's output bytes and exit codes on fixed inputs, against stored fixtures.

The fixtures in ``tests/golden/`` are the CLI's own output: rendering or
counting changes that alter a single byte of a report, chart or synthesized
CSV fail here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flipaudit
from flipaudit import parse_structured, render_structured
from flipaudit.cli import main

GOLDEN = Path(__file__).parent / "golden"

# fixture -> (argv producing it, expected exit code)
CASES = {
    "reference.csv": (["synth", "--scenario", "reference-example"], 0),
    "audit.txt": (["audit", "-i", "reference.csv"], 3),
    "audit.json": (["audit", "-i", "reference.csv", "--format", "structured"], 3),
    "chart.svg": (["plot", "-i", "audit.json"], 0),
    # Flips in two cells: 9 down in group 0, then 105 up in group 1.
    "debias.csv": (["debias", "-i", "reference.csv", "--true-col", "true",
                    "--epsilon", "1e-4"], 0),
    "pipeline.txt": (["pipeline", "-i", "reference.csv", "--true-col", "true"], 3),
    "pipeline.json": (["pipeline", "-i", "reference.csv", "--true-col", "true",
                       "--format", "structured"], 3),
    "identity.txt": (["audit", "-i", "identity.csv"], 0),
    "identity.json": (["audit", "-i", "identity.csv", "--format", "structured"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_fixture(name, tmp_path, monkeypatch):
    argv, exit_code = CASES[name]
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / name
    assert main([*argv, "-o", str(out)]) == exit_code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_debias_fixture_does_not_depend_on_the_privileged_flag(tmp_path, monkeypatch):
    # With --privileged 0 the file's group 0 is read as group 1, so the
    # over-favored group is internally group 1: the same rows still flip.
    argv, exit_code = CASES["debias.csv"]
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "debias.csv"
    assert main([*argv, "--privileged", "0", "-o", str(out)]) == exit_code
    assert out.read_bytes() == (GOLDEN / "debias.csv").read_bytes()


@pytest.mark.parametrize("name", ["audit.json", "identity.json", "pipeline.json"])
def test_structured_fixture_round_trips_byte_for_byte(name):
    # pipeline.json holds both fairness blocks and an EO gap; its decision
    # is not part of the report, so it is passed back in.
    data = (GOLDEN / name).read_bytes()
    decision = json.loads(data).get("decision")
    assert render_structured(parse_structured(data.decode()), decision=decision).encode() == data


def respelled(value):
    """``value`` with every integral float written as an int and each fairness ``note`` left out."""
    if isinstance(value, dict):
        return {key: respelled(item) for key, item in value.items()
                if not (key == "note" and "sp_pass" in value)}
    if isinstance(value, list):
        return [respelled(item) for item in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


@pytest.mark.parametrize("name", ["audit.json", "identity.json", "pipeline.json"])
def test_structured_fixture_parses_in_any_spelling(name):
    # Key order, whitespace, 1 for 1.0 and a left-out note are free.
    text = (GOLDEN / name).read_text()
    data = json.loads(text)
    spelled = json.dumps(respelled(data), sort_keys=True)
    assert spelled != json.dumps(data, sort_keys=True)
    assert parse_structured(spelled) == parse_structured(text)


# A locale whose encoding cannot hold the reports' "∞" and "≤".
ASCII_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONIOENCODING": "ascii"}


@pytest.mark.parametrize("name", ["audit.txt", "chart.svg"])
@pytest.mark.parametrize("to_stdout", [False, True])
def test_output_bytes_do_not_depend_on_locale(name, to_stdout, tmp_path):
    argv, exit_code = CASES[name]
    out = tmp_path / name
    src = Path(flipaudit.__file__).parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **ASCII_LOCALE, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "flipaudit.cli", *argv, "-o", "-" if to_stdout else str(out)],
        cwd=GOLDEN, env=env, capture_output=True,
    )
    assert (proc.returncode, proc.stderr) == (exit_code, b"")
    written = proc.stdout if to_stdout else out.read_bytes()
    assert written == (GOLDEN / name).read_bytes()
