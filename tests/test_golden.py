"""The CLI's output bytes and exit codes on fixed inputs, against stored fixtures.

The fixtures in ``tests/golden/`` are the CLI's own output: rendering or
counting changes that alter a single byte of a report, chart or synthesized
CSV fail here.
"""

from pathlib import Path

import pytest

from flipaudit.cli import main

GOLDEN = Path(__file__).parent / "golden"

# fixture -> (argv producing it, expected exit code)
CASES = {
    "reference.csv": (["synth", "--scenario", "reference-example"], 0),
    "audit.txt": (["audit", "-i", "reference.csv"], 3),
    "audit.json": (["audit", "-i", "reference.csv", "--format", "structured"], 3),
    "chart.svg": (["plot", "-i", "audit.json"], 0),
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
