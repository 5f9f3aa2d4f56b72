"""Smoke tests of the reproduction scripts.  The sweep scripts run end to
end with the sweep replaced by a stub that parses its argv as the CLI would,
so a CLI change that breaks a script fails here; the curve script runs for
real and must reproduce its committed results byte for byte."""

import importlib.util
import json
from pathlib import Path

import pytest

from dmtlab import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,commands", [("outage_sweep", 6), ("error_slope_experiment", 1)])
def test_script_runs(name, commands, tmp_path, monkeypatch):
    calls = []

    def stub(argv):
        args = cli._build_parser().parse_args(argv)  # a rejected argv exits
        cli._parse_numbers(args.snr_db, "--snr-db")
        assert all(t.is_integer() for t in cli._parse_numbers(args.trials, "--trials"))
        calls.append(args.command)
        Path(args.summary).write_text(json.dumps(
            {"slope": 1.0, "stderr": 0.1, "theory_d1": 0.5, "theory_d2": 1.0}),
            encoding="utf-8")
        return 0

    script = _load(name)
    monkeypatch.setattr(script, "run", stub)
    monkeypatch.setattr(script, "OUTDIR", tmp_path)
    script.main()
    assert len(calls) == commands and set(calls) <= {"outage", "error"}
    if name == "outage_sweep":
        rows = (tmp_path / "outage_sweep.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1] == "mode,r,slope,stderr,theory" and len(rows) == 2 + commands


def test_curve_script_reproduces_results(tmp_path, monkeypatch):
    script = _load("reproduce_curve_figure")
    monkeypatch.setattr(script, "OUTDIR", tmp_path)
    script.main()
    for name in ("curves_n4_m2.csv", "curves_n4_m2_anchors.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / "results" / name).read_bytes()


def test_code_lines_counts_code_only(capsys):
    # blank lines, comment-only lines and docstrings are not code; a string
    # statement that is not a docstring, and every line of a statement split
    # over lines, are
    script = _load("code_lines")
    source = '''"""Module
docstring."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """One line."""
        x = (1,
             2)
        "not a docstring"
        return x
'''
    assert script.code_lines(source) == 7
    assert script.main([str(ROOT / "src" / "dmtlab")]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows] == sorted(p.name for p in
                                                (ROOT / "src" / "dmtlab").glob("*.py")) + ["total"]
    assert sum(int(n) for _, n in rows[:-1]) == int(rows[-1][1]) > 0
