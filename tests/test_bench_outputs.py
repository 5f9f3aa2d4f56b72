"""The benchmark (perfbench/) pins the outputs of its commands at its
default seed in perfbench/reference/outputs.json.  Running every command
here makes a change that moves an event count or a fitted slope fail the
tests, not only the benchmark's gate.  The sweeps must match the reference
byte for byte, summary JSON (with the slope) included; the other commands
go through the gate's own check, since an audit's min_det may differ from
the reference in its last digits."""

import importlib
from pathlib import Path

from dmtlab.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_commands_match_reference(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = workloads.load_reference()
    seed = workloads.DEFAULT_SEED
    problems = {}
    for name in workloads.WORKLOADS:
        for label, argv in workloads.commands(name, seed):
            rc = run(argv)
            stdout = capsys.readouterr().out
            found = workloads.check(label, argv, seed, rc, stdout, reference)
            if argv[0] in workloads.STOCHASTIC and stdout != reference["outputs"][label]:
                found.append("stdout differs from the reference")
            if found:
                problems[label] = found
    assert problems == {}
