"""Negative controls: the gate counts wrong outputs, non-zero exits and
memory-cap failures as failed operations.

    python3 -m pytest perfbench

Run from the root of a dmtlab checkout (the passes import dmtlab from src/).
"""

import re
import time

import run
import workloads as wl

REFERENCE = wl.load_reference()


def bump_first_event(stdout):
    """The sweep output with the events of its first SNR point plus one."""
    lines = stdout.split("\n")
    fields = lines[2].split(",")
    fields[3] = str(int(fields[3]) + 1)
    lines[2] = ",".join(fields)
    return "\n".join(lines)


def fake_report(commands, stdouts):
    return {"trace": None, "results": [
        {"label": label, "rc": 0, "stdout": out, "stderr": "", "error": None}
        for (label, _), out in zip(commands, stdouts)]}


def test_tampered_reference_output_is_counted():
    commands = wl.commands("error-r0", wl.DEFAULT_SEED)
    good = REFERENCE["outputs"]["error-r0"]
    rounds = [{"plain": (fake_report(commands, [good]), None),
               "1t": (fake_report(commands, [bump_first_event(good)]), None)}]
    attempted, failed, problems = run.tally(rounds, commands, wl.DEFAULT_SEED, REFERENCE)
    assert (attempted, failed) == (2, 1)
    assert "differs from the reference" in problems[0]


def test_event_off_by_one_between_passes_is_counted(monkeypatch):
    # At a seed without a recorded output, one event more than another pass
    # of the same run is still a failure, though it is statistically plausible.
    monkeypatch.chdir(run.os.path.dirname(run.HERE))
    commands = wl.commands("error-r0", 7)
    report, reason = run.run_child(commands, 1, False, time.monotonic() + 120)
    assert reason is None
    out = report["results"][0]["stdout"]
    assert wl.check("error-r0", commands[0][1], 7, 0, bump_first_event(out), REFERENCE) == []
    rounds = [{"plain": (report, None),
               "1t": (fake_report(commands, [bump_first_event(out)]), None)}]
    attempted, failed, problems = run.tally(rounds, commands, 7, REFERENCE)
    assert (attempted, failed) == (2, 1)
    assert "events differ" in problems[0]


def test_nonzero_exit_is_counted(monkeypatch):
    monkeypatch.chdir(run.os.path.dirname(run.HERE))
    label, argv = wl.commands("error-r0", wl.DEFAULT_SEED)[0]
    at = argv.index("--m") + 1
    bad = [(label, argv[:at] + ["0"] + argv[at + 1:])]  # no receive antenna: exit 2
    report, reason = run.run_child(bad, 2, False, time.monotonic() + 120)
    assert reason is None and report["results"][0]["rc"] == 2
    attempted, failed, problems = run.tally([{"plain": (report, None)}], bad,
                                            wl.DEFAULT_SEED, REFERENCE)
    assert (attempted, failed) == (1, 1)
    assert "exit code 2" in problems[0]


def test_memory_cap_failure_is_counted(monkeypatch):
    # Under a 400 MiB address-space cap the 15 dB decode (two workers, each
    # with a 50k x 33 candidate tensor) cannot allocate; the pass survives and
    # the command counts as failed.
    monkeypatch.chdir(run.os.path.dirname(run.HERE))
    commands = wl.commands("error-shaped", wl.DEFAULT_SEED)
    report, reason = run.run_child(commands, 2, False, time.monotonic() + 120,
                                   as_limit=400 << 20)
    assert reason is None
    assert re.search("MemoryError|Unable to allocate", report["results"][0]["error"])
    attempted, failed, _ = run.tally([{"plain": (report, None)}], commands,
                                     wl.DEFAULT_SEED, REFERENCE)
    assert (attempted, failed) == (1, 1)


def test_missing_report_counts_every_command():
    commands = wl.commands("audit", wl.DEFAULT_SEED)
    attempted, failed, _ = run.tally([{"plain": (None, "exit code -9")}], commands,
                                     wl.DEFAULT_SEED, REFERENCE)
    assert attempted == failed == len(commands)
