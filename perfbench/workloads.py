"""The benchmark's workloads and the gate that checks their outputs.

Each workload is a fixed list of dmtlab CLI commands; the seed given to the
benchmark is the only input that varies, and it reaches the program only as
the `--seed` of the stochastic commands.  Every command is one operation:
it fails when it raises, exits non-zero, or its output is wrong.
"""

from __future__ import annotations

import json
import math
import os

DEFAULT_SEED = 20240
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference", "outputs.json")

_ERROR = ["error", "--mode", "quaternion", "--lattice", "hamilton",
          "--n", "2", "--m", "1"]
_OUTAGE = ["--n", "2", "--m", "1", "--r", "0.5", "--snr-db", "10,15,20,25,30",
           "--trials", "200000"]

# label -> argv without the seed; stochastic commands get `--seed` appended.
# error-r0 is acceptance criterion 7 with every trial count divided by 200.
# error-shaped stops at 25 dB: the 30 dB shell (|C| = 1257) needs ~4 GB of
# candidates per worker at the default 50k chunk.  Its 15 dB point fills two
# whole chunks, so the per-chunk candidate memory shows in peak RSS.
# The audit radii give about 10^4 shell points per order.
WORKLOADS = {
    "error-r0": {
        "error-r0": _ERROR + ["--r", "0", "--snr-db", "14,17,20,23,26",
                              "--trials", "500,2000,8000,32000,128000"],
    },
    "error-shaped": {
        "error-shaped": _ERROR + ["--r", "0.5", "--snr-db", "15,20,25",
                                  "--trials", "100000,5000,2000"],
    },
    "outage": {
        "outage-real": ["outage", "--mode", "real"] + _OUTAGE,
        "outage-quaternion": ["outage", "--mode", "quaternion"] + _OUTAGE,
    },
    "audit": {
        "audit-hamilton": ["lattice-audit", "--lattice", "hamilton", "--radius", "9.5"],
        "audit-split": ["lattice-audit", "--lattice", "split", "--radius", "15"],
        "lemma2": ["lemma2-verify", "--qmax", "6", "--lmax", "4",
                   "--sstep", "0.25", "--gridstep", "0.02"],
        "curves": ["curves", "--n", "4", "--m", "2"],
    },
}

STOCHASTIC = ("error", "outage")


def commands(workload, seed):
    """[(label, argv)] of one pass of `workload` at `seed`."""
    out = []
    for label, argv in WORKLOADS[workload].items():
        if argv[0] in STOCHASTIC:
            argv = argv + ["--seed", str(seed)]
        out.append((label, list(argv)))
    return out


def option(argv, name):
    return argv[argv.index(name) + 1]


def trials_per_point(argv):
    """Trials per SNR point of a stochastic command, as its argv asks."""
    snr = option(argv, "--snr-db").split(",")
    trials = [int(v) for v in option(argv, "--trials").split(",")]
    return trials * len(snr) if len(trials) == 1 else trials


def work_count(workload):
    """Operations a pass completes: Monte Carlo trials, or for the audit the
    shell points audited plus Lemma-2 cases plus curve rows."""
    if workload == "audit":
        return load_reference()["audit_items"]
    return sum(sum(trials_per_point(argv)) for _, argv in commands(workload, 0)
               if argv[0] in STOCHASTIC)


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output gate

def split_sweep(stdout):
    """(csv text, summary dict) of an error/outage command written to stdout."""
    csv, _, summary = stdout.rstrip("\n").rpartition("\n")
    return csv + "\n", json.loads(summary)


def sweep_rows(csv):
    """[(trials, events)] of each SNR point of a sweep CSV."""
    rows = []
    for line in csv.splitlines()[2:]:
        fields = line.split(",")
        rows.append((int(fields[2]), int(fields[3])))
    return rows


def check(label, argv, seed, rc, stdout, reference):
    """Problems with one command's result; an empty list means it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    ref = reference["outputs"][label]
    try:
        if argv[0] in STOCHASTIC:
            return _check_sweep(argv, seed, stdout, ref)
        if argv[0] == "lattice-audit":
            report = json.loads(stdout)
            problems = []
            if report["nvd"] is not True:
                problems.append("nvd is not true")
            if not abs(report["min_det"] - 1.0) <= 1e-9:
                problems.append(f"min_det {report['min_det']!r} != 1")
            if report["points"] != json.loads(ref)["points"]:
                problems.append(f"{report['points']} shell points, reference "
                                f"{json.loads(ref)['points']}")
            return problems
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return [] if stdout == ref else ["output differs from the reference"]


def _check_sweep(argv, seed, stdout, ref):
    csv, _ = split_sweep(stdout)
    ref_csv, _ = split_sweep(ref)
    if seed == DEFAULT_SEED:
        return [] if csv == ref_csv else ["CSV differs from the reference"]
    problems = []
    header = csv.splitlines()[0]
    if not header.startswith(f"# seed={seed} command={argv[0]} "):
        problems.append(f"header {header!r} does not echo the seed")
    rows = sweep_rows(csv)
    expected = trials_per_point(argv)
    if [t for t, _ in rows] != expected:
        problems.append(f"trials {[t for t, _ in rows]} != requested {expected}")
    # Another seed gives other events; each point must stay within 6 sigma of
    # the rate the reference seed measured (both counts are binomial).
    for (trials, events), (ref_trials, ref_events) in zip(rows, sweep_rows(ref_csv)):
        p = ref_events / ref_trials
        sigma = math.sqrt(trials * p * (1.0 - p) * (1.0 + trials / ref_trials))
        if abs(events - trials * p) > 6.0 * sigma + 5.0:
            problems.append(f"{events} events in {trials} trials, reference "
                            f"rate {p:.4g}")
    return problems
