"""dmtlab benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a dmtlab checkout.  Every pass of a workload runs in a
fresh child process (`child.py`) that imports dmtlab from `src/` and calls
`dmtlab.cli.run(argv)` in process for each of the workload's commands; the
seed reaches the program only through the generated argv.  Passes repeat
until `--seconds` is spent, and every metric is the median over the passes.

Every time a pass measures is scaled to the reference speed of the machine
(`calibrate.py`): each command's time is multiplied by
`calibrate.REFERENCE_S` over the mean time of a fixed calibration kernel run
in the same child just before and just after it.  On a shared host the raw
times of one workload drift by up to 2x over minutes; the scaled ones much
less.  The raw medians and the median scale are printed too, on lines of
their own.

With `--trace 0` passes alternate between `DMTLAB_THREADS=nproc` and
`DMTLAB_THREADS=1` with tracing off, and the end-to-end metrics are printed:

  setup_s          child start to dmtlab + numpy imported and the workload's
                   lattices and codebooks loaded (passes of both kinds), scaled
  wall_s           wall time of the workload's commands, scaled
  trials_per_s     trials of the workload per second of wall_s (the audit
                   counts shell points audited + Lemma-2 cases + curve rows)
  trials_per_s_1t  the same with DMTLAB_THREADS=1, the child pinned to one CPU
  scaling_eff      trials_per_s / (nproc * trials_per_s_1t), the median of
                   that ratio over rounds (a round is one pass of each kind,
                   run back to back), so that slow drift cancels
  peak_rss_mb      ru_maxrss of the DMTLAB_THREADS=1 child, whose allocations
                   do not depend on how pool threads interleave

With `--trace 1` untraced passes alternate with traced ones (`tracer.py`),
both at DMTLAB_THREADS=nproc, and the per-layer metrics are printed with the
call census of every public function of linalg, channel, lattice, dmt, sim
and cli.  `<layer>.self_s` sums the self time of the layer's spans; `*_s`
metrics named after a function are its inclusive time; `channel.calls` counts
the channel model (draw, apply, lift, capacity, power), and
`channel.structure_calls` the `quaternionic_defect` predicate that lattice
construction calls; `sim.candidates` is trials x |C| summed over SNR points;
`sim.pool_busy_frac` is the quaternion Wishart draw time over nproc times the
time of the estimator calls that make those draws; `trace.overhead_s` is the
traced minus the untraced wall time.  Times and rates are scaled as above.

Every command is one operation.  It fails when it raises, exits non-zero or
prints a wrong output (`workloads.check`), or when its events differ from
those of another pass of the same run, whatever the thread count.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CENSUS_PATH = os.path.join(HERE, "reference", "census.json")

# Address-space cap (RLIMIT_AS) each child sets on itself.  Sizing rule: the
# ML decode holds chunk x |C| complex 2m x 2p candidate matrices (64 B each at
# m = 1, n = 2) plus about 1.5 times that in temporaries, per pool worker.
# The heaviest point here, error-shaped at 15 dB (two 50k-trial chunks on two
# workers, |C| = 33), needs ~0.5 GB that way; a child's whole address space
# stays under 1 GB with the glibc arenas and OpenBLAS buffers.  3 GiB
# leaves room for a few times that, while a 30 dB point (|C| = 1257, 50k-trial
# chunk: 50000 x 1257 x 64 B = 4.0 GB for the candidates alone, per worker)
# fails with MemoryError as a counted operation instead of running a 7.6 GB
# machine out of memory.
AS_LIMIT = 3 << 30
DEADLINE_S = 170.0  # a run must end within 180 s, whatever the program does

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "OMP_PROC_BIND", "OMP_PLACES", "GOTO_NUM_THREADS")
ESTIMATORS = ("sim.estimate_outage", "sim.estimate_error_prob")
WISHART = "sim.sample_wishart_quaternion_batch"
STRUCTURE = "channel.quaternionic_defect"


def run_child(commands, threads, trace, deadline, as_limit=AS_LIMIT, cpus=None):
    """(report, None) of one pass, or (None, reason) when it gave no report.
    `cpus`, when given, are the only CPUs the child may run on."""
    env = dict(os.environ, DMTLAB_THREADS=str(threads))
    job = json.dumps({"commands": commands, "as_limit": as_limit, "trace": trace,
                      "cpus": cpus})
    try:
        proc = subprocess.run([sys.executable, CHILD, job], env=env, text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "no report"


def run_passes(commands, threads, seconds):
    """[{kind: (report, reason)}] of rounds of one pass per kind of `threads`
    ({kind: DMTLAB_THREADS}), repeated while the next round is expected to end
    within `seconds`.  A 1-thread pass is pinned to one CPU, the next one in
    each round: its calibration then times the CPU it runs on, where the vCPUs
    of a shared host otherwise differ in speed by up to a quarter."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    cpus = sorted(os.sched_getaffinity(0))
    rounds = []
    while True:
        begun = time.monotonic()
        pin = [cpus[len(rounds) % len(cpus)]]
        rounds.append({kind: run_child(commands, n, kind == "traced", deadline,
                                       cpus=pin if n == 1 else None)
                       for kind, n in threads.items()})
        now = time.monotonic()
        if any(report is None for report, _ in rounds[-1].values()):
            break
        if now - start + (now - begun) > seconds:
            break
    return rounds


# ---------------------------------------------------------------------------
# gate

def tally(rounds, commands, seed, reference):
    """(attempted, failed, problems) over every command of every pass."""
    attempted = failed = 0
    problems = []
    first_csv = {}
    for round_ in rounds:
        for kind, (report, reason) in round_.items():
            if report is None:
                attempted += len(commands)
                failed += len(commands)
                problems.append(f"{kind} pass: {reason}")
                continue
            trace_fault = trace_problem(report, commands) if report["trace"] else None
            for (label, argv), res in zip(commands, report["results"]):
                found = command_problems(label, argv, seed, res, reference, first_csv)
                if trace_fault and argv[0] in wl.STOCHASTIC:
                    found.append(trace_fault)
                attempted += 1
                if found:
                    failed += 1
                    problems.append(f"{kind} pass, {label}: {'; '.join(found)}")
    return attempted, failed, problems


def command_problems(label, argv, seed, res, reference, first_csv):
    if res["error"]:
        return [res["error"]]
    found = wl.check(label, argv, seed, res["rc"], res["stdout"], reference)
    if not found and argv[0] in wl.STOCHASTIC:
        csv, _ = wl.split_sweep(res["stdout"])
        if csv != first_csv.setdefault(label, csv):
            found.append("events differ from another pass of this run")
    return found


def trace_problem(report, commands):
    """The trials and events the traced estimators returned must be the
    trials asked for and the events the CSVs report (checked when every
    stochastic command of the pass exited 0; a failed one fails the gate)."""
    funcs = report["trace"]["functions"]
    counted = [sum(funcs[f]["work"].get(key, 0) for f in ESTIMATORS)
               for key in ("trials", "events")]
    trials = events = 0
    for (_, argv), res in zip(commands, report["results"]):
        if argv[0] in wl.STOCHASTIC:
            if res["rc"] != 0:
                return None
            trials += sum(wl.trials_per_point(argv))
            try:
                csv, _ = wl.split_sweep(res["stdout"])
                events += sum(e for _, e in wl.sweep_rows(csv))
            except (ValueError, IndexError):
                return None
    if counted != [trials, events]:
        return f"trace counted {counted} trials/events, expected {[trials, events]}"
    return None


# ---------------------------------------------------------------------------
# metrics

def median_of(rounds, kind, key, scaled=True):
    """Median over the passes of `kind` of a report's `key`, scaled to the
    reference speed (a time) unless `scaled` is false."""
    return statistics.median(r[kind][0][key] * (r[kind][0]["scale"] if scaled else 1.0)
                             for r in rounds if r[kind][0])


def end_to_end(rounds, work, nproc):
    setups = [report["setup_s"] * report["scale"]
              for r in rounds for report, _ in r.values() if report]
    wall, wall_1t = median_of(rounds, "plain", "wall_s"), median_of(rounds, "1t", "wall_s")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "trials_per_s": (work / wall, "1/s"),
        "trials_per_s_1t": (work / wall_1t, "1/s"),
        "scaling_eff": (statistics.median(
            r["1t"][0]["wall_s"] * r["1t"][0]["scale"]
            / (nproc * r["plain"][0]["wall_s"] * r["plain"][0]["scale"])
            for r in rounds if r["1t"][0] and r["plain"][0]), "ratio"),
        "peak_rss_mb": (median_of(rounds, "1t", "maxrss_mb", scaled=False), "MB"),
    }


def layer_metrics(summary, candidates, threads):
    """Per-layer metrics of one traced pass."""
    funcs = summary["functions"]

    def calls(*names):
        return sum(funcs[n]["calls"] for n in names)

    def incl(*names):
        return sum(funcs[n]["incl_s"] for n in names)

    def work(key, *names):
        return sum(funcs[n]["work"].get(key, 0) for n in names)

    def self_s(layer):
        return sum(row["self_s"] for n, row in funcs.items() if n.startswith(layer + "."))

    def rate(num, den):
        return num / den if den else 0.0

    decode_s = funcs["sim.estimate_error_prob"]["self_s"]
    wishart_s = incl(WISHART)
    enum_s = incl("lattice.shell_coordinates")
    enum_points = work("points", "lattice.shell_coordinates")
    codebooks = ("lattice.shape_codebook", "lattice.fixed_codebook")
    model = [n for n in funcs if n.startswith("channel.") and n != STRUCTURE]
    return {
        "sim.self_s": (self_s("sim"), "s"),
        "sim.candidates": (candidates, "count"),
        "sim.candidates_per_s": (rate(candidates, decode_s), "1/s"),
        "sim.wishart_q_calls": (calls(WISHART), "count"),
        "sim.wishart_q_busy_s": (wishart_s, "s"),
        "sim.wishart_q_rows_per_s": (rate(work("rows", WISHART), wishart_s), "1/s"),
        "sim.pool_busy_frac": (rate(wishart_s, threads * summary["wishart_parent_s"]), "ratio"),
        "sim.trials": (work("trials", *ESTIMATORS), "count"),
        "sim.events": (work("events", *ESTIMATORS), "count"),
        "sim.fit_s": (incl("sim.fit_slope"), "s"),
        "lattice.load_s": (incl("lattice.load_lattice"), "s"),
        "lattice.codebook_s": (incl(*codebooks), "s"),
        "lattice.codewords": (work("codewords", *codebooks), "count"),
        "lattice.enum_s": (enum_s, "s"),
        "lattice.enum_points": (enum_points, "count"),
        "lattice.enum_points_per_s": (rate(enum_points, enum_s), "1/s"),
        "lattice.point_s": (incl("lattice.point_from_coordinates"), "s"),
        "lattice.self_s": (self_s("lattice"), "s"),
        "linalg.det_calls": (calls("linalg.determinant"), "count"),
        "linalg.det_s": (incl("linalg.determinant"), "s"),
        "linalg.self_s": (self_s("linalg"), "s"),
        "dmt.oracle_calls": (calls("dmt.lemma2_bruteforce"), "count"),
        "dmt.oracle_s": (incl("dmt.lemma2_bruteforce"), "s"),
        "dmt.closed_form_calls": (calls("dmt.lemma2_closed_form"), "count"),
        "dmt.curves_s": (incl("dmt.sample_curves"), "s"),
        "dmt.self_s": (self_s("dmt"), "s"),
        "channel.calls": (calls(*model), "count"),
        "channel.s": (incl(*model), "s"),
        "channel.structure_calls": (calls(STRUCTURE), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.spans": (summary["spans"], "count"),
    }


def per_layer(rounds, commands, nproc):
    traced = [r["traced"][0] for r in rounds if r["traced"][0]]
    sizes = traced[0]["codebook_sizes"]
    candidates = sum(t * c for label, argv in commands if sizes[label]
                     for t, c in zip(wl.trials_per_point(argv), sizes[label]))
    each = [{name: (value * scaled_by(unit, r["scale"]), unit) for name, (value, unit)
             in layer_metrics(r["trace"], candidates, nproc).items()} for r in traced]
    out = {name: (statistics.median(m[name][0] for m in each), unit)
           for name, (_, unit) in each[0].items()}
    out["trace.overhead_s"] = (median_of(rounds, "traced", "wall_s")
                               - median_of(rounds, "plain", "wall_s"), "s")
    return out


def scaled_by(unit, scale):
    """The factor that brings a metric in `unit` to the reference speed."""
    return {"s": scale, "1/s": 1.0 / scale}.get(unit, 1.0)


def raw_lines(rounds):
    """Unscaled medians of each kind of pass, for the reader."""
    lines = []
    for kind in rounds[0]:
        lines.append(f"raw {kind}: wall_s {median_of(rounds, kind, 'wall_s', False)} s, "
                     f"setup_s {median_of(rounds, kind, 'setup_s', False)} s, "
                     f"scale {median_of(rounds, kind, 'scale', False)}")
    return lines


def census_lines(workload, report):
    """The call census of one traced pass and its differences from the
    reference census recorded at the seed commit."""
    census = {n: row["calls"] for n, row in report["trace"]["functions"].items()}
    lines = [f"census {workload} " + json.dumps(census, sort_keys=True)]
    with open(CENSUS_PATH, encoding="utf-8") as fh:
        ref = json.load(fh).get(workload, {})
    for name in sorted(set(census) | set(ref)):
        if census.get(name) != ref.get(name):
            lines.append(f"census change {name}: {ref.get(name)} -> {census.get(name)}")
    return lines


# ---------------------------------------------------------------------------
# manifest

def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, commands, threads, rounds, nproc):
    report = next(rep for r in rounds for rep, _ in r.values() if rep)
    stochastic = [(label, argv) for label, argv in commands if argv[0] in wl.STOCHASTIC]
    return {
        "commit": git_commit(), **report["versions"], "nproc": nproc,
        "dmtlab_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
        "as_limit_bytes": AS_LIMIT,
        "passes": {kind: sum(1 for r in rounds if r[kind][0]) for kind in threads},
        "commands": {label: argv for label, argv in commands},
        "trials_per_point": {label: wl.trials_per_point(argv) for label, argv in stochastic},
        "codebook_sizes": {k: v for k, v in report["codebook_sizes"].items() if v},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dmtlab", "cli.py")):
        print("error: src/dmtlab is missing; run from the root of a dmtlab checkout",
              file=sys.stderr)
        return 2
    reference = wl.load_reference()
    nproc = len(os.sched_getaffinity(0))
    commands = wl.commands(args.workload, args.seed)
    threads = ({"plain": nproc, "traced": nproc} if args.trace
               else {"plain": nproc, "1t": 1})
    rounds = run_passes(commands, threads, args.seconds)
    attempted, failed, problems = tally(rounds, commands, args.seed, reference)
    if not all(any(r[kind][0] for r in rounds) for kind in threads):
        print("error: a kind of pass never produced a report: " + "; ".join(problems),
              file=sys.stderr)
        return 1

    print("manifest " + json.dumps(manifest(args, commands, threads, rounds, nproc),
                                   sort_keys=True))
    for line in problems:
        print("problem: " + line)
    for line in raw_lines(rounds):
        print(line)
    if args.trace:
        metrics = per_layer(rounds, commands, nproc)
        traced = next(r["traced"][0] for r in rounds if r["traced"][0])
        for line in census_lines(args.workload, traced):
            print(line)
    else:
        metrics = end_to_end(rounds, wl.work_count(args.workload), nproc)
    print(f"fail_frac {failed / attempted} ratio ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
