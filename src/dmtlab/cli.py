"""Command-line front end.

Subcommands emit CSV/JSON only (plotting is out of scope):

  curves        tradeoff curve family sampled at r steps of 0.01, and its anchors
  outage        Monte Carlo outage sweep + slope summary
  error         Monte Carlo ML block-error sweep + slope summary
  lemma2-verify closed form vs exact vertex-oracle sweep
  lattice-audit shell enumeration and determinant audit of an order
  wishart-check sample-moment and pairing checks of the spectrum samplers

SNR is accepted in dB everywhere (rho = 10^(dB/10)).  Exit codes: 0 success,
2 validation error (diagnostic names the violated precondition), 3
unwritable output.  Stochastic outputs echo their seed in the header.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import dmt, lattice, sim
from .channel import MODES, SystemConfig


class OutputError(RuntimeError):
    """The requested output path cannot be written."""


def _write_text(path, text):
    """Write `text`, a string or an iterable of strings written in turn, to
    `path` (stdout when None)."""
    pieces = [text] if isinstance(text, str) else text
    if path is None:
        for piece in pieces:
            sys.stdout.write(piece)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for piece in pieces:
                fh.write(piece)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _fmt(v):
    return f"{v:.12g}"


# ---------------------------------------------------------------------------
# curves

# Rows of the curve CSV formatted into one string at a time: the largest
# grid the cap accepts (10^6 rows) peaked at 388 MB as one text.
CSV_BLOCK_ROWS = 10_000


def _cmd_curves(args):
    fam, rows = dmt.sample_curves(args.n, args.m)
    blocks = ("".join(",".join(_fmt(v) for v in row) + "\n"
                      for row in rows[lo:lo + CSV_BLOCK_ROWS].tolist())
              for lo in range(0, len(rows), CSV_BLOCK_ROWS))
    _write_text(args.out, itertools.chain(["r,d_star,d1,d2\n"], blocks))
    if args.anchors_out:
        payload = [fam[name].to_json(name) for name in ("d_star", "d1", "d2")]
        _write_text(args.anchors_out, json.dumps(payload, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# outage / error

def _parse_numbers(value, flag):
    """The numbers of a comma-separated string; a bad or empty list is
    rejected with a message naming `flag`."""
    try:
        nums = [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        nums = []
    if not nums:
        raise ValueError(f"{flag} must be numbers, got {value!r}")
    return nums


def _check_seed(seed):
    """Reject a seed below 0, which numpy would reject naming no flag."""
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def _sweep_csv(command, cfg, seed, est):
    lines = [f"# seed={seed} command={command} mode={cfg.mode} "
             f"n={cfg.n} m={cfg.m} r={_fmt(cfg.r)}",
             "snr_db,rate_bits,trials,events,prob,stderr"]
    for db, prob, trials, events in zip(est.snr_db, est.probs, est.trials, est.events):
        rho = 10.0 ** (db / 10.0)
        rate = cfg.r * math.log2(rho) + 0.0  # 0 * log2(rho < 1) = -0.0 prints as 0
        se = math.sqrt(max(prob * (1.0 - prob), 0.0) / trials)
        lines.append(",".join([_fmt(db), _fmt(rate), str(trials), str(events),
                               _fmt(prob), _fmt(se)]))
    return "\n".join(lines) + "\n"


def _summary_json(cfg, seed, est):
    # a finished sweep had r inside both curves' domain [0, min(m, n/2)]
    d1 = dmt.d1_curve(cfg.n, cfg.m)(cfg.r)
    d2 = None if cfg.n % 2 else dmt.d2_curve(cfg.n, cfg.m)(cfg.r)
    out = {"mode": cfg.mode, "n": cfg.n, "m": cfg.m, "r": cfg.r,
           "seed": seed,
           "slope": None if math.isnan(est.slope) else est.slope,
           "stderr": None if math.isnan(est.stderr) else est.stderr,
           "theory_d1": d1, "theory_d2": d2}
    return json.dumps(out, sort_keys=True) + "\n"


def _cmd_sweep(args):
    """The outage or ML-error sweep named by the subcommand, its parameters
    read from the flags.  One --trials count serves every SNR point."""
    snr_db = _parse_numbers(args.snr_db, "--snr-db")
    _check_seed(args.seed)
    cfg = SystemConfig(mode=args.mode, n=args.n, m=args.m, r=args.r)
    trials = _parse_numbers(args.trials, "--trials")  # whole counts: sim._sweep checks
    sweep = (functools.partial(sim.estimate_error_prob, lattice.load_lattice(args.lattice))
             if args.command == "error" else sim.estimate_outage)
    est = sweep(cfg, snr_db, trials, np.random.default_rng(args.seed), weighting=args.weighting)
    _write_text(args.out, _sweep_csv(args.command, cfg, args.seed, est))
    _write_text(args.summary, _summary_json(cfg, args.seed, est))
    return 0


# ---------------------------------------------------------------------------
# lemma2-verify

# The oracle is exact; the closed form rounds a few times in floats.
LEMMA2_TOL = 1e-12


def _cmd_lemma2(args):
    cases = dmt.lemma2_cases(args.qmax, args.lmax, args.sstep)
    # --gridstep sets nothing since the oracle is exact, but a value that
    # once set a tolerance covering every value of f is still refused
    if args.gridstep is not None:
        if not (args.gridstep > 0 and math.isfinite(args.gridstep)):
            raise ValueError(f"--gridstep must be positive and finite, got {args.gridstep:g}")
        if args.gridstep >= 0.5:
            raise ValueError(f"--gridstep must be below 0.5, got {args.gridstep:g}")
    failures = []
    for prob in cases:
        value, alpha = dmt.lemma2_closed_form(prob)
        brute = dmt.lemma2_bruteforce(prob)
        feasible = dmt.a0_membership(alpha, prob.s)
        attained = abs(float(prob.coefficients() @ alpha) - value) <= 1e-12
        if abs(value - brute) > LEMMA2_TOL or not feasible or not attained:
            failures.append((int(prob.q), prob.l, prob.s, value, brute, feasible, attained))
    if failures:
        for f in failures:
            print(f"VIOLATION q={f[0]} l={f[1]} s={f[2]}: closed={f[3]:.6g} "
                  f"brute={f[4]:.6g} tol={LEMMA2_TOL:.3g} feasible={f[5]} attained={f[6]}")
        print(f"{len(failures)} of {len(cases)} cases failed")
        return 1
    print(f"all {len(cases)} cases within tolerance "
          f"(q in 1..{args.qmax}, l in 1..{args.lmax}, q >= l)")
    return 0


# ---------------------------------------------------------------------------
# lattice-audit

def _cmd_lattice_audit(args):
    report = lattice.audit(lattice.load_lattice(args.lattice), args.radius)
    _write_text(args.out, json.dumps(report, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# wishart-check

def _cmd_wishart(args):
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    _check_seed(args.seed)
    cfg = SystemConfig(mode=args.mode, n=args.n, m=args.m)
    # each distinct quaternion eigenvalue is a double one of the 2m x 2p lift,
    # whose trace has E tr H^dag H = 2 m n; the real 2m x n one has m n
    mult = 1 if cfg.mode == "real" else 2
    sample = sim.sample_wishart_real_batch if mult == 1 else sim.sample_wishart_quaternion_batch
    lam = sample(cfg.n // mult, cfg.m, args.samples, np.random.default_rng(args.seed))
    expected = float(mult * cfg.m * cfg.n)
    observed = float(mult * lam.sum(axis=1).mean())
    count_ok = mult * lam.shape[1] == min(2 * cfg.m, cfg.n)
    extra = {} if mult == 1 else {"pairing_checked": True}
    rel_err = abs(observed - expected) / expected
    report = {"mode": args.mode, "n": args.n, "m": args.m,
              "samples": args.samples, "seed": args.seed,
              "mean_trace": observed, "expected_trace": expected,
              "rel_err": rel_err, "count_ok": count_ok,
              "pass": bool(count_ok and rel_err <= 0.02), **extra}
    _write_text(args.out, json.dumps(report, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch

@functools.cache
def _build_parser():
    """The command-line parser, built once per process (3-7 ms): parsing
    keeps nothing on it, so every `run` call may share it."""
    parser = argparse.ArgumentParser(
        prog="dmtlab",
        description="Tradeoff curves, lattice audits and Monte Carlo sweeps "
                    "for real and quaternionic space-time codes")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curves", help="emit the d_star/d1/d2 curve family as CSV")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--out")
    c.add_argument("--anchors-out")
    c.set_defaults(fn=_cmd_curves)

    for name in ("outage", "error"):
        s = sub.add_parser(name, help=f"Monte Carlo {name} sweep")
        s.add_argument("--mode", choices=MODES, required=True)
        s.add_argument("--n", type=int, required=True)
        s.add_argument("--m", type=int, required=True)
        s.add_argument("--r", type=float, required=True)
        s.add_argument("--snr-db", required=True,
                       help="comma-separated dB values; write a grid that starts "
                            "below 0 as --snr-db=-10,0")
        s.add_argument("--trials", required=True, help="single count or one per SNR point")
        s.add_argument("--seed", type=int, required=True)
        if name == "error":
            s.add_argument("--lattice", required=True,
                           help="built-in name (hamilton, split) or JSON path")
        s.add_argument("--weighting", choices=sim.WEIGHTINGS,
                       default="events", help="slope-fit weighting")
        s.add_argument("--out", help="CSV path (default: stdout)")
        s.add_argument("--summary", help="JSON summary path (default: stdout)")
        s.set_defaults(fn=_cmd_sweep)

    v = sub.add_parser("lemma2-verify", help="closed form vs exact oracle sweep")
    v.add_argument("--qmax", type=int, required=True)
    v.add_argument("--lmax", type=int, required=True)
    v.add_argument("--sstep", type=float, required=True)
    v.add_argument("--gridstep", type=float,
                   help="accepted and checked to lie in (0, 0.5), but unused: the oracle "
                        "enumerates vertices exactly and the tolerance is 1e-12")
    v.set_defaults(fn=_cmd_lemma2)

    a = sub.add_parser("lattice-audit", help="enumerate a shell and audit determinants")
    a.add_argument("--lattice", required=True)
    a.add_argument("--radius", type=float, required=True)
    a.add_argument("--out")
    a.set_defaults(fn=_cmd_lattice_audit)

    w = sub.add_parser("wishart-check", help="moment/pairing checks of spectrum samplers")
    w.add_argument("--mode", choices=MODES, required=True)
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--m", type=int, required=True)
    w.add_argument("--samples", type=int, required=True)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--out")
    w.set_defaults(fn=_cmd_wishart)

    return parser


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, lattice.ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
