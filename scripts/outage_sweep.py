"""Outage-slope sweep over multiplexing gains for the 2x1 system.

For each r, runs `dmtlab outage` across an SNR grid in both the real and
quaternionic channel models and records the fitted slope next to the d1/d2
predictions from the command's summary.  Results land in
results/outage_sweep.csv.
"""

import json
import pathlib
import sys
import tempfile

from dmtlab.cli import run

N, M = 2, 1
SNR_DB = [10, 15, 20, 25, 30]
TRIALS = 200_000
SEED = 1729
R_GRID = [0.25, 0.5, 0.75]
OUTDIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def _fmt(value):
    return "nan" if value is None else f"{value:.4f}"


def main():
    OUTDIR.mkdir(exist_ok=True)
    out = OUTDIR / "outage_sweep.csv"
    lines = [f"# seed={SEED} n={N} m={M} trials={TRIALS}", "mode,r,slope,stderr,theory"]
    with tempfile.TemporaryDirectory() as tmp:
        table, summary = pathlib.Path(tmp) / "sweep.csv", pathlib.Path(tmp) / "summary.json"
        for r in R_GRID:
            for mode, theory in (("real", "theory_d1"), ("quaternion", "theory_d2")):
                rc = run(["outage", "--mode", mode, "--n", str(N), "--m", str(M),
                          "--r", str(r), "--snr-db", ",".join(map(str, SNR_DB)),
                          "--trials", str(TRIALS), "--seed", str(SEED),
                          "--weighting", "uniform", "--out", str(table),
                          "--summary", str(summary)])
                if rc:
                    sys.exit(rc)
                est = json.loads(summary.read_text(encoding="utf-8"))
                slope = _fmt(est["slope"])
                lines.append(f"{mode},{r},{slope},{_fmt(est['stderr'])},{est[theory]:.4f}")
                print(f"{mode:10s} r={r}: slope {slope} (theory {est[theory]:.3f})")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
