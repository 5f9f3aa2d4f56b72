"""Zero-multiplexing ML error experiment on the Lipschitz-order codebook.

Transmits a fixed 16-word constellation over the 2x1 quaternionic channel
with exhaustive ML decoding and fits the block-error slope.  The trial
ramp keeps the relative error roughly even across the sweep.  Expected
slope: the zero-multiplexing quaternionic bound m*n = 2.  Runs the `dmtlab
error` command, so the CSV is the command's own.
"""

import json
import pathlib
import sys

from dmtlab.cli import run

SNR_DB = [14, 17, 20, 23, 26]
TRIALS = [100_000, 400_000, 1_600_000, 6_400_000, 25_600_000]
SEED = 20240
OUTDIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def main():
    OUTDIR.mkdir(exist_ok=True)
    out = OUTDIR / "error_slope_n2_m1_r0.csv"
    summary = OUTDIR / "error_slope_n2_m1_r0.json"
    rc = run(["error", "--mode", "quaternion", "--lattice", "hamilton",
              "--n", "2", "--m", "1", "--r", "0",
              "--snr-db", ",".join(map(str, SNR_DB)),
              "--trials", ",".join(map(str, TRIALS)), "--seed", str(SEED),
              "--weighting", "uniform", "--out", str(out), "--summary", str(summary)])
    if rc:
        sys.exit(rc)
    est = json.loads(summary.read_text(encoding="utf-8"))
    print(f"slope {est['slope']:.3f} +- {est['stderr']:.3f} (target 2.0); wrote {out}")


if __name__ == "__main__":
    main()
