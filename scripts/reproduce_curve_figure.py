"""Emit the tradeoff-curve family for the 4x2 antenna configuration.

Writes results/curves_n4_m2.csv (r, d_star, d1, d2 sampled at step 0.01)
and results/curves_n4_m2_anchors.json, the data behind the usual
three-curve comparison plot.  Runs the `dmtlab curves` command, so both
files are the command's own.
"""

import pathlib
import sys

from dmtlab.cli import run

OUTDIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def main():
    OUTDIR.mkdir(exist_ok=True)
    csv_path = OUTDIR / "curves_n4_m2.csv"
    json_path = OUTDIR / "curves_n4_m2_anchors.json"
    rc = run(["curves", "--n", "4", "--m", "2",
              "--out", str(csv_path), "--anchors-out", str(json_path)])
    if rc:
        sys.exit(rc)
    print(f"wrote {csv_path} and {json_path}")


if __name__ == "__main__":
    main()
