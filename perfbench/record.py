"""Record the benchmark's reference outputs and call census.

    python3 perfbench/record.py

Run from the root of a dmtlab checkout, at a commit whose outputs are known
to be right.  Runs one untraced and one traced pass of every workload at the
default seed and writes `reference/outputs.json` (each command's stdout,
which the gate compares against) and `reference/census.json` (calls of every
public function per workload, which traced runs print their changes against).
"""

import json
import os
import sys
import time

import run
import workloads as wl


def main():
    outputs, census = {}, {}
    nproc = len(os.sched_getaffinity(0))
    for workload in wl.WORKLOADS:
        commands = wl.commands(workload, wl.DEFAULT_SEED)
        for trace in (False, True):
            report, reason = run.run_child(commands, nproc, trace,
                                           time.monotonic() + 600)
            if report is None:
                sys.exit(f"{workload}: {reason}")
            for (label, argv), res in zip(commands, report["results"]):
                if res["rc"] != 0 or res["error"]:
                    sys.exit(f"{label}: exit {res['rc']} {res['error'] or res['stderr']}")
                if outputs.setdefault(label, res["stdout"]) != res["stdout"]:
                    sys.exit(f"{label}: traced and untraced outputs differ")
        census[workload] = {n: row["calls"]
                            for n, row in report["trace"]["functions"].items()}
    audit_items = (sum(json.loads(outputs[label])["points"]
                       for label in ("audit-hamilton", "audit-split"))
                   + int(outputs["lemma2"].split()[1])  # "all 178 cases ..."
                   + len(outputs["curves"].splitlines()) - 1)
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
    with open(os.path.join(here, "outputs.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": wl.DEFAULT_SEED, "audit_items": audit_items,
                   "outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(here, "census.json"), "w", encoding="utf-8") as fh:
        json.dump(census, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
