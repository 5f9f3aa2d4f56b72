"""One pass of a workload in a fresh process: `python3 perfbench/child.py JOB`.

JOB is a JSON object with `commands` ([label, argv] pairs), `as_limit`
(bytes of address space), `trace` (whether to trace the pass) and `cpus`
(the CPUs to run on, or null for every CPU the process may use).  The pass
runs from the root of a dmtlab checkout and calls `dmtlab.cli.run(argv)` in
process for each command, with the command's stdout and stderr captured.  It
prints one JSON line: set-up time, wall time of the commands, each command's
exit code and output, the calibration kernel's time before the first command
and after each (`calibrate.py`) and the factor that scales the pass's times
to the reference speed, `ru_maxrss`, versions, |C| per SNR point, and with
`trace` the per-function span summary.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def codebook_sizes(lattice, argv):
    """Load what `argv` needs and return |C| per SNR point (error commands),
    following the CLI: a fixed 16-word codebook at r = 0, else the shaped
    shell at each SNR."""
    if argv[0] == "lattice-audit":
        lattice.load_lattice(argv[argv.index("--lattice") + 1])
    if argv[0] != "error":
        return None
    lat = lattice.load_lattice(argv[argv.index("--lattice") + 1])
    r = float(argv[argv.index("--r") + 1])
    snr_db = [float(v) for v in argv[argv.index("--snr-db") + 1].split(",")]
    if r == 0:
        return [len(lattice.fixed_codebook(lat).points)] * len(snr_db)
    return [len(lattice.shape_codebook(lat, 10.0 ** (db / 10.0), r).points)
            for db in snr_db]


def versions(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main():
    job = json.loads(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (job["as_limit"], job["as_limit"]))
    if job["cpus"]:
        os.sched_setaffinity(0, job["cpus"])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import numpy as np
    from dmtlab import channel, cli, dmt, lattice, linalg, sim
    sizes = {label: codebook_sizes(lattice, argv) for label, argv in job["commands"]}
    setup_s = time.perf_counter() - T0
    import calibrate

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install({"linalg": linalg, "channel": channel, "lattice": lattice,
                        "dmt": dmt, "sim": sim, "cli": cli})

    results, seconds, calib_s = [], [], [calibrate.kernel()]
    for label, argv in job["commands"]:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the pass
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        seconds.append(time.perf_counter() - start)
        calib_s.append(calibrate.kernel())
        results.append({"label": label, "rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "error": error})
    # Each command's time is scaled by the kernel runs just before and after it.
    wall_s = sum(seconds)
    scaled = sum(t * 2.0 * calibrate.REFERENCE_S / (before + after)
                 for t, before, after in zip(seconds, calib_s, calib_s[1:]))

    report = {"setup_s": setup_s, "wall_s": wall_s, "calib_s": calib_s,
              "scale": scaled / wall_s, "results": results,
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "codebook_sizes": sizes, "versions": versions(np),
              "trace": tracer.summary() if tracer else None}
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
