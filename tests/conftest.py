import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `python -m dmtlab` with the argv that follows the report path, and at
# exit writes there the peak RSS of the process's own memory, in KiB (VmHWM),
# and its minor page faults (ru_minflt, which Linux zeroes at fork).  Its
# ru_maxrss would not do, since Linux carries into it, at exec, the peak of
# the memory the child was forked with, which is the test process's.
CHILD = """
import atexit, resource, runpy, sys

report = sys.argv.pop(1)


def write_usage():
    with open("/proc/self/status", encoding="utf-8") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"{peak} {faults}")


atexit.register(write_usage)
runpy.run_module("dmtlab", run_name="__main__", alter_sys=True)
"""


@pytest.fixture
def dmtlab_process(tmp_path):
    """run(argv, **env) runs `python -m dmtlab <argv>` in a fresh process,
    with `env` added to the environment, and returns its exit code, its
    stderr, its own peak RSS in MiB and its minor page faults, start and
    imports included.  Both are read inside the child: RUSAGE_CHILDREN here
    is the maximum over every child waited for."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("the peak RSS is read from /proc/self/status")
    report = tmp_path / "usage"
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(argv, **env):
        child_env = {**os.environ, **env, "PYTHONPATH": pythonpath}
        proc = subprocess.run([sys.executable, "-c", CHILD, str(report), *argv],
                              capture_output=True, text=True, env=child_env, timeout=300)
        peak_kib, faults = map(int, report.read_text(encoding="utf-8").split())
        return proc.returncode, proc.stderr, peak_kib / 1024, faults

    return run
