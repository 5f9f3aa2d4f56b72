import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `python -m dmtlab` with the argv that follows the report path, and at
# exit writes the peak RSS of the process's own memory there, in KiB: VmHWM.
# Its ru_maxrss would not do, since Linux carries into it, at exec, the peak
# of the memory the child was forked with, which is the test process's.
CHILD = """
import atexit, runpy, sys

report = sys.argv.pop(1)


def write_peak():
    with open("/proc/self/status", encoding="utf-8") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(peak)


atexit.register(write_peak)
runpy.run_module("dmtlab", run_name="__main__", alter_sys=True)
"""


@pytest.fixture
def dmtlab_process(tmp_path):
    """run(argv, **env) runs `python -m dmtlab <argv>` in a fresh process,
    with `env` added to the environment, and returns its exit code, its
    stderr and its own peak RSS in MiB.  The peak is read inside the child:
    RUSAGE_CHILDREN here is the maximum over every child waited for."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("the peak RSS is read from /proc/self/status")
    report = tmp_path / "peak_kib"
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(argv, **env):
        child_env = {**os.environ, **env, "PYTHONPATH": pythonpath}
        proc = subprocess.run([sys.executable, "-c", CHILD, str(report), *argv],
                              capture_output=True, text=True, env=child_env, timeout=300)
        return proc.returncode, proc.stderr, int(report.read_text(encoding="utf-8")) / 1024

    return run
