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

# Runs `dmtlab.cli.run` on the argv that follows the report path twice in one
# process, and writes there both exit codes and the minor page faults of the
# second run alone: the faults of a heap that the first run has grown, which
# start-up, imports and where glibc's trim thresholds first stand leave out.
STEADY_CHILD = """
import resource, sys
from dmtlab import cli

report, argv = sys.argv[1], sys.argv[2:]
first = cli.run(argv)
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
second = cli.run(argv)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
with open(report, "w", encoding="utf-8") as fh:
    fh.write(f"{first} {second} {faults}")
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

    def run(argv, **env):
        proc = _run_child(CHILD, report, argv, env)
        peak_kib, faults = map(int, report.read_text(encoding="utf-8").split())
        return proc.returncode, proc.stderr, peak_kib / 1024, faults

    return run


@pytest.fixture
def dmtlab_steady_faults(tmp_path):
    """run(argv, **env) runs the dmtlab command `argv` twice in one fresh
    process, with `env` added to the environment, and returns both exit
    codes, the stderr and the minor page faults of the second run."""
    report = tmp_path / "steady"

    def run(argv, **env):
        proc = _run_child(STEADY_CHILD, report, argv, env)
        assert proc.returncode == 0, proc.stderr
        first, second, faults = map(int, report.read_text(encoding="utf-8").split())
        return first, second, proc.stderr, faults

    return run


def _run_child(code, report, argv, env):
    """Run the Python `code` with the report path and `argv` as its arguments,
    dmtlab's sources first on its path."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child_env = {**os.environ, **env, "PYTHONPATH": pythonpath}
    return subprocess.run([sys.executable, "-c", code, str(report), *argv],
                          capture_output=True, text=True, env=child_env, timeout=300)
