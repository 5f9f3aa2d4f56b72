"""List the dmtlab functions that no command (and, optionally, no acceptance
criterion) calls.

    python scripts/reach.py [--acceptance] [COMMAND ...]

Each COMMAND is one quoted dmtlab argv, such as "curves --n 2 --m 1"; with
none, the fixed list below runs: README's examples (their files written to a
temporary directory), the real modes (a `split` sweep, a sweep and an audit
of a JSON lattice, the real spectrum), an audit of `split_pi`, whose
determinant form is not integral, and the benchmark's commands.
--acceptance also runs tests/test_acceptance.py.  Every command goes through
the console entry point, `dmtlab.cli.main`.  Calls are recorded with
sys.setprofile on every thread; a function is every `def` of src/dmtlab,
named module.qualname, and those never called are printed, one a line.
"""

import contextlib
import inspect
import io
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dmtlab"
COMMANDS = [
    "curves --n 4 --m 2 --out {out}/curves.csv --anchors-out {out}/anchors.json",
    "outage --mode real --n 2 --m 1 --r 0.5 --snr-db 10,15,20,25,30 --trials 1000000 --seed 7 "
    "--out {out}/outage.csv --summary {out}/outage.json",
    "error --mode quaternion --lattice hamilton --n 2 --m 1 --r 0 --snr-db 14,17,20,23,26 "
    "--trials 100000 --seed 7 --out {out}/error.csv --summary {out}/error.json",
    "lemma2-verify --qmax 6 --lmax 4 --sstep 0.25 --gridstep 0.02",
    "lattice-audit --lattice split --radius 4",
    "wishart-check --mode quaternion --n 2 --m 1 --samples 100000 --seed 7",
    "lattice-audit --lattice {m2z} --radius 3",
    "error --mode real --lattice split --n 2 --m 1 --r 0.5 --snr-db 10,20 --trials 2000 --seed 1",
    "error --mode real --lattice {m2z} --n 2 --m 1 --r 0 --snr-db 10,20 --trials 2000 --seed 1",
    "wishart-check --mode real --n 2 --m 1 --samples 100000 --seed 7",
    "lattice-audit --lattice {split_pi} --radius 4",
]


def key(code):
    """(module, first line, name) of a code object of the package."""
    return Path(code.co_filename).stem, code.co_firstlineno, code.co_name


def defined():
    """key -> module.qualname (co_qualname from Python 3.11 on, else the
    name) of every function defined in the package."""
    names = {}
    for path in PACKAGE.glob("*.py"):
        codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            # a function, not a module or class body, lambda or comprehension
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                names[key(code)] = f"{path.stem}.{getattr(code, 'co_qualname', code.co_name)}"
    return names


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from dmtlab import cli
    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        commands = [a.split() for a in argv if a != "--acceptance"] or (
            [c.format(out=out, m2z=ROOT / "lattices" / "m2z.json",
                      split_pi=ROOT / "lattices" / "split_pi.json").split() for c in COMMANDS]
            + [cmd for name in workloads.WORKLOADS
               for _, cmd in workloads.commands(name, workloads.DEFAULT_SEED)])
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            for cmd in commands:
                sys.argv = ["dmtlab", *cmd]
                try:
                    cli.main()
                except SystemExit as exc:
                    if exc.code:
                        raise SystemExit(f"reach: dmtlab {' '.join(cmd)} exited {exc.code}")
            if "--acceptance" in argv:
                import pytest
                if pytest.main(["-q", "-p", "no:cacheprovider",
                                str(ROOT / "tests" / "test_acceptance.py")]):
                    raise SystemExit("reach: the acceptance suite failed")
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    called = {key(c) for c in codes.values() if Path(c.co_filename).resolve().parent == PACKAGE}
    for name in sorted(name for k, name in defined().items() if k not in called):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
