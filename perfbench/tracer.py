"""Outside-in tracing of dmtlab's public functions.

`Tracer.install` replaces every public function of the six dmtlab modules
with a wrapper that records one span per call.  A wrapper is bound at each
place a caller looks the name up: the defining module's attribute (as in
`lattice.shell_coordinates` or `linalg.determinant`), every module that
imported the name (as in `sim.shape_codebook`, `lattice.quaternionic_defect`
or `channel.as_matrix`), and module-level dicts that hold the function (as in
`lattice.BUILTIN_LATTICES`).  Nothing inside the program changes; spans
therefore stop at public function boundaries, and the split of one estimator
chunk into its stages is not visible from here.

Spans are kept in memory and summarised once the traced pass ends.  A span's
self time is its duration minus the part of that interval covered by its
child spans.  The estimators start their pool threads from the main thread,
so a span that opens on a pool thread with nothing open on that thread is a
child of the innermost span open on the main thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

# Work done by one call, for the functions whose work the metrics count.
WORK = {
    "sim.sample_wishart_quaternion_batch": lambda args, res: {"rows": args[2]},
    "lattice.shell_coordinates": lambda args, res: {"points": len(res)},
    "lattice.shape_codebook": lambda args, res: {"codewords": len(res.points)},
    "lattice.fixed_codebook": lambda args, res: {"codewords": len(res.points)},
    "sim.estimate_outage": lambda args, res: {"trials": sum(res.trials),
                                              "events": sum(res.events)},
    "sim.estimate_error_prob": lambda args, res: {"trials": sum(res.trials),
                                                  "events": sum(res.events)},
}


def public_functions(module):
    """Public functions defined in `module` (imported names and classes excluded)."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    """Span recorder for one traced pass; create it on the main thread."""

    def __init__(self):
        self.spans = []  # (id, parent id, "layer.function", start, end, work dict)
        self.names = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qual, fn):
        work = WORK.get(qual)
        spans, ids, stack_of, main = self.spans, self._ids, self._stack, self._main_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main[-1]
                except IndexError:
                    parent = 0
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                amount = work(args, result) if work and result is not None else None
                spans.append((sid, parent, qual, start, end, amount))

        return wrapper

    def install(self, modules):
        """Wrap the public functions of `modules` ({layer: module}) in place."""
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in public_functions(mod).items():
                qual = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrap(qual, fn)  # which keeps fn alive
                self.names.append(qual)
        for mod in modules.values():
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers:
                    setattr(mod, name, wrappers[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and id(item) in wrappers:
                            val[key] = wrappers[id(item)]
        self.names.sort()

    def summary(self):
        """Per-function calls, inclusive seconds, self seconds and work, with
        zero rows for functions never called, plus per-span-parent facts the
        metrics need."""
        children = defaultdict(list)
        for sid, parent, _, start, end, _ in self.spans:
            children[parent].append((start, end))
        table = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": {}}
                 for name in self.names}
        by_id = {}
        for sid, parent, qual, start, end, amount in self.spans:
            covered = _covered(children.get(sid, ()), start, end)
            row = table[qual]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - covered
            for key, val in (amount or {}).items():
                row["work"][key] = row["work"].get(key, 0) + val
            by_id[sid] = (qual, start, end)
        wishart_parents = {parent for _, parent, qual, *_ in self.spans
                           if qual == "sim.sample_wishart_quaternion_batch"}
        wishart_parent_s = sum(by_id[p][2] - by_id[p][1]
                               for p in wishart_parents if p in by_id)
        return {"functions": table, "spans": len(self.spans),
                "wishart_parent_s": wishart_parent_s}


def _covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
