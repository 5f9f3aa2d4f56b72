"""The benchmark (perfbench/) reads dmtlab's traced functions by name.  A
name it reads that no longer exists makes a traced run die with KeyError,
so every such name must stay a public function of its layer."""

import importlib
import inspect
from pathlib import Path

from dmtlab import channel, cli, dmt, lattice, linalg, sim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = {"linalg": linalg, "channel": channel, "lattice": lattice, "dmt": dmt,
          "sim": sim, "cli": cli}


def test_layer_metrics_read_only_traced_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    bench = importlib.import_module("run")
    funcs = {f"{layer}.{name}": {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": {}}
             for layer, mod in LAYERS.items() for name in tracer.public_functions(mod)}
    assert set(tracer.WORK) <= set(funcs)
    summary = {"functions": funcs, "spans": 0, "wishart_parent_s": 0.0}
    metrics = bench.layer_metrics(summary, 0, 2)
    assert metrics and all(value == 0 for value, _ in metrics.values())


def test_wishart_row_count_is_the_third_argument():
    # the tracer's WORK reads args[2] of sample_wishart_quaternion_batch as
    # its row count
    params = list(inspect.signature(sim.sample_wishart_quaternion_batch).parameters)
    assert params[2] == "count"
