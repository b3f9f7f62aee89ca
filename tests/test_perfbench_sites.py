"""The benchmark's traced call sites. perfbench/tracing.py wraps functions at
the names their callers look up; a refactor that renames or bypasses one of
them leaves its layer empty. For each workload, one instance runs under the
tracer, and every per-instance layer that perfbench/interactions.json expects
on that workload must be non-empty."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from edgeclust.pipeline import run_pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# run.py derives these ratios from other layers instead of reading spans
DERIVED = {"density.kernel_evals_per_s", "corrclust.rows_tight_frac",
           "corrclust.lp_relax.self_frac"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")
LAYERS = json.loads((PERFBENCH / "interactions.json").read_text())["per_layer"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_layers_are_reached(name):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, root = tracer.root("instance", run_pipeline,
                              workloads.WORKLOADS[name].run_config(11))
    metrics = tracing.root_metrics(tracer.spans, root)
    expected = [layer for layer, row in LAYERS.items()
                if row["per"] == "instance" and name in row["present_on"]
                and not layer.startswith("pipeline.") and layer not in DERIVED]
    assert expected
    assert [layer for layer in expected if not metrics.get(layer, 0) > 0] == []
