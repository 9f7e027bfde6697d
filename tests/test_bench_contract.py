"""The surface the benchmark uses stays intact.

Block 0 of every workload runs through ``perfbench``'s own ``make_block``,
``prepare``, ``run_op`` and ``Checker``, so a change that breaks what the
benchmark calls (``jacobian(...).trace()``, ``hopf.TRACE_TOL``,
``predbif._backend``, the CLI flags and report files) fails here.  It runs
once more under ``perfbench``'s span tracer, whose per-layer metrics must
all be measured: one that reads None makes ``run.py --trace 1`` exit 1.
Nothing under ``perfbench/`` is written: every operation works in
``tmp_path``.
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import Spans, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Checker, make_block, prepare, run_op  # noqa: E402

#: per-layer metrics that perfbench's worker measures outside the tracer
OUTSIDE_TRACER = {"sim.kernel_py.us_per_step", "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_block_zero_passes_the_benchmark_checks(workload, tmp_path):
    checker = Checker()
    # as in perfbench/worker.py: the library calls of the trajectories
    # workload warn, and cli.run records its own warnings into the reports
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for slot, op in enumerate(make_block(workload, 1, 0)):
            prepare(op, tmp_path, slot)
            result = run_op(op)
            assert checker.check(op, result) == [], (workload, slot, op["kind"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_block_zero_measures_every_traced_layer_metric(workload, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    tracer, items = Tracer(), 0
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for slot, op in enumerate(make_block(workload, 1, 0)):
                prepare(op, tmp_path, slot)
                # as perfbench/worker.py's traced pass: one root span per operation
                tracer.enabled = True
                root = tracer.begin(tracer.name_id(f"bench.{op['kind']}"))
                try:
                    run_op(op)
                finally:
                    tracer.finish(root)
                    tracer.enabled = False
                items += op["items"]
    finally:
        tracer.uninstall()
    metrics = layer_metrics(Spans(tracer), tracer.counters, items, 0.0)
    assert per_layer - set(metrics) == OUTSIDE_TRACER
    unmeasured = sorted(name for name in per_layer & set(metrics)
                        if not isinstance(metrics[name], (int, float)))
    assert unmeasured == [], workload
    if workload == "bifurcation-reports":
        # bt-curves evaluates each reported sample's beta through the public
        # bt.beta_map, the function the tracer wraps
        assert metrics["bt.beta_map.calls_per_item"] > 0
