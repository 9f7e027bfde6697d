"""Runs one workload in this interpreter and prints its result as one JSON
line.  ``run.py`` starts it in a fresh interpreter with one BLAS/OpenMP
thread; it can also be started by hand with ``PYTHONPATH=src``.

Untraced (``--trace 0``): a warm-up block, then blocks until the timed
operations have taken ``--seconds``.  Traced (``--trace 1``): a warm-up
block, an untraced pass over blocks 0..K-1 for 40% of ``--seconds``, the
same blocks again with the tracer installed, then the kernel reference.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import predbif
from predbif import _backend, _rk_py
from predbif.model import ModelParams

from calib import loop_seconds, to_reference
from tracer import Spans, Tracer, layer_metrics
from workloads import WORKLOADS, Checker, input_properties, make_block, prepare, run_op

OUT_DIR = Path(__file__).resolve().parent / "out"

#: share of --seconds the traced run spends on its untraced reference pass
UNTRACED_SHARE = 0.4

#: problems kept verbatim in the result; the rest are only counted
MAX_PROBLEMS = 20

# Reference trajectory of benchmarks/benchmark_kernels.py.
KERNEL_PARAMS = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1915598183,
                            delta=0.01785700222, eta=0.1, m=0.8)
KERNEL_X0, KERNEL_T_END, KERNEL_TOL = (0.5, 0.3), 20000.0, 1e-10
KERNEL_REPEATS = 3


@dataclass
class Block:
    """Per-operation wall and reference seconds of one block's successful
    operations, and the items they completed."""

    wall: list[float] = field(default_factory=list)
    ref: list[float] = field(default_factory=list)
    items: int = 0


class Runner:
    """Executes operations, times them and checks their outputs."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.tracer: Tracer | None = None  # set for the traced pass
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_written = 0

    def execute(self, op: dict, slot: int) -> tuple[float, float] | None:
        """(wall seconds, reference seconds) of the operation, or None when
        it failed."""
        prepare(op, self.workdir, slot)
        self.attempted += 1
        tracer = self.tracer
        root = None
        loop_before = loop_seconds()
        if tracer is not None:
            tracer.enabled = True
            root = tracer.begin(tracer.name_id(f"bench.{op['kind']}"))
        t0 = time.perf_counter()
        try:
            result = run_op(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{op['kind']}: {type(exc).__name__}: {exc}")
            return None
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(root)
                tracer.enabled = False
        ref = to_reference(dt, loop_before, loop_seconds())
        if "out" in op:
            self.bytes_written += sum(p.stat().st_size for p in op["out"].iterdir())
        problems = self.checker.check(op, result)
        if problems:
            self.fail("; ".join(problems))
            return None
        return dt, ref

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def block(self, k: int) -> Block:
        b = Block()
        for slot, op in enumerate(make_block(self.workload, self.seed, k)):
            times = self.execute(op, slot)
            if times is not None:
                b.wall.append(times[0])
                b.ref.append(times[1])
                b.items += op["items"]
        return b

    def blocks_for(self, seconds: float) -> list[Block]:
        """Blocks 0, 1, ... until their operations have taken ``seconds``
        of wall time."""
        blocks, busy = [], 0.0
        while busy < seconds:
            blocks.append(self.block(len(blocks)))
            busy += sum(blocks[-1].wall)
        return blocks


def _rate(blocks: list[Block], attr: str) -> float:
    return statistics.median(b.items / sum(getattr(b, attr)) for b in blocks if b.items)


def measure(runner: Runner, seconds: float) -> dict:
    runner.block(-1)  # warm-up: imports, caches, first-touch allocations
    blocks = runner.blocks_for(seconds)
    ref_ms = [t * 1e3 for b in blocks for t in b.ref]
    wall_ms = [t * 1e3 for b in blocks for t in b.wall]
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": _rate(blocks, "ref"),
        "p50_ms": statistics.median(ref_ms),
        "p90_ms": statistics.quantiles(ref_ms, n=10)[-1],
        "wall.items_per_s": _rate(blocks, "wall"),
        "wall.p50_ms": statistics.median(wall_ms),
        "wall.p90_ms": statistics.quantiles(wall_ms, n=10)[-1],
        "host_speed": sum(wall_ms) / sum(ref_ms),
        "operations": len(ref_ms),
        "blocks": len(blocks),
        "items": sum(b.items for b in blocks),
    }


def kernel_reference() -> tuple[dict, list[str]]:
    """Per-step cost of each importable kernel backend on one fixed
    trajectory, with the parity assertion between them."""
    p = KERNEL_PARAMS
    args = (p.a, p.b, p.c, p.h, p.delta, p.eta, p.m, *KERNEL_X0, 0.0, KERNEL_T_END,
            KERNEL_TOL, KERNEL_TOL, 10_000_000)
    kernels = {"py": _rk_py}
    with contextlib.suppress(ImportError):
        from predbif import _rk_cy
        kernels["compiled"] = _rk_cy
    metrics, outs = {}, {}
    for key, mod in kernels.items():
        times = []
        for _ in range(KERNEL_REPEATS):
            loop_before = loop_seconds()
            t0 = time.perf_counter()
            outs[key] = mod.integrate_kernel(*args)
            times.append(to_reference(time.perf_counter() - t0, loop_before, loop_seconds()))
        steps = len(outs[key][0]) - 1
        metrics[f"sim.kernel_{key}.us_per_step"] = statistics.median(times) / steps * 1e6
        metrics[f"sim.kernel_{key}.steps"] = steps
    problems = []
    if "compiled" in outs:
        py, cy = outs["py"], outs["compiled"]
        dev = max(np.max(np.abs(np.asarray(py[i]) - np.asarray(cy[i]))) for i in (1, 2))
        if len(py[0]) != len(cy[0]) or not dev < 1e-12:
            problems.append(f"kernel parity: {len(py[0])} vs {len(cy[0])} steps, "
                            f"max deviation {dev:.3g}")
    return metrics, problems


def trace(runner: Runner, seconds: float) -> dict:
    runner.block(-1)
    untraced = runner.blocks_for(UNTRACED_SHARE * seconds)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    bytes_before = runner.bytes_written
    t0 = time.perf_counter()
    try:
        traced = [runner.block(k) for k in range(len(untraced))]
    finally:
        tracer.uninstall()
        runner.tracer = None
    pass_wall = time.perf_counter() - t0
    wall = sum(sum(b.wall) for b in traced)
    ref = sum(sum(b.ref) for b in traced)
    spans = Spans(tracer, scale=ref / wall)
    m = layer_metrics(spans, tracer.counters, sum(b.items for b in traced),
                      (runner.bytes_written - bytes_before) / 1024.0)
    m["trace.overhead_ratio"] = ref / sum(sum(b.ref) for b in untraced)
    m["trace.spans"] = len(spans.name)
    # wall seconds: all span self times together, and the whole traced pass
    m["trace.self_wall_s"] = float(spans.self_time.sum()) * wall / ref
    m["trace.pass_wall_s"] = pass_wall
    kernel, problems = kernel_reference()
    m.update(kernel)
    for p in problems:
        runner.fail(p)
    tracer.save(OUT_DIR / f"{runner.workload}-spans.npz")
    return m


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "predbif": predbif.__version__,
        "backend": _backend.BACKEND,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # cli.run records predbif's diagnostic warnings into its reports; the
    # library calls of the trajectories workload would print them instead
    warnings.simplefilter("ignore")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    runner = Runner(args.workload, args.seed, workdir)
    try:
        # cli.run prints each report path; keep this process's stdout for the result
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if args.trace:
                metrics = trace(runner, args.seconds)
            else:
                metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems, "metrics": metrics, "host": host_facts(),
        "inputs": input_properties(args.workload, runner.checker.props),
    }
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
