"""predbif benchmark: seeded workloads, their checks and their metrics.

    python3 perfbench/run.py --workload region-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports predbif from ``src/`` and needs
no build.  Each workload runs in its own fresh interpreter; ``all`` runs
the three in turn and its last line keys each metric as
``<workload>/<metric>``.  Workloads (see ``workloads.py`` for their inputs):

* ``region-sweep`` - ``sweep`` configs through ``cli.run``, each writing its
  CSV; items are grid points.  Time goes to equilibria, polyroots,
  stability and model; none to sim, hopf or bt.
* ``trajectories`` - phase portraits and limit-cycle probes through
  ``predbif.sim``; items are trajectories.  The integration kernel
  dominates.
* ``bifurcation-reports`` - every subcommand except ``sweep`` through
  ``cli.run`` in json, csv and svg formats; items are reports.

``--trace 0`` prints the end-to-end metrics, measured untraced:

* ``setup_s`` - fresh interpreter start until ``predbif.cli`` is imported,
  median of several interpreters.
* ``peak_rss_mb`` - peak RSS of the workload process.
* ``items_per_s`` - items per second, the median over blocks of operations
  (``sweep.points_per_s``, ``traj.trajectories_per_s`` and reports per
  second).
* ``p50_ms``, ``p90_ms`` - latency of one operation: one sweep config, one
  portrait or probe, one report.

Every time is in reference seconds (``calib.py``): wall time rescaled by
a calibration loop run around each operation, because the shared host's
speed drifts by tens of percent between runs.  The plain wall-clock
figures are printed as ``wall.*``.

``--trace 1`` installs the span tracer (``tracer.py``) and prints the
per-layer metrics instead.  The metrics in the last line are exactly those
``BENCHMARK.json`` lists; the lines above it hold all of them, the input
properties and the host facts.  ``fail_ratio`` is ``failed / attempted``
from the last line: an operation fails if it raises, exits non-zero or
fails a check.  Any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import loop_seconds, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh interpreters timed for setup_s, after one untimed start that
#: writes the bytecode cache
SETUP_RUNS = 15

#: a workload run must end within this many seconds
RUN_LIMIT_S = 170.0

SETUP_CODE = "import time; import predbif.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"

ALIASES = {
    ("region-sweep", "items_per_s"): "sweep.points_per_s",
    ("trajectories", "items_per_s"): "traj.trajectories_per_s",
    ("bifurcation-reports", "p50_ms"): "report.p50_ms",
    ("bifurcation-reports", "p90_ms"): "report.p90_ms",
}


def unit_of(name: str, spec_units: dict) -> str:
    """Unit of a printed metric: from BENCHMARK.json, else from its name."""
    if name in spec_units:
        return spec_units[name]
    base = name.removeprefix("wall.")
    if base in spec_units:
        return spec_units[base]
    for suffix, unit in (("_ms", "ms"), ("_ms_per_report", "ms"), ("us_per_call", "us"),
                         ("us_per_step", "us"), ("kb_per_report", "KB"), ("_s", "s"),
                         ("_ratio", "ratio"), ("_speed", "ratio")):
        if base.endswith(suffix):
            return unit
    return "%" if base.startswith("share.") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict, deadline: float) -> tuple[float, float]:
    """Median setup time of fresh interpreters, in reference and in wall
    seconds."""
    ref, wall = [], []
    for i in range(SETUP_RUNS + 1):
        loop_before = loop_seconds()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             stdout=subprocess.PIPE, check=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        elapsed = float(out.stdout.strip()) - t0
        if i:
            wall.append(elapsed)
            ref.append(to_reference(elapsed, loop_before, loop_seconds()))
    return statistics.median(ref), statistics.median(wall)


def run_workload(workload: str, args, spec: dict, deadline: float) -> dict | None:
    """Runs one workload in a fresh worker and prints its report; returns the
    result line, or None when the worker crashed."""
    env = child_env()
    setup = None if args.trace else measure_setup(env, deadline)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: {workload} worker exited {proc.returncode}", file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    measured = dict(res["metrics"])
    if setup is not None:
        measured["setup_s"], measured["wall.setup_s"] = setup

    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("host " + json.dumps(res["host"], sort_keys=True))
    print("inputs " + json.dumps(res["inputs"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(measured):
        value = measured[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        alias = ALIASES.get((workload, name))
        print(f"  {name:42s} {shown:>12s} {unit_of(name, units)}"
              + (f"   ({alias})" if alias else ""))
    print(f"  {'fail_ratio':42s} {res['failed'] / res['attempted']:12.6g} ratio"
          f"   ({res['failed']} of {res['attempted']} operations)")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")

    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        value = measured.get(m["name"])
        if value is None:
            print(f"run.py: metric {m['name']} was not measured", file=sys.stderr)
            return None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="predbif benchmark")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "predbif" / "__init__.py").is_file():
        print(f"run.py: no predbif sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        res = run_workload(workload, args, spec, time.monotonic() + RUN_LIMIT_S)
        if res is None:
            return 1
        results[workload] = res
    if args.workload == "all":
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
