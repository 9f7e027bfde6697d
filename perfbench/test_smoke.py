"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import WORKLOADS, make_block  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_nothing_fails(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _run(workload, trace)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        assert all(isinstance(v["value"], float | int) for v in res["metrics"].values())
    detail = json.loads((HERE / "out" / f"{workload}-trace1.json").read_text())["metrics"]
    assert 0 < detail["trace.self_wall_s"] <= detail["trace.pass_wall_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    blocks = [make_block(workload, 11, k) for k in range(3)]
    assert blocks == [make_block(workload, 11, k) for k in range(3)]
    assert blocks != [make_block(workload, 12, k) for k in range(3)]
    assert blocks[0] != blocks[1]


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
