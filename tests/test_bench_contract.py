"""The surface the benchmark uses stays intact.

Block 0 of every workload runs through ``perfbench``'s own ``make_block``,
``prepare``, ``run_op`` and ``Checker``, so a change that breaks what the
benchmark calls (``jacobian(...).trace()``, ``hopf.TRACE_TOL``,
``predbif._backend``, the CLI flags and report files) fails here.  Nothing
under ``perfbench/`` is written: every operation works in ``tmp_path``.
"""

import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, Checker, make_block, prepare, run_op  # noqa: E402


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
