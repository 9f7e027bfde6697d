import gc
import importlib.util
import inspect
import math
import random
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from predbif import _rk_py, cli, sim
from predbif._rk_py import (
    ESCAPE_RADIUS,
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7,
)
from predbif.equilibria import Equilibrium, interior_equilibria, predator_free_x
from predbif.errors import DomainError, NotAnEquilibrium, StepFailure
from predbif.hopf import hopf_scan
from predbif.model import ModelParams, State, jacobian, rhs
from predbif.sim import (
    _PROBE_STEPS,
    BoundReport,
    CycleProbe,
    Trajectory,
    _converged_radius,
    _hermite,
    _section_crossings,
    bound_check,
    detect_limit_cycle,
    integrate,
    phase_portrait,
)
from predbif.stability import classify_generic

BASE = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1715598183,
                   delta=0.03070149222, eta=0.1, m=0.8)
ALT = ModelParams(a=1.0, b=2.0, c=0.2, h=0.1, delta=0.5, eta=0.1, m=1.0)
#: configs/simulate_example.cfg, next to the Hopf point of hopf_example's branch
SIMULATE = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1915598183,
                       delta=0.01785700222, eta=0.1, m=0.8)


class TestIntegrate:
    def test_stable_fixed_point_stays(self):
        # prey-extinction equilibrium is a stable node here (h > c)
        eq = State(0.0, BASE.delta * BASE.m / BASE.eta)
        traj = integrate(BASE, eq, 100.0)
        assert max(max(abs(x - eq.x), abs(y - eq.y)) for x, y in zip(traj.xs, traj.ys)) < 1e-7

    def test_axis_invariance_is_exact(self):
        traj = integrate(BASE, State(0.0, 0.7), 900.0)
        assert set(traj.xs) == {0.0}
        assert traj.final.y == pytest.approx(BASE.delta * BASE.m / BASE.eta, abs=1e-6)

    def test_prey_axis_invariance(self):
        traj = integrate(ALT, State(0.5, 0.0), 100.0)
        assert set(traj.ys) == {0.0}

    def test_times_strictly_increasing(self):
        traj = integrate(ALT, State(0.5, 0.5), 50.0)
        assert all(t1 > t0 for t0, t1 in zip(traj.times, traj.times[1:]))

    def test_positivity_of_random_seeds(self):
        rng = np.random.default_rng(31)
        for params in (BASE, ALT):
            for _ in range(50):
                x0 = State(rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0))
                traj = integrate(params, x0, 200.0)
                assert min(min(traj.xs), min(traj.ys)) > -1e-9

    def test_theorem_envelope_random_seeds(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            x0 = State(rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0))
            traj = integrate(BASE, x0, 200.0)
            M = max(x0.x, 1.0)
            assert max(traj.xs) <= max(x0.x, 1.0) + 1e-6
            ybound = max(x0.y, BASE.delta * (BASE.m + M) / BASE.eta)
            assert max(traj.ys) <= ybound + 1e-6

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_end_is_a_domain_error(self, t_end):
        # no end point to step to: the step-size floor scales with |t_end|
        with pytest.raises(DomainError, match="t_end"):
            integrate(ALT, State(0.5, 0.5), t_end)

    def test_tolerance_out_of_range(self):
        with pytest.raises(DomainError):
            integrate(ALT, State(0.5, 0.5), 10.0, tol=1e-2)

    def test_step_budget_exhaustion_raises(self):
        with pytest.raises(StepFailure):
            integrate(ALT, State(0.5, 0.5), 1000.0, max_steps=5)

    @pytest.mark.parametrize("max_steps", [5.5, 5.0, "5", None, True])
    def test_step_budget_that_is_not_an_int_is_a_domain_error(self, max_steps):
        # the backends read 5.5 differently: the compiled kernel raises
        # TypeError, and _rk_py takes a sixth step
        with pytest.raises(DomainError, match="max_steps"):
            integrate(ALT, State(0.5, 0.5), 1000.0, max_steps=max_steps)

    @pytest.mark.parametrize("on_failure", ["rasie", "Keep", ""])
    def test_unknown_on_failure_is_a_domain_error(self, on_failure):
        with pytest.raises(DomainError, match="on_failure"):
            integrate(ALT, State(0.5, 0.5), 1000.0, max_steps=5, on_failure=on_failure)

    @pytest.mark.parametrize("x0", [-BASE.c, -1e-12, -0.5])
    def test_negative_prey_start_is_a_domain_error(self, x0):
        # at x = -c the harvesting term h*x/(c + x) divides by zero
        with pytest.raises(DomainError, match="nonnegative"):
            integrate(BASE, State(x0, 0.5), 10.0)

    def test_escape_from_negative_seed_region(self):
        # y < 0 with delta > 0 makes y' = y*(delta - eta*y/(m+x)) blow down
        traj = integrate(ALT, State(0.5, -0.5), 100.0, on_failure="keep")
        assert traj.terminated in ("Escaped", "StepFailure")

    def test_convergence_order_smoke(self):
        # halving tol should reduce endpoint drift
        ref = integrate(ALT, State(0.5, 0.5), 50.0, tol=1e-12)
        errs = []
        for tol in (1e-6, 1e-8):
            t = integrate(ALT, State(0.5, 0.5), 50.0, tol=tol)
            errs.append(abs(t.final.x - ref.final.x) + abs(t.final.y - ref.final.y))
        assert errs[1] < errs[0] / 2.0


#: the checkout, whose setup.py builds the compiled kernel
ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


def _compiled_kernel(tmp_path):
    """predbif._rk_cy when it is built, else the extension that setup.py
    builds from src/predbif/_rk_cy.c into tmp_path, with its own flags,
    loaded from there; skips when no extension comes out (no C compiler or
    no Python.h)."""
    try:
        from predbif import _rk_cy
        return _rk_cy
    except ImportError:
        pass
    build = subprocess.run([sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp_path),
                            "--build-temp", str(tmp_path)],
                           cwd=ROOT, capture_output=True, text=True)
    built = sorted(tmp_path.glob("predbif/_rk_cy*" + sysconfig.get_config_var("EXT_SUFFIX")))
    if not built:
        pytest.skip(f"setup.py built no kernel extension: {build.stderr[-500:]}")
    spec = importlib.util.spec_from_file_location("predbif._rk_cy", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the process keeps the backend it started with
    sys.modules.pop("predbif._rk_cy", None)
    return module


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    return _compiled_kernel(tmp_path_factory.mktemp("kernel"))


#: (a, b, c, h, delta, eta, m) of the two shipped families
FAMILIES = [(p.a, p.b, p.c, p.h, p.delta, p.eta, p.m) for p in (BASE, ALT)]
KERNEL_TOLS = (1e-6, 1e-9, 1e-12)


def _kernel_cases():
    """Seeded integrate_kernel inputs: 200 interior starts per family with
    h and delta each moved by up to 10%, and per family and tolerance a
    start on the x = 0 axis, one on the y = 0 axis, a backward run, a
    negative-x0 escape (status 2) and a run that exhausts max_steps
    (status 1); and bt_example.cfg with delta = 1.09e81 and m = 8.1e298,
    whose first step is NaN (status 2)."""
    rng = random.Random(1)
    special = [(0.0, 0.7, 50.0, 10_000_000), (0.5, 0.0, 50.0, 10_000_000),
               (0.5, 0.5, -5.0, 10_000_000), (-2.0, 0.5, 50.0, 10_000_000),
               (0.5, 0.5, 1000.0, 50)]
    cases = []
    for a, b, c, h, delta, eta, m in FAMILIES:
        for k in range(200):
            tol = KERNEL_TOLS[k % 3]
            cases.append((a, b, c, h * rng.uniform(0.9, 1.1), delta * rng.uniform(0.9, 1.1),
                          eta, m, rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5), 0.0,
                          rng.uniform(20.0, 100.0), tol, tol, 10_000_000))
        for tol in KERNEL_TOLS:
            cases += [(a, b, c, h, delta, eta, m, x0, y0, 0.0, t_end, tol, tol, max_steps)
                      for x0, y0, t_end, max_steps in special]
    cases.append((2.0, -2.82, 0.05, 0.17, 1.09e81, 0.1, 8.1e298, 0.5, 0.5, 0.0, 100.0,
                  1e-9, 1e-9, 100_000))
    return cases


def _bits(out):
    """The kernel's five lists as float.hex strings, and its status."""
    return [[v.hex() for v in values] for values in out[:5]], out[5]


def _reference_rhs(a, b, c, h, delta, eta, m, x, y, x_axis, y_axis):
    if x_axis:
        dx = 0.0
    else:
        p = a * x * x + b * x + 1.0
        dx = x * (1.0 - x) - x * x * y / p - h * x / (c + x)
    if y_axis:
        dy = 0.0
    else:
        dy = y * (delta - eta * y / (m + x))
    return dx, dy


def _reference_kernel(a, b, c, h_par, delta, eta, m,
                      x0, y0, t0, t_end, rtol, atol, max_steps):
    """_rk_py.integrate_kernel as it was written with a field function
    called at every stage, the builtins abs, max and min, and the error
    norm squared as (ex / scx) * (ex / scx)."""
    direction = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    x_axis = x0 == 0.0
    y_axis = y0 == 0.0

    t = t0
    x, y = x0, y0
    fx, fy = _reference_rhs(a, b, c, h_par, delta, eta, m, x, y, x_axis, y_axis)
    ts = [t]
    xs = [x]
    ys = [y]
    dxs = [fx]
    dys = [fy]

    hstep = direction * min(1e-3, span if span > 0 else 1e-3)
    hmin = 1e-14 * max(1.0, span)
    err_prev = 1.0
    status = 0
    steps = 0

    while (t - t_end) * direction < 0.0 and steps < max_steps:
        steps += 1
        if abs(hstep) > abs(t_end - t):
            hstep = t_end - t

        k1x, k1y = fx, fy
        x2 = x + hstep * _A21 * k1x
        y2 = y + hstep * _A21 * k1y
        k2x, k2y = _reference_rhs(a, b, c, h_par, delta, eta, m, x2, y2, x_axis, y_axis)
        x3 = x + hstep * (_A31 * k1x + _A32 * k2x)
        y3 = y + hstep * (_A31 * k1y + _A32 * k2y)
        k3x, k3y = _reference_rhs(a, b, c, h_par, delta, eta, m, x3, y3, x_axis, y_axis)
        x4 = x + hstep * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
        y4 = y + hstep * (_A41 * k1y + _A42 * k2y + _A43 * k3y)
        k4x, k4y = _reference_rhs(a, b, c, h_par, delta, eta, m, x4, y4, x_axis, y_axis)
        x5 = x + hstep * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
        y5 = y + hstep * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y)
        k5x, k5y = _reference_rhs(a, b, c, h_par, delta, eta, m, x5, y5, x_axis, y_axis)
        x6 = x + hstep * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x)
        y6 = y + hstep * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y)
        k6x, k6y = _reference_rhs(a, b, c, h_par, delta, eta, m, x6, y6, x_axis, y_axis)
        xn = x + hstep * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
        yn = y + hstep * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
        k7x, k7y = _reference_rhs(a, b, c, h_par, delta, eta, m, xn, yn, x_axis, y_axis)

        ex = hstep * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
        ey = hstep * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
        scx = atol + rtol * max(abs(x), abs(xn))
        scy = atol + rtol * max(abs(y), abs(yn))
        err = math.sqrt(0.5 * ((ex / scx) * (ex / scx) + (ey / scy) * (ey / scy)))

        if err <= 1.0 or abs(hstep) <= hmin:
            t = t + hstep
            x, y = xn, yn
            if x_axis:
                x = 0.0
            if y_axis:
                y = 0.0
            fx, fy = k7x, k7y
            ts.append(t)
            xs.append(x)
            ys.append(y)
            dxs.append(fx)
            dys.append(fy)
            if not x * x + y * y <= ESCAPE_RADIUS * ESCAPE_RADIUS:
                status = 2
                break
            err_prev = max(err, 1e-10)

        # PI controller
        if err == 0.0:
            fac = 5.0
        else:
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08
            fac = min(5.0, max(0.2, fac))
        hstep = hstep * fac
        if abs(hstep) < hmin:
            if err > 1.0:
                status = 1
                break
            hstep = math.copysign(hmin, direction)

    if status == 0 and (t - t_end) * direction < 0.0:
        status = 1  # ran out of steps
    return ts, xs, ys, dxs, dys, status


class TestBackends:
    def test_case_set_covers_every_status_and_axis(self):
        cases = _kernel_cases()
        outs = [_rk_py.integrate_kernel(*args) for args in cases]
        assert {out[5] for out in outs} == {0, 1, 2}
        assert any(out[5] == 2 and math.isnan(out[1][-1]) for out in outs)
        assert {args[12] for args in cases} == set(KERNEL_TOLS)
        assert any(args[7] == 0.0 for args in cases)
        assert any(args[8] == 0.0 for args in cases)
        assert any(args[10] < args[9] for args in cases)

    def test_python_and_compiled_agree(self, compiled):
        # every list element and the status, bit for bit
        for args in _kernel_cases():
            want = _bits(compiled.integrate_kernel(*args))
            assert _bits(_rk_py.integrate_kernel(*args)) == want, args

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_capped_run_is_a_prefix_of_the_full_run(self, backend, request):
        # max_steps keeps t_end, and with it the span and hmin: a capped run
        # takes the full run's first steps bit for bit and stops with status 1
        kernel = _rk_py if backend == "python" else request.getfixturevalue("compiled")
        for family in FAMILIES:
            for t_end in (1000.0, -5.0):
                args = (*family, 0.5, 0.5, 0.0, t_end, 1e-9, 1e-9)
                full, _ = _bits(kernel.integrate_kernel(*args, 10_000_000))
                for cap in (1, 7, 30):
                    capped, status = _bits(kernel.integrate_kernel(*args, cap))
                    n = len(capped[0])
                    assert status == 1
                    assert 1 < n <= cap + 1 < len(full[0])
                    assert capped == [values[:n] for values in full]

    def test_python_kernel_equals_reference(self):
        for args in _kernel_cases():
            assert _bits(_rk_py.integrate_kernel(*args)) == _bits(_reference_kernel(*args)), args


class TestCompiledKernel:
    """What the hand-written extension can get wrong that bit parity does
    not show: argument handling, result types, references and its name."""

    def test_argument_count_is_a_type_error_on_both_backends(self, compiled):
        args = _kernel_cases()[0]
        for kernel in (_rk_py, compiled):
            for wrong in (args[:13], (*args, 0)):
                with pytest.raises(TypeError):
                    kernel.integrate_kernel(*wrong)

    def test_step_budget_must_be_an_integer(self, compiled):
        args = _kernel_cases()[0][:13]
        for max_steps in (5.5, "5", None):
            with pytest.raises(TypeError):
                compiled.integrate_kernel(*args, max_steps)
        # past the step counter's range, a budget never runs out
        assert _bits(compiled.integrate_kernel(*args, 2**70)) == \
            _bits(_rk_py.integrate_kernel(*args, 2**70))

    def test_ints_are_accepted_where_floats_are_expected(self, compiled):
        # ALT's a, b and m, t0, and the special starts' x0 = 0, y0 = 0 and
        # t_end are integral
        cases = [args for args in _kernel_cases() if args[:7] == FAMILIES[1]][-15:]
        for args in cases:
            ints = tuple(int(v) if float(v).is_integer() else v for v in args)
            assert sum(type(v) is int for v in ints) >= 6
            assert _bits(compiled.integrate_kernel(*ints)) == \
                _bits(compiled.integrate_kernel(*args)), args

    def test_result_is_five_float_lists_and_an_int_status(self, compiled):
        # on both kernels, also for the integral x0 = 0, y0 = 0 and t0 of the
        # special starts
        for args in _kernel_cases()[-15:]:
            ints = tuple(int(v) if float(v).is_integer() else v for v in args)
            for out in (kernel.integrate_kernel(*given) for kernel in (_rk_py, compiled)
                        for given in (args, ints)):
                assert type(out) is tuple and len(out) == 6
                assert all(type(values) is list for values in out[:5])
                assert len({len(values) for values in out[:5]}) == 1
                assert all(type(v) is float for values in out[:5] for v in values)
                assert type(out[5]) is int

    def test_dropped_results_leave_no_memory_behind(self, compiled):
        # a 31-point run allocates about 4 kB: one lost reference per call
        # would hold at least 48 kB after 2,000 calls
        args = (*FAMILIES[0], 0.5, 0.5, 0.0, 1000.0, 1e-9, 1e-9, 30)
        for _ in range(100):
            compiled.integrate_kernel(*args)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(2000):
                compiled.integrate_kernel(*args)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 16_000

    def test_registers_as_predbif_rk_cy(self, compiled):
        # perfbench's tracer wraps builtins of the predbif._rk_cy module
        assert compiled.integrate_kernel.__module__ == "predbif._rk_cy"
        assert inspect.isbuiltin(compiled.integrate_kernel)


class TestBackendsAboveTheKernel:
    """The compiled kernel patched in as sim.integrate_kernel changes
    nothing that the CLI writes or that perfbench's tracer counts."""

    def test_simulate_reports_are_byte_identical(self, compiled, monkeypatch, tmp_path, capsys):
        def outputs(kernel):
            # the same paths on both runs: cli.run prints the files it writes
            monkeypatch.setattr(sim, "integrate_kernel", kernel)
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            got = {}
            for cfg in CONFIGS:
                for fmt in ("json", "csv", "svg"):
                    where = tmp_path / "out" / cfg.stem / fmt
                    code = cli.run(["simulate", "--config", str(cfg), "--out", str(where),
                                    "--format", fmt])
                    files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
                    got[cfg.stem, fmt] = code, capsys.readouterr(), files
            return got

        assert len(CONFIGS) == 4
        want = outputs(_rk_py.integrate_kernel)
        assert outputs(compiled.integrate_kernel) == want
        assert {code for code, _, _ in want.values()} == {0}

    def test_tracer_counts_the_compiled_kernel(self, compiled, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from tracer import Spans, Tracer, layer_metrics
        from workloads import make_block, prepare, run_op

        def block_zero(kernel):
            monkeypatch.setattr(sim, "integrate_kernel", kernel)
            tracer, items = Tracer(), 0
            tracer.install()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    for slot, op in enumerate(make_block("trajectories", 1, 0)):
                        prepare(op, tmp_path, slot)
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
            return layer_metrics(Spans(tracer), tracer.counters, items, 0.0)

        python = block_zero(_rk_py.integrate_kernel)
        got = block_zero(compiled.integrate_kernel)
        assert got["sim.steps_accepted_per_item"] == python["sim.steps_accepted_per_item"] > 0
        assert got["share.sim.kernel"] > 0


class TestBoundCheck:
    def test_seed_below_carrying_capacity(self):
        traj = integrate(BASE, State(0.8, 0.3), 100.0)
        rep = bound_check(traj, BASE, State(0.8, 0.3))
        assert rep.ok
        assert rep.x_violation <= 1e-6

    def test_seed_above_carrying_capacity(self):
        x0 = State(2.0, 0.3)
        traj = integrate(BASE, x0, 100.0)
        rep = bound_check(traj, BASE, x0)
        assert rep.ok
        # envelope implies x(t) <= x(0)
        assert max(traj.xs) <= 2.0 + 1e-6

    def test_injected_violation_detected(self):
        traj = integrate(BASE, State(0.8, 0.3), 10.0)
        bad = Trajectory(traj.times, traj.xs[:-1] + [5.0], traj.ys, traj.dxs, traj.dys,
                         traj.terminated)
        rep = bound_check(bad, BASE, State(0.8, 0.3))
        assert not rep.ok
        assert rep.x_violation > 1.0

    def test_start_on_the_predator_axis(self):
        x0 = State(0.0, 0.7)
        rep = bound_check(integrate(BASE, x0, 100.0), BASE, x0)
        assert rep.x_violation == 0.0
        assert rep.ok

    def test_backward_trajectory_is_a_domain_error(self):
        # the envelopes are a forward-time theorem; backward from (0.5, 0.3)
        # the prey rises 0.095 above the forward envelope
        x0 = State(0.5, 0.3)
        with pytest.raises(DomainError, match="forward"):
            bound_check(integrate(ALT, x0, -5.0), ALT, x0)

    def test_float_envelope_equals_numpy(self):
        # seeded forward runs of both families from x0 < 1, x0 > 1 and
        # x0 = 0, each checked against both families' predator bounds so
        # that both verdicts occur
        rng = random.Random(41)
        verdicts = set()
        for params in (BASE, ALT):
            for k in range(12):
                x = (rng.uniform(0.05, 0.95), rng.uniform(1.05, 2.0), 0.0)[k % 3]
                x0 = State(x, rng.uniform(0.05, 1.5))
                traj = integrate(params, x0, rng.uniform(20.0, 100.0))
                for check in (BASE, ALT):
                    got = bound_check(traj, check, x0)
                    want = _numpy_bound_check(_numpy_trajectory(traj), check, x0)
                    assert got.ok == want.ok
                    assert got.x_violation == pytest.approx(want.x_violation, rel=0, abs=1e-15)
                    assert got.y_violation == pytest.approx(want.y_violation, rel=0, abs=1e-15)
                    verdicts.add(got.ok)
        assert verdicts == {True, False}


class TestPhasePortrait:
    def test_single_seed_equals_integrate(self):
        seeds = [State(0.5, 0.5)]
        port = phase_portrait(ALT, seeds, 50.0)
        direct = integrate(ALT, seeds[0], 50.0)
        assert len(port) == 1
        assert port[0] == direct

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            phase_portrait(ALT, [], 50.0)


def _spiral_interior(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eqs = interior_equilibria(params)
    for e in eqs:
        ev = np.linalg.eigvals(jacobian(params, State(e.x, e.y)))
        if abs(ev[0].imag) > 1e-12:
            return e
    return None


#: labels perfbench's trajectories workload probes around
SPIRAL_LABELS = ("StableSpiral", "UnstableSpiral", "Center-candidate")


def _hopf_delta(params):
    """delta_H on the spiral branch of simulate_example's family."""
    return hopf_scan(params, (0.0178, 0.01786), eq_branch=1)[0].delta_H


def _probe_draws(n):
    """n cycle probes drawn as perfbench's trajectories workload draws them:
    SIMULATE with delta = delta_H + U(-3e-6, -1e-6) and delta_H +
    U(-5e-7, 2.5e-6) in turn, about the interior equilibrium that
    classify_generic labels a spiral, with t_max = 5000."""
    rng = random.Random(19)
    delta_h = _hopf_delta(SIMULATE)
    draws = []
    for k in range(n):
        lo, hi = ((-3e-6, -1e-6), (-5e-7, 2.5e-6))[k % 2]
        p = SIMULATE.with_(delta=delta_h + rng.uniform(lo, hi))
        center = next(e for e in interior_equilibria(p)
                      if classify_generic(p, e).label in SPIRAL_LABELS)
        draws.append((p, center, 5000.0))
    return draws


def _reference_probe(params, center, probe_radius=1e-3, t_max=5000.0, tol=sim.DEFAULT_TOL):
    """detect_limit_cycle's direction loop as it was written before the
    step budget: each direction integrated uncapped to t_max."""
    xc, yc = center.x, center.y
    seed = State(xc + probe_radius, yc)
    for direction, label in ((1.0, "Attracting"), (-1.0, "Repelling")):
        traj = integrate(params, seed, direction * t_max, tol, on_failure="keep")
        same = _section_crossings(traj, xc, yc)
        radii = [r for _, r in same]
        k = _converged_radius(radii)
        if k is not None and radii[k] > 1e-6:
            period = abs(same[k][0] - same[k - 1][0])
            return CycleProbe(True, period, label, tuple(radii[: k + 1]))
        if k is not None:
            continue
    return CycleProbe(False, None, "Inconclusive", ())


def _record_kernel_calls(monkeypatch):
    """Wraps sim.integrate_kernel; each call appends (t_end, max_steps,
    accepted steps, status, last state) to the returned list."""
    calls = []
    kernel = sim.integrate_kernel

    def recorded(*args):
        out = kernel(*args)
        calls.append((args[10], args[13], len(out[0]) - 1, out[5], State(out[1][-1], out[2][-1])))
        return out

    monkeypatch.setattr(sim, "integrate_kernel", recorded)
    return calls


class TestCycleProbe:
    def test_repelling_cycle_in_subcritical_regime(self):
        p = BASE.with_(h=BASE.h + 0.02, delta=BASE.delta - 0.01284449222)
        center = _spiral_interior(p)
        assert center is not None
        probe = detect_limit_cycle(p, center, probe_radius=1e-3, t_max=20000.0)
        assert probe.found
        assert probe.stability == "Repelling"
        assert probe.period > 0
        # the converged return point closes up after one period
        x_start = State(center.x + probe.radii[-1], center.y)
        loop = integrate(p, x_start, probe.period, tol=1e-12)
        gap = abs(loop.final.x - x_start.x) + abs(loop.final.y - x_start.y)
        assert gap < 1e-6

    def test_probe_fields_are_floats(self):
        p = BASE.with_(h=BASE.h + 0.02, delta=BASE.delta - 0.01284449222)
        probe = detect_limit_cycle(p, _spiral_interior(p), probe_radius=1e-3, t_max=20000.0)
        assert probe.found
        assert type(probe.period) is float
        assert probe.radii and all(type(r) is float for r in probe.radii)

    def test_stable_spiral_without_cycle(self):
        # far below the homoclinic curve the stable spiral has no nearby cycle
        p = BASE.with_(h=BASE.h + 0.02, delta=BASE.delta - 0.0132)
        center = _spiral_interior(p)
        assert center is not None
        probe = detect_limit_cycle(p, center, probe_radius=1e-3, t_max=4000.0)
        assert not probe.found

    def test_non_spiral_center_rejected(self):
        p = BASE.with_(h=BASE.h + 0.02, delta=BASE.delta - 0.01284449222)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eqs = interior_equilibria(p)
        saddle = eqs[0]
        with pytest.raises(DomainError):
            detect_limit_cycle(p, saddle)

    def test_non_interior_center_rejected(self):
        with pytest.raises(DomainError):
            detect_limit_cycle(BASE, Equilibrium(0.0, 0.0, "Origin"))

    @pytest.mark.parametrize("t_max", [-20000.0, 0.0, math.nan, math.inf])
    def test_t_max_must_be_finite_and_positive(self, t_max):
        # the probe labels forward returns Attracting and backward ones
        # Repelling, so a negative t_max would swap the labels
        p = BASE.with_(h=BASE.h + 0.02, delta=BASE.delta - 0.01284449222)
        with pytest.raises(DomainError, match="t_max"):
            detect_limit_cycle(p, _spiral_interior(p), probe_radius=1e-3, t_max=t_max)

    @pytest.mark.parametrize("probe_radius", [0.0, -1e-3, math.nan, math.inf])
    def test_probe_radius_must_be_finite_and_positive(self, probe_radius):
        # a zero radius seeds on the focus itself, which never returns
        p = BASE.with_(h=BASE.h + 0.02, delta=BASE.delta - 0.01284449222)
        with pytest.raises(DomainError, match="probe_radius"):
            detect_limit_cycle(p, _spiral_interior(p), probe_radius=probe_radius)

    def test_center_off_the_equilibrium_rejected(self):
        # complex eigenvalues, but the rhs residual is 2.1e-4; the trap rule
        # rests on f(x_c) > 0, which holds only at an equilibrium
        with pytest.raises(NotAnEquilibrium, match="residual"):
            detect_limit_cycle(SIMULATE, Equilibrium(0.26, 0.19, "Interior"))

    def test_probes_equal_the_uncapped_reference(self, monkeypatch):
        cases = _probe_draws(40)
        for offset, t_max in ((0.01284449222, 20000.0), (0.0132, 4000.0)):
            p = BASE.with_(h=BASE.h + 0.02, delta=BASE.delta - offset)
            cases.append((p, _spiral_interior(p), t_max))
        calls = _record_kernel_calls(monkeypatch)
        early_stops = decided_prefixes = reruns = 0
        backward_runs = []
        for p, center, t_max in cases:
            want = _reference_probe(p, center, t_max=t_max)
            seed = State(center.x + 1e-3, center.y)
            prefix_k = {sign: _converged_radius([r for _, r in _section_crossings(
                integrate(p, seed, sign * t_max, max_steps=_PROBE_STEPS, on_failure="keep"),
                center.x, center.y)]) for sign in (1.0, -1.0)}
            calls.clear()
            assert detect_limit_cycle(p, center, t_max=t_max) == want
            x_minus = predator_free_x(p, "minus")
            backward_runs.append(sum(call[0] < 0 for call in calls))
            for sign in (1.0, -1.0):
                runs = [call for call in calls if call[0] * sign > 0]
                if not runs:
                    continue  # the forward returns decided the probe
                assert runs[0][1] == _PROBE_STEPS
                if runs[0][3] != 1:
                    assert len(runs) == 1
                    continue
                # the budget ran out: the forward run in the trap and a
                # prefix whose returns converge stop there
                last = runs[0][4]
                trapped = (sign > 0 and p.h > p.c and x_minus is not None
                           and 0.0 <= last.x < x_minus and last.y >= 0.0)
                decided = prefix_k[sign] is not None
                assert len(runs) == (1 if trapped or decided else 2)
                assert trapped or decided or runs[1][1] > _PROBE_STEPS
                early_stops += trapped
                decided_prefixes += decided and not trapped
                reruns += len(runs) == 2
        assert early_stops >= 1
        assert decided_prefixes >= 1
        assert reruns >= 1
        # the subcritical case: its capped backward run reaches t = -7,534
        # and already holds the returns that decide it
        assert cases[40][2] == 20000.0 and backward_runs[40] == 1

    def test_forward_run_stays_within_the_step_budget(self, monkeypatch):
        # just above delta_H the forward orbit falls into the prey-extinction
        # trap by t ~ 500; run to t_max it took 4,031 steps (and 242 backward)
        p = SIMULATE.with_(delta=_hopf_delta(SIMULATE) + 1e-6)
        calls = _record_kernel_calls(monkeypatch)
        probe = detect_limit_cycle(p, _spiral_interior(p), t_max=5000.0)
        forward = [call[2] for call in calls if call[0] > 0]
        assert len(forward) == 1 and forward[0] <= _PROBE_STEPS <= 1000
        assert not probe.found


class TestPreyExtinctionTrap:
    def test_interior_equilibria_lie_right_of_the_trap(self):
        # for h > c, x' <= x f(x)/(c + x) with f(x) = -x^2 + (1 - c)x + c - h,
        # f < 0 on [0, x-): x falls there, and every interior x_c exceeds x-
        rng = random.Random(23)
        checked = 0
        for _ in range(300):
            a, c = rng.uniform(0.5, 3.0), rng.uniform(0.01, 0.3)
            p = ModelParams(a=a, b=2.0 * math.sqrt(a) * rng.uniform(-0.99, 1.0), c=c,
                            h=c + rng.uniform(1e-6, 1.0) * (1.0 - c) ** 2 / 4.0,
                            delta=rng.uniform(0.002, 0.1), eta=rng.uniform(0.05, 0.3),
                            m=rng.uniform(0.3, 1.5))
            eqs = interior_equilibria(p)
            if not eqs:
                continue
            x_minus = predator_free_x(p, "minus")
            assert x_minus is not None
            assert all(e.x > x_minus for e in eqs), p
            for _ in range(20):
                x = x_minus * rng.uniform(1e-9, 1.0 - 1e-9)
                y = rng.choice((0.0, rng.uniform(0.0, 5.0)))
                assert rhs(p, State(x, y))[0] < 0.0, (p, x, y)
            checked += 1
        assert checked >= 100


def _numpy_trajectory(traj):
    """The trajectory's lists as the arrays the numpy oracles read:
    times (N,), states (N, 2) and derivs (N, 2)."""
    return SimpleNamespace(times=np.array(traj.times),
                           states=np.column_stack([traj.xs, traj.ys]),
                           derivs=np.column_stack([traj.dxs, traj.dys]))


def _numpy_bound_check(traj, params, x0):
    """sim.bound_check as it was written on numpy arrays, fed by
    _numpy_trajectory."""
    t = traj.times - traj.times[0]
    x = traj.states[:, 0]
    y = traj.states[:, 1]
    if x0.x > 0:
        C = 1.0 - 1.0 / x0.x
        denom = 1.0 - C * np.exp(-t)
        xb = np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1.0), np.inf)
        x_violation = float(np.max(x - xb))
    else:
        x_violation = float(np.max(x))
    M = max(x0.x, 1.0)
    yb = max(x0.y, params.delta * (params.m + M) / params.eta)
    y_violation = float(np.max(y - yb))
    ok = x_violation <= 1e-6 and y_violation <= 1e-6
    return BoundReport(x_violation, y_violation, ok)


def _numpy_section_crossings(traj, xc, yc):
    """sim._section_crossings as it was written on numpy arrays and scalars."""
    t = traj.times
    x = traj.states[:, 0]
    y = traj.states[:, 1]
    dx = traj.derivs[:, 0]
    dy = traj.derivs[:, 1]
    g = y - yc
    out = []
    for i in np.nonzero(g[:-1] * g[1:] < 0)[0]:
        dt = t[i + 1] - t[i]
        lo, hi = 0.0, 1.0
        glo = g[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = _hermite(mid, y[i], y[i + 1], dy[i], dy[i + 1], dt) - yc
            if glo * gm <= 0:
                hi = mid
            else:
                lo, glo = mid, gm
        s = 0.5 * (lo + hi)
        xs = _hermite(s, x[i], x[i + 1], dx[i], dx[i + 1], dt)
        if xs > xc:
            out.append((t[i] + s * dt, xs - xc))
    return out


class TestSectionCrossings:
    @pytest.mark.parametrize("t_end", [2000.0, -2000.0, 1.0], ids=["forward", "backward", "none"])
    def test_float_bisection_equals_numpy(self, t_end):
        # the probe's trajectories around the subcritical focus; within
        # t = 1 the seed does not reach its half-line again
        p = BASE.with_(h=BASE.h + 0.02, delta=BASE.delta - 0.01284449222)
        center = _spiral_interior(p)
        traj = integrate(p, State(center.x + 1e-3, center.y), t_end, on_failure="keep")
        got = _section_crossings(traj, center.x, center.y)
        want = _numpy_section_crossings(_numpy_trajectory(traj), center.x, center.y)
        assert [(float(t).hex(), float(r).hex()) for t, r in want] == \
            [(t.hex(), r.hex()) for t, r in got]
        assert all(type(t) is float and type(r) is float for t, r in got)
        assert (len(got) >= 4) == (t_end != 1.0)
