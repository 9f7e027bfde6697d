import importlib.util
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest

import predbif
from predbif.equilibria import Equilibrium, interior_equilibria
from predbif.errors import DomainError, StepFailure
from predbif.model import ModelParams, State, jacobian
from predbif.sim import (
    Trajectory,
    bound_check,
    detect_limit_cycle,
    integrate,
    phase_portrait,
)

BASE = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1715598183,
                   delta=0.03070149222, eta=0.1, m=0.8)
ALT = ModelParams(a=1.0, b=2.0, c=0.2, h=0.1, delta=0.5, eta=0.1, m=1.0)


class TestIntegrate:
    def test_stable_fixed_point_stays(self):
        # prey-extinction equilibrium is a stable node here (h > c)
        eq = State(0.0, BASE.delta * BASE.m / BASE.eta)
        traj = integrate(BASE, eq, 100.0)
        assert np.max(np.abs(traj.states - [eq.x, eq.y])) < 1e-7

    def test_axis_invariance_is_exact(self):
        traj = integrate(BASE, State(0.0, 0.7), 900.0)
        assert np.all(traj.states[:, 0] == 0.0)
        assert traj.final.y == pytest.approx(BASE.delta * BASE.m / BASE.eta, abs=1e-6)

    def test_prey_axis_invariance(self):
        traj = integrate(ALT, State(0.5, 0.0), 100.0)
        assert np.all(traj.states[:, 1] == 0.0)

    def test_times_strictly_increasing(self):
        traj = integrate(ALT, State(0.5, 0.5), 50.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_positivity_of_random_seeds(self):
        rng = np.random.default_rng(31)
        for params in (BASE, ALT):
            for _ in range(50):
                x0 = State(rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0))
                traj = integrate(params, x0, 200.0)
                assert traj.states.min() > -1e-9

    def test_theorem_envelope_random_seeds(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            x0 = State(rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0))
            traj = integrate(BASE, x0, 200.0)
            M = max(x0.x, 1.0)
            assert traj.states[:, 0].max() <= max(x0.x, 1.0) + 1e-6
            ybound = max(x0.y, BASE.delta * (BASE.m + M) / BASE.eta)
            assert traj.states[:, 1].max() <= ybound + 1e-6

    def test_tolerance_out_of_range(self):
        with pytest.raises(DomainError):
            integrate(ALT, State(0.5, 0.5), 10.0, tol=1e-2)

    def test_step_budget_exhaustion_raises(self):
        with pytest.raises(StepFailure):
            integrate(ALT, State(0.5, 0.5), 1000.0, max_steps=5)

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


#: holds _rk_cy.pyx, the Cython twin of _rk_py, and the C generated from it
KERNEL_DIR = Path(predbif.__file__).parent


def _compiled_kernel(tmp_path):
    """predbif._rk_cy when it is built, else the shipped _rk_cy.c compiled
    into tmp_path and loaded from there; skips without a C compiler or
    Python.h."""
    try:
        from predbif import _rk_cy
        return _rk_cy
    except ImportError:
        pass
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    if not Path(include, "Python.h").exists():
        pytest.skip("no Python.h")
    lib = tmp_path / ("_rk_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([*cc, "-O2", "-shared", "-fPIC", f"-I{include}",
                    str(KERNEL_DIR / "_rk_cy.c"), "-o", str(lib)], check=True)
    spec = importlib.util.spec_from_file_location("_rk_cy", lib)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension registers itself as predbif._rk_cy; the process keeps
    # the backend it started with
    sys.modules.pop("predbif._rk_cy", None)
    return module


class TestBackends:
    def test_python_and_compiled_agree(self, tmp_path):
        from predbif import _rk_py
        _rk_cy = _compiled_kernel(tmp_path)
        args = (ALT.a, ALT.b, ALT.c, ALT.h, ALT.delta, ALT.eta, ALT.m,
                0.5, 0.5, 0.0, 200.0, 1e-9, 1e-9, 10_000_000)
        out_py = _rk_py.integrate_kernel(*args)
        out_cy = _rk_cy.integrate_kernel(*args)
        assert len(out_py[0]) == len(out_cy[0])
        assert out_py[5] == out_cy[5]
        assert np.max(np.abs(np.asarray(out_py[1]) - np.asarray(out_cy[1]))) < 1e-12
        assert np.max(np.abs(np.asarray(out_py[2]) - np.asarray(out_cy[2]))) < 1e-12

    def test_generated_c_quotes_its_pyx(self):
        # every '/* "predbif/_rk_cy.pyx":N' block of the generated C marks
        # the line it compiles with '# <<<'; a .pyx edited without
        # regenerating the .c no longer matches
        pyx = (KERNEL_DIR / "_rk_cy.pyx").read_text().splitlines()
        c = (KERNEL_DIR / "_rk_cy.c").read_text().splitlines()
        marker = re.compile(r'/\* "predbif/_rk_cy\.pyx":(\d+)$')
        arrow = "# <<<<<<<<<<<<<<"
        checked = 0
        for i, line in enumerate(c):
            if not (m := marker.search(line)):
                continue
            quoted = next(q for q in c[i + 1:] if q.endswith(arrow))
            assert quoted[3:-len(arrow)].rstrip() == pyx[int(m.group(1)) - 1].rstrip(), line
            checked += 1
        assert checked > 0


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
        assert traj.states[:, 0].max() <= 2.0 + 1e-6

    def test_injected_violation_detected(self):
        traj = integrate(BASE, State(0.8, 0.3), 10.0)
        bad = Trajectory(traj.times, traj.states.copy(), traj.derivs, traj.terminated)
        bad.states[-1, 0] = 5.0
        rep = bound_check(bad, BASE, State(0.8, 0.3))
        assert not rep.ok
        assert rep.x_violation > 1.0


class TestPhasePortrait:
    def test_single_seed_equals_integrate(self):
        seeds = [State(0.5, 0.5)]
        port = phase_portrait(ALT, seeds, 50.0)
        direct = integrate(ALT, seeds[0], 50.0)
        assert len(port) == 1
        assert np.array_equal(port[0].states, direct.states)

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
