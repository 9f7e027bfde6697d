"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
so the pytest -v log doubles as a sign-off sheet.
"""

import contextlib
import math
import time
import warnings

import numpy as np
import pytest

from predbif import polyroots
from predbif.bt import bt_locate, normal_form
from predbif.equilibria import (
    interior_equilibria,
    interior_roots_oracle,
    quartic_coeffs,
    trivial_equilibria,
)
from predbif.hopf import hopf_scan, transversality_fd
from predbif.model import ModelParams, State, jacobian, rhs
from predbif.sim import detect_limit_cycle, integrate

from paper_forms import taylor_jet
from root_count import sturm_count

GOLD_SEED = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.17, delta=0.03, eta=0.1, m=0.8)
GOLD = GOLD_SEED.with_(h=0.1715598183, delta=0.03070149222)


@contextlib.contextmanager
def criterion(label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"FAIL {label} (runtime {elapsed:.2f}s over {budget_s}s budget)")
        pytest.fail(f"{label}: runtime {elapsed:.2f}s exceeds {budget_s}s")
    print(f"PASS {label}")


def test_criterion_01_bt_point_golden():
    with criterion("criterion 1: double-zero point golden values", budget_s=1.0):
        pts = bt_locate(GOLD_SEED)
        assert len(pts) == 1
        p = pts[0]
        assert p.h_bt == pytest.approx(0.1715598183, abs=1e-6)
        assert p.delta_bt == pytest.approx(0.03070149222, abs=1e-6)
        assert p.x == pytest.approx(0.2187994431, abs=1e-6)
        assert p.y == pytest.approx(0.3127866314, abs=1e-6)


def test_criterion_02_trivial_equilibria_golden():
    with criterion("criterion 2: boundary equilibria golden values", budget_s=0.1):
        eqs = trivial_equilibria(GOLD)
        pf = sorted((e.x for e in eqs if e.kind == "PredatorFree"))
        assert pf[1] == pytest.approx(0.7975913540, abs=1e-8)
        assert pf[0] == pytest.approx(0.1524086460, abs=1e-8)
        ey = next(e for e in eqs if e.kind == "PreyExtinction")
        assert (ey.x, ey.y) == (0.0, pytest.approx(0.2456119378, abs=1e-8))


def test_criterion_03_normal_form_golden():
    with criterion("criterion 3: normal-form golden coefficients", budget_s=5.0):
        pt = bt_locate(GOLD_SEED)[0]
        nf = normal_form(GOLD_SEED, pt)
        assert nf.g11_0 == pytest.approx(-0.5922764628, rel=1e-4)
        assert 2.0 * nf.A0 == pytest.approx(-0.01942828012, rel=1e-4)
        assert nf.s == 1
        det = float(np.linalg.det(nf.beta_jacobian))
        assert det == pytest.approx(3.559954288e6, rel=0.02)


def test_criterion_04_k2_degeneracy_crossings():
    with criterion("criterion 4: equal-rate cubic discriminant crossings",
                   budget_s=1.0):
        base = ModelParams(a=1.0, b=20.0, c=0.3, h=0.3, delta=1.0, eta=0.1, m=1.0)

        def disc(delta):
            q = quartic_coeffs(base.with_(delta=delta))
            assert abs(q.D) < 1e-12  # h = c collapses the quartic to x * cubic
            return polyroots.solve_cubic_cardano(q.A, q.B, q.C).Delta

        def bisect(lo, hi):
            flo = disc(lo)
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                fm = disc(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            return 0.5 * (lo + hi)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = np.linspace(0.01, 20.0, 500)
            vals = [disc(d) for d in grid]
            crossings = [bisect(grid[i], grid[i + 1])
                         for i in range(len(grid) - 1)
                         if vals[i] * vals[i + 1] <= 0 and vals[i] != 0.0]
        assert len(crossings) == 2
        assert crossings[0] == pytest.approx(0.42769229198509, abs=1e-8)
        assert crossings[1] == pytest.approx(10.49999490731896, abs=1e-8)


def test_criterion_05_unfolding_regimes():
    pt = bt_locate(GOLD_SEED)[0]
    p0 = pt.params(GOLD_SEED)
    l1 = 0.02

    def at(l2):
        return p0.with_(h=p0.h + l1, delta=p0.delta + l2)

    with criterion("criterion 5a: no interior equilibria at the reference offset",
                   budget_s=30.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert interior_equilibria(at(0.0)) == []

    with criterion("criterion 5b: saddle plus spiral source between fold and cycle",
                   budget_s=30.0):
        p = at(-0.01284149222)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eqs = interior_equilibria(p)
        assert len(eqs) == 2
        evs = [np.linalg.eigvals(jacobian(p, State(e.x, e.y))) for e in eqs]
        saddle = [ev for ev in evs if ev.imag.max() == 0 and ev[0].real * ev[1].real < 0]
        spiral = [ev for ev in evs if abs(ev[0].imag) > 0 and ev[0].real > 0]
        assert len(saddle) == 1 and len(spiral) == 1

    with criterion("criterion 5c: repelling limit cycle past the subcritical offset",
                   budget_s=30.0):
        p = at(-0.01284449222)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eqs = interior_equilibria(p)
        center = next(
            e for e in eqs
            if abs(np.linalg.eigvals(jacobian(p, State(e.x, e.y)))[0].imag) > 1e-12
        )
        probe = detect_limit_cycle(p, center, probe_radius=1e-3, t_max=20000.0)
        assert probe.found
        assert probe.stability == "Repelling"


def test_criterion_06_closed_form_roots_vs_companion_oracle():
    with criterion("criterion 6: closed-form roots match companion-matrix oracle"):
        rng = np.random.default_rng(1006)

        def check(roots, coeffs):
            oracle = list(np.roots([1.0] + coeffs))
            got = list(roots)
            assert len(got) == len(oracle)
            for z in got:
                j = int(np.argmin([abs(z - w) for w in oracle]))
                assert abs(z - oracle.pop(j)) < 1e-8
            # Vieta: sum of roots and product of roots
            n = len(roots)
            assert abs(sum(roots) + coeffs[0]) < 1e-7
            prod = np.prod(roots)
            sign = -1.0 if n % 2 else 1.0
            assert abs(prod - sign * coeffs[-1]) < 1e-7 * max(1.0, abs(coeffs[-1]))

        for _ in range(10_000):
            A, B, C = rng.uniform(-5, 5, size=3)
            check(polyroots.solve_cubic_cardano(A, B, C).roots, [A, B, C])
        for _ in range(10_000):
            A, B, C, D = rng.uniform(-5, 5, size=4)
            check(polyroots.solve_quartic_ferrari(A, B, C, D).roots, [A, B, C, D])


def _draw_in_region(rng, region):
    from predbif.equilibria import classify_region
    while True:
        c = rng.uniform(0.05, 0.95)
        if region == "K2":
            h = c
        elif region == "K3":
            h = rng.uniform(0.01, c * 0.95)
        else:
            lo, hi = c * 1.05, (c + 1.0) ** 2 / 4.0 * 0.95
            if lo >= hi:
                continue
            h = rng.uniform(lo, hi)
        a = rng.uniform(0.2, 3.0)
        p = ModelParams(a=a, b=rng.uniform(-1.9 * math.sqrt(a), 3.0), c=c, h=h,
                        delta=rng.uniform(0.05, 1.0), eta=rng.uniform(0.05, 1.0),
                        m=rng.uniform(0.1, 2.0))
        if classify_region(p.h, p.c).tag == region:
            return p


def test_criterion_07_interior_equilibria_vs_sign_scan_oracle():
    with criterion("criterion 7: interior equilibria match sign-scan oracle"):
        for region in ("K1", "K2", "K3"):
            rng = np.random.default_rng(1007 + hash(region) % 1000)
            for _ in range(200):
                p = _draw_in_region(rng, region)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    xs = sorted(e.x for e in interior_equilibria(p))
                oracle = [x for x in interior_roots_oracle(p, x_max=1.2,
                                                           n_grid=400_000)
                          if x > 1e-6]
                assert len(xs) == len(oracle), (region, p)
                assert len(xs) == sturm_count(p), (region, p)
                for xe, xo in zip(xs, oracle):
                    assert xe == pytest.approx(xo, abs=1e-7)


def _jet_fd_step(p, eq, e):
    """Central-difference Taylor coefficients of the shifted field at an
    interior equilibrium."""
    def F(i, u, v):
        return rhs(p, State(eq.x + u, eq.y + v))[i]

    out = {}
    for i, pre in ((0, "alpha"), (1, "beta")):
        out[pre + "20"] = (F(i, e, 0) - 2 * F(i, 0, 0) + F(i, -e, 0)) / e**2 / 2.0
        out[pre + "02"] = (F(i, 0, e) - 2 * F(i, 0, 0) + F(i, 0, -e)) / e**2 / 2.0
        out[pre + "11"] = (F(i, e, e) - F(i, e, -e) - F(i, -e, e)
                           + F(i, -e, -e)) / (4 * e**2)
        out[pre + "30"] = (F(i, 2 * e, 0) - 2 * F(i, e, 0) + 2 * F(i, -e, 0)
                           - F(i, -2 * e, 0)) / (2 * e**3) / 6.0
        d11p = (F(i, e, e) - 2 * F(i, 0, e) + F(i, -e, e)) / e**2
        d11m = (F(i, e, -e) - 2 * F(i, 0, -e) + F(i, -e, -e)) / e**2
        out[pre + "21"] = (d11p - d11m) / (2 * e) / 2.0
        d22p = (F(i, e, e) - 2 * F(i, e, 0) + F(i, e, -e)) / e**2
        d22m = (F(i, -e, e) - 2 * F(i, -e, 0) + F(i, -e, -e)) / e**2
        out[pre + "12"] = (d22p - d22m) / (2 * e) / 2.0
    return out


def test_criterion_08_jacobian_and_jet_vs_finite_differences():
    with criterion("criterion 8: analytic Jacobian and jet match finite differences"):
        rng = np.random.default_rng(1008)
        # Jacobian at arbitrary interior points
        for _ in range(50):
            a = rng.uniform(0.2, 3.0)
            p = ModelParams(a=a, b=rng.uniform(-1.9 * math.sqrt(a), 3.0),
                            c=rng.uniform(0.05, 1.5), h=rng.uniform(0.05, 1.5),
                            delta=rng.uniform(0.05, 1.5), eta=rng.uniform(0.05, 1.5),
                            m=rng.uniform(0.1, 2.0))
            st = State(rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5))
            J = jacobian(p, st)
            e = 1e-6
            for j, (dx, dy) in enumerate(((e, 0.0), (0.0, e))):
                hi = rhs(p, State(st.x + dx, st.y + dy))
                lo = rhs(p, State(st.x - dx, st.y - dy))
                for i in range(2):
                    fd = (hi[i] - lo[i]) / (2 * e)
                    assert J[i, j] == pytest.approx(
                        fd, rel=1e-6, abs=1e-6 * (1.0 + abs(fd)))
        # full jet at randomized interior equilibria (Richardson-extrapolated
        # differences, since the jet is only defined at equilibria)
        names = ("alpha20", "alpha11", "alpha30", "alpha21",
                 "beta20", "beta11", "beta02", "beta30", "beta21", "beta12")
        checked = 0
        while checked < 25:
            a = rng.uniform(0.2, 3.0)
            p = ModelParams(a=a, b=rng.uniform(-1.9 * math.sqrt(a), 3.0),
                            c=rng.uniform(0.05, 1.5), h=rng.uniform(0.05, 1.5),
                            delta=rng.uniform(0.05, 1.5), eta=rng.uniform(0.05, 1.5),
                            m=rng.uniform(0.1, 2.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                eqs = interior_equilibria(p)
            if not eqs:
                continue
            eq = eqs[0]
            jet = taylor_jet(p, eq.state)
            d1 = _jet_fd_step(p, eq, 2e-3)
            d2 = _jet_fd_step(p, eq, 1e-3)
            for name in names:
                fd = (4.0 * d2[name] - d1[name]) / 3.0
                assert getattr(jet, name) == pytest.approx(fd, rel=1e-5, abs=1e-5), name
            checked += 1


def test_criterion_09_positivity_and_boundedness_envelopes():
    with criterion("criterion 9: positivity and boundedness envelopes hold"):
        sets = [GOLD, ModelParams(a=1.0, b=2.0, c=0.2, h=0.1, delta=0.5,
                                  eta=0.1, m=1.0)]
        rng = np.random.default_rng(1009)
        for _ in range(100):
            p = sets[int(rng.integers(len(sets)))]
            x0 = State(rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0))
            traj = integrate(p, x0, 200.0)
            assert min(min(traj.xs), min(traj.ys)) > -1e-6
            M = max(x0.x, 1.0)
            assert max(traj.xs) <= M + 1e-6
            ybound = max(x0.y, p.delta * (p.m + M) / p.eta)
            assert max(traj.ys) <= ybound + 1e-6


def test_criterion_10_hopf_transversality():
    with criterion("criterion 10: eigenvalue crossing speed is -1 at Hopf points"):
        slice_params = GOLD.with_(h=GOLD.h + 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pts = hopf_scan(slice_params, (0.0177, 0.017863), n_samples=120,
                            eq_branch=1)
        assert pts, "no Hopf point detected"
        for hd in pts:
            assert hd.transversality == pytest.approx(-1.0, abs=1e-8)
            p = slice_params.with_(delta=hd.delta_H)
            assert transversality_fd(p, hd.equilibrium) == pytest.approx(
                -1.0, abs=1e-8)
