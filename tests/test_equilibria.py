import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from predbif import equilibria, polyroots
from predbif.cli import cmd_sweep, params_from_config, parse_config
from predbif.equilibria import (
    POSITIVITY_TOL,
    _no_interior_root,
    _polish_interior,
    all_equilibria,
    classify_region,
    interior_equilibria,
    interior_roots_oracle,
    isocline_y,
    predator_free_x,
    quartic_coeffs,
    trivial_equilibria,
)
from predbif.errors import DomainError
from predbif.model import ModelParams, State, linspace, rhs

from root_count import positive_root_count, sturm_count

GOLD = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1715598183,
                   delta=0.03070149222, eta=0.1, m=0.8)

# c >= 1 and h within K2_EQUALITY_TOL below c, with one interior equilibrium
SLIVER = ModelParams(1.861547188805832, 0.8274898869805187, 1.0174938345511504,
                     1.0174938345140232, 0.7077795780232038, 1.041987986948265,
                     0.034877350903953226)


def printed_quartic(params: ModelParams) -> tuple[float, float, float, float]:
    """Transcription of the paper's coefficient table for the interior
    quartic x^4 + A x^3 + B x^2 + C x + D, as (A, B, C, D); its A carries
    delta/eta where the cleared-denominator expansion (``quartic_coeffs``)
    gives delta/(a*eta)."""
    a, b, c, h = params.a, params.b, params.c, params.h
    delta, eta, m = params.delta, params.eta, params.m
    return ((c - 1.0) + b / a + delta / eta,
            (h - c) + (b / a) * (c - 1.0) + delta * (c + m) / (a * eta) + 1.0 / a,
            (b / a) * (h - c) + (c - 1.0) / a + c * delta * m / (a * eta),
            (h - c) / a)


class TestRegion:
    def test_diagonal_below_one_is_k2(self):
        assert classify_region(0.3, 0.3) == "K2"

    def test_diagonal_above_one_is_none(self):
        assert classify_region(1.2, 1.2) == "None"

    def test_below_diagonal_is_k3(self):
        assert classify_region(0.1, 0.5) == "K3"

    def test_between_diagonal_and_parabola_is_k1(self):
        c = 0.3
        h = 0.35  # c < h < (c+1)^2/4 = 0.4225
        assert classify_region(h, c) == "K1"

    def test_above_parabola_is_none(self):
        assert classify_region(0.5, 0.3) == "None"

    def test_no_tolerance_band_above_one(self):
        # with c >= 1 there is no K2: just below the diagonal is K3, on it None
        c = 1.2
        assert classify_region(c * (1.0 - 1e-12), c) == "K3"
        assert classify_region(c * (1.0 + 1e-12), c) == "None"

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            classify_region(0.0, 0.3)


class TestTrivial:
    def test_golden_values(self):
        eqs = {e.kind: e for e in trivial_equilibria(GOLD)}
        # predator-free pair exists since h > c here
        pf = sorted([e for e in trivial_equilibria(GOLD) if e.kind == "PredatorFree"],
                    key=lambda e: e.x)
        assert len(pf) == 2
        assert pf[1].x == pytest.approx(0.7975913540, abs=1e-8)
        assert pf[0].x == pytest.approx(0.1524086460, abs=1e-8)
        assert eqs["PreyExtinction"].y == pytest.approx(0.2456119378, abs=1e-8)
        assert eqs["Origin"].x == 0.0 and eqs["Origin"].y == 0.0

    def test_h_less_c_single_predator_free(self):
        p = GOLD.with_(h=0.02, c=0.05)
        pf = [e for e in trivial_equilibria(p) if e.kind == "PredatorFree"]
        assert len(pf) == 1
        assert pf[0].x > 0

    def test_h_equals_c_boundary(self):
        p = GOLD.with_(h=0.05, c=0.05)
        pf = [e for e in trivial_equilibria(p) if e.kind == "PredatorFree"]
        assert len(pf) == 1
        assert pf[0].x == pytest.approx(0.95)

    def test_m_zero_drops_prey_extinction(self):
        p = ModelParams(**{**GOLD._asdict(), "m": 0.0})
        kinds = [e.kind for e in trivial_equilibria(p)]
        assert "PreyExtinction" not in kinds

    def test_predator_free_x_matches_rhs(self):
        for which in ("plus", "minus"):
            x = predator_free_x(GOLD, which)
            assert x is not None
            dx, _ = rhs(GOLD, State(x, 0.0))
            assert abs(dx) < 1e-12


#: (h, c) where the region tag and the predator-free list once disagreed:
#: tag None with E+- listed, tag K1 with a float disc of 0 and no E+- listed,
#: and SLIVER's tag K3 without its E+ at x = 2.1e-9
DISAGREED = [(0.46743856844673115, 0.36738958376423386),
             (0.46976056333200084, 0.37078162131245523),
             (1.0174938345140232, 1.0174938345511504)]


def _ulps_from(v, k):
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


def _geometry_edge_draws(n: int):
    """Seeded (h, c) within a few ulps of the K1 parabola h = (c+1)^2/4 and
    of both edges of the K2 band, for c < 1 and c > 1."""
    rng = random.Random(2901)
    out = []
    for _ in range(n):
        c = rng.uniform(0.001, 0.999) if rng.random() < 0.7 else rng.uniform(1.0, 2.0)
        edge = rng.randrange(3)
        if edge == 0:
            h = (c + 1.0) ** 2 / 4.0
        else:
            h = c + (1 if edge == 1 else -1) * equilibria.K2_EQUALITY_TOL * max(c, 1.0)
        out.append((_ulps_from(h, rng.randint(-6, 6)), c))
    return out


class TestRegionDecidesPredatorFree:
    """``classify_region`` alone decides which predator-free equilibria
    exist: ``trivial_equilibria`` lists as many as the tag admits and
    ``predator_free_x`` reads its abscissas from that list."""

    @pytest.mark.parametrize("h, c", DISAGREED)
    def test_pinned_points_agree(self, h, c):
        self._check(h, c)

    def test_edge_draws_agree(self):
        draws = _geometry_edge_draws(6000)
        for h, c in draws:
            self._check(h, c)
        # the draws reach every tag and the float disc == 0 of the parabola
        assert {classify_region(h, c) for h, c in draws} == {"K1", "K2", "K3", "None"}
        assert any((c - 1.0) ** 2 - 4.0 * (h - c) == 0.0 for h, c in draws)

    @staticmethod
    def _check(h, c):
        p = ModelParams(GOLD.a, GOLD.b, c, h, GOLD.delta, GOLD.eta, GOLD.m)
        tag = classify_region(h, c)
        xs = [e.x for e in trivial_equilibria(p) if e.kind == "PredatorFree"]
        assert len(xs) == {"K1": 2, "K2": 1, "K3": 1, "None": 0}[tag], (h, c, tag, xs)
        for i, which in enumerate(("plus", "minus")):
            want = xs[i] if i < len(xs) and xs[i] > POSITIVITY_TOL else None
            assert predator_free_x(p, which) == want, (h, c, tag, which)


class TestLargeCPredatorFree:
    """For c >= 1 the K3 point E+ is 2(c - h)/((c - 1) + sqrt(disc)), which
    does not cancel; for c < 1 it keeps (1 - c + sqrt(disc))/2 bit for bit."""

    @staticmethod
    def _plus(h, c):
        p = ModelParams(GOLD.a, GOLD.b, c, h, GOLD.delta, GOLD.eta, GOLD.m)
        pf = [e for e in trivial_equilibria(p) if e.kind == "PredatorFree"]
        assert [e.source for e in pf][:1] == [f"{'h<c' if h < c else 'h>c'} plus"], (h, c)
        return pf[0].x

    def test_e_plus_at_large_c_matches_exact_value(self):
        from decimal import Decimal, localcontext

        c = 1e8
        h = c - 0.02
        with localcontext() as ctx:
            ctx.prec = 60
            dc, dh = Decimal(c), Decimal(h)
            want = 2 * (dc - dh) / ((dc - 1) + ((dc - 1) ** 2 - 4 * (dh - dc)).sqrt())
        got = self._plus(h, c)
        assert got != 0.0 and abs(Decimal(got) - want) <= 4 * Decimal(math.ulp(got)), got
        assert got == pytest.approx(2.0e-10, rel=1e-6)

    def test_e_plus_just_below_the_diagonal_is_positive(self):
        c = 1e6
        assert self._plus(math.nextafter(c, 0.0), c) > 0.0

    @pytest.mark.parametrize("h, c, bits", [
        (0.1715598183, 0.05, "0x1.985de4da5487fp-1"),
        (0.3, 0.5, "0x1.86526aa25a13bp-1"),
        (0.01, 0.9, "0x1.fd4c39cb4e0f8p-1"),
    ])
    def test_c_below_one_keeps_its_bits(self, h, c, bits):
        assert self._plus(h, c).hex() == bits


class TestQuarticCoeffs:
    def test_roots_satisfy_isocline_equation(self):
        A, B, C, D = quartic_coeffs(GOLD)
        # derived quartic must vanish on the isocline intersection
        for x in interior_roots_oracle(GOLD, n_grid=200_000):
            v = x**4 + A * x**3 + B * x**2 + C * x + D
            assert abs(v) < 1e-8

    def test_printed_a_differs_by_the_factor_a(self):
        # the printed A is off by delta/eta - delta/(a*eta), far above rounding
        derived, printed = quartic_coeffs(GOLD)[0], printed_quartic(GOLD)[0]
        gap = GOLD.delta / GOLD.eta * (1.0 - 1.0 / GOLD.a)
        assert abs(printed - derived) > 1e-7 * (1.0 + abs(derived))
        assert printed - derived == pytest.approx(gap, rel=1e-12)

    def test_printed_b_c_d_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(0.2, 3.0)
            p = ModelParams(a=a, b=rng.uniform(-1.9 * math.sqrt(a), 3.0),
                            c=rng.uniform(0.05, 1.5), h=rng.uniform(0.05, 1.5),
                            delta=rng.uniform(0.05, 1.5), eta=rng.uniform(0.05, 1.5),
                            m=rng.uniform(0.1, 2.0))
            (_, B, C, D), (_, pB, pC, pD) = quartic_coeffs(p), printed_quartic(p)
            assert pB == pytest.approx(B, rel=1e-10)
            assert pC == pytest.approx(C, rel=1e-10)
            assert pD == pytest.approx(D, rel=1e-10)


def _draw_in_region(rng, region):
    """Random admissible params with (h, c) in the requested region."""
    while True:
        c = rng.uniform(0.05, 0.95)
        if region == "K2":
            h = c
        elif region == "K3":
            h = rng.uniform(0.01, c * 0.95)
        else:  # K1
            hi = (c + 1.0) ** 2 / 4.0
            lo = c * 1.05
            if lo >= hi * 0.95:
                continue
            h = rng.uniform(lo, hi * 0.95)
        a = rng.uniform(0.2, 3.0)
        p = ModelParams(a=a, b=rng.uniform(-1.9 * math.sqrt(a), 3.0), c=c, h=h,
                        delta=rng.uniform(0.05, 1.0), eta=rng.uniform(0.05, 1.0),
                        m=rng.uniform(0.1, 2.0))
        if classify_region(p.h, p.c) == region:
            return p


@pytest.mark.parametrize("region", ["K1", "K2", "K3"])
def test_interior_matches_sign_scan_oracle(region):
    rng = np.random.default_rng(hash(region) % 2**32)
    for _ in range(60):
        p = _draw_in_region(rng, region)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eqs = interior_equilibria(p)
        oracle = [x for x in interior_roots_oracle(p, x_max=1.2, n_grid=400_000)
                  if x > 1e-6]
        xs = [e.x for e in eqs]
        # drop near-tangent oracle roots that sit within dedup distance
        assert len(xs) == len(oracle), (p, xs, oracle)
        assert len(xs) == sturm_count(p), (p, xs)
        for xe, xo in zip(sorted(xs), oracle):
            assert xe == pytest.approx(xo, abs=1e-7)


class TestInterior:
    def test_residuals_are_tiny(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eqs = interior_equilibria(GOLD)
        for e in eqs:
            f = rhs(GOLD, State(e.x, e.y))
            assert max(abs(f[0]), abs(f[1])) < 1e-10

    def test_y_on_predator_isocline(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eqs = interior_equilibria(GOLD)
        for e in eqs:
            assert e.y == pytest.approx(GOLD.delta * (GOLD.m + e.x) / GOLD.eta, rel=1e-9)

    @pytest.mark.parametrize("config", sorted(
        (Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")), ids=lambda p: p.stem)
    def test_newton_polish_returns_the_root(self, config):
        # the quartic roots need no Newton step; started 1e-6 off, the
        # Cramer-rule step brings the polish back to the same equilibrium
        p = params_from_config(parse_config(config))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eqs = interior_equilibria(p)
        assert eqs
        for e in eqs:
            for offset in (1e-6, -1e-6):
                x, y = _polish_interior(p, e.x + offset)
                assert abs(x - e.x) <= 1e-14 * (1.0 + e.x), (e, offset)
                assert abs(y - e.y) <= 1e-14 * (1.0 + e.y), (e, offset)

    def test_root_just_above_zero_near_the_diagonal(self):
        # |h - c| ~ 9e-7: the quartic's smallest positive root, x ~ 9.84e-7,
        # is a true interior equilibrium; the unfiltered sign-scan oracle
        # and numpy.roots both find it next to the one at x ~ 0.369
        p = ModelParams(a=2.0, b=-2.82, c=0.05702201099186123, h=0.05702292657006363,
                        delta=0.025757750772824523, eta=0.10038800816442833,
                        m=0.8437472618082063)
        eqs = interior_equilibria(p)
        oracle = interior_roots_oracle(p, 1.2, 400_000)
        np_roots = sorted(r.real for r in np.roots([1.0, *quartic_coeffs(p)])
                          if r.imag == 0.0 and r.real > 0.0)
        assert len(eqs) == len(oracle) == len(np_roots) == sturm_count(p) == 2
        for e, xo, xn in zip(eqs, oracle, np_roots):
            assert e.x == pytest.approx(xo, rel=1e-9)
            assert e.x == pytest.approx(xn, rel=1e-9)
            assert e.y == pytest.approx(p.delta * (p.m + e.x) / p.eta, rel=1e-12)
            f = rhs(p, State(e.x, e.y))
            assert max(abs(f[0]), abs(f[1])) < 1e-12
        assert 9.8e-7 < eqs[0].x < 9.9e-7
        assert 0.3693 < eqs[1].x < 0.3694

    def test_small_resolvent_root_keeps_the_equilibrium(self):
        # Q2 = -4.6e-6: Cardano's resolvent root 2.99538e-13 is 1.4e-3 off
        # the true 2.99134e-13 yet meets the polish's absolute residual
        # target, and Ferrari's root then lands beyond MAX_MOVE of x ~ 0.280862
        p = ModelParams(0.5374646048490557, -1.2621191055165737, 0.6514171082871856,
                        0.19579582270674523, 0.5713023036929946, 0.33485923514244215,
                        0.45003718176097285)
        eqs = interior_equilibria(p)
        assert len(eqs) == sturm_count(p) == 1
        assert eqs[0].x == pytest.approx(0.280862, abs=1e-6)

    def test_all_equilibria_is_union(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            allp = all_equilibria(GOLD)
            assert len(allp) == len(trivial_equilibria(GOLD)) + len(interior_equilibria(GOLD))


class TestNoInteriorRoot:
    def test_settled_points_have_no_interior_root(self):
        # draws cycle through h ~ c, h ~ (1 + c)^2/4, c >= 1, tiny delta and
        # plain ones; the exact count must be 0 wherever the check settles
        rng = random.Random(24)
        settled = [0] * 5
        for i in range(2_000):
            kind = i % 5
            a = rng.uniform(0.05, 4.0)
            c = rng.uniform(1.0, 2.0) if kind == 2 else rng.uniform(0.01, 1.0)
            h = rng.uniform(0.01, 2.0)
            if kind == 0:
                h = c * (1.0 + rng.uniform(-1e-9, 1e-9))
            elif kind == 1:
                h = (1.0 + c) ** 2 / 4.0 + rng.uniform(-1e-6, 1e-6)
            delta = 10.0 ** rng.uniform(-14, -6) if kind == 3 else rng.uniform(0.01, 1.5)
            p = ModelParams(a, rng.uniform(-1.99 * math.sqrt(a), 4.0), c, h, delta,
                            rng.uniform(0.01, 1.5), 10.0 ** rng.uniform(-3, 2))
            if _no_interior_root(p, quartic_coeffs(p)):
                settled[kind] += 1
                assert sturm_count(p) == 0, p
        assert min(settled) >= 40, settled

    def test_sweep_block_zero_reaches_every_path(self, monkeypatch):
        # block 0 of the benchmark's region-sweep: the interval bound,
        # Descartes' rule and Ferrari each decide some grid points
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import make_block

        paths = {"interval": 0, "descartes": 0, "ferrari": 0}
        check, ferrari = equilibria._no_interior_root, polyroots.solve_quartic_ferrari

        def traced_check(p, q):
            settled = check(p, q)
            A, B, C, D = q
            if settled and D > 0 and min(A, B, C) >= 0:
                paths["descartes"] += 1
            elif settled and p.c < 1.0 and (1.0 - p.c) ** 2 > 4.0 * (p.h - p.c):
                paths["interval"] += 1
            return settled

        def traced_ferrari(*coeffs, **kw):
            paths["ferrari"] += 1
            return ferrari(*coeffs, **kw)

        monkeypatch.setattr(equilibria, "_no_interior_root", traced_check)
        monkeypatch.setattr(polyroots, "solve_quartic_ferrari", traced_ferrari)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for op in make_block("region-sweep", 1, 0):
                cmd_sweep(ModelParams(**op["config"]["params"]), **op["config"]["sweep"])
        assert min(paths.values()) > 0, paths

    def test_tolerance_sliver_below_the_diagonal_is_solved(self):
        # c >= 1 and h just below c: no K2 band there, so the point is K3,
        # and h < c, so the check leaves it to Ferrari, which finds the root
        p = SLIVER
        assert classify_region(p.h, p.c) == "K3"
        assert not _no_interior_root(p, quartic_coeffs(p))
        eqs = interior_equilibria(p)
        assert len(eqs) == sturm_count(p) == 1
        assert 8.9e-10 < eqs[0].x < 9e-10
        assert eqs[0].source == "K3-Ferrari"

    def test_sweep_row_of_the_sliver_is_k3(self):
        # the row's tag and count agree: one interior equilibrium, in K3
        p = SLIVER
        _, (_, rows), _ = cmd_sweep(p, h_min=p.h, h_max=p.h, c_min=p.c, c_max=p.c,
                                    n_h=1, n_c=1)
        assert [row[:4] for row in rows] == [[p.h, p.c, "K3", 1]]


def _unwindowed_interior(p: ModelParams) -> list[tuple[float, float, str]]:
    """``interior_equilibria``'s steps as (x, y, source), with the public
    Ferrari solver called without a window, so that it polishes all four
    candidates, and every positive real root handed to the 2-D polish."""
    q = quartic_coeffs(p)
    if _no_interior_root(p, q):
        return []
    region = classify_region(p.h, p.c)
    if region == "K2":  # the Cardano path takes no window
        return [(e.x, e.y, e.source) for e in interior_equilibria(p)]
    dec = polyroots.solve_quartic_ferrari(*q)
    source = f"{region}-Ferrari" + ("-biquadratic" if dec.biquadratic else "")
    out = []
    for x in dec.real_roots:
        if x <= POSITIVITY_TOL:
            continue
        xy = _polish_interior(p, x)
        if xy is None or any(abs(xy[0] - o[0]) < 1e-7 * (1.0 + abs(xy[0])) for o in out):
            continue
        out.append((*xy, source))
    return sorted(out)


def _sweep_points(seed: int, blocks: int):
    """The grid points of the benchmark's region-sweep blocks, as ``cmd_sweep``
    builds them."""
    from workloads import make_block

    for k in range(blocks):
        for op in make_block("region-sweep", seed, k):
            P, s = op["config"]["params"], op["config"]["sweep"]
            for h in linspace(s["h_min"], s["h_max"], s["n_h"]):
                for c in linspace(s["c_min"], s["c_max"], s["n_c"]):
                    yield ModelParams(P["a"], P["b"], c, h, P["delta"], P["eta"], P["m"])


def _edge_draws(n: int):
    """Seeded admissible draws cycling through h -> 0 (with delta down to
    1e-6, so that roots approach x+ -> 1), c -> 1, |h - c| <= 1e-6, tiny
    delta and plain ones."""
    rng = random.Random(26)
    for i in range(n):
        kind = i % 5
        a = rng.uniform(0.05, 4.0)
        c = rng.uniform(0.01, 1.0)
        h = rng.uniform(0.01, (1.0 + c) ** 2 / 4.0)
        delta = rng.uniform(0.01, 1.5)
        if kind == 0:
            h, delta = 10.0 ** rng.uniform(-9, -3), 10.0 ** rng.uniform(-6, 0)
        elif kind == 1:
            c, h = 1.0 - 10.0 ** rng.uniform(-9, -1), rng.uniform(0.01, 1.0)
        elif kind == 2:
            h = c + rng.uniform(-1e-6, 1e-6)
        elif kind == 3:
            delta = 10.0 ** rng.uniform(-6, -1)
        yield ModelParams(a, rng.uniform(-1.99 * math.sqrt(a), 4.0), c, h, delta,
                          rng.uniform(0.01, 1.5), 10.0 ** rng.uniform(-3, 2))


class TestFerrariWindow:
    def test_interior_polishes_only_the_candidates_in_the_window(self, monkeypatch):
        # GOLD (K1): real candidates at 0.2188 and 0.2188, a pair at
        # 0.884 +- 0.698i; at h = 0.02 (K3): 0.371, -0.031 and a pair at
        # 0.933 +- 0.668i.  Only the real ones in (0, 1) can be abscissas
        polish, starts = polyroots.polish_root, []

        def counted(coeffs, x0):
            if len(coeffs) == 4:  # the quartic's polish, not the resolvent's
                starts.append(x0)
            return polish(coeffs, x0)

        monkeypatch.setattr(polyroots, "polish_root", counted)
        move = polyroots.MAX_MOVE
        for p, n_interior in ((GOLD, 2), (GOLD.with_(h=0.02), 1)):
            starts.clear()
            polyroots.solve_quartic_ferrari(*quartic_coeffs(p))
            assert len(starts) == 4  # no window: every candidate is polished
            in_window = [z for z in starts
                         if -move < z.real < 1.0 + move and abs(z.imag) <= 2.0 * move]
            assert len(in_window) == n_interior
            starts.clear()
            assert len(interior_equilibria(p)) == n_interior
            assert starts == in_window

    def test_root_next_to_the_upper_edge_is_kept(self):
        # h and delta ~ 0: the one interior root sits 1.3e-14 below x+ < 1
        p = ModelParams(1.0, 0.5, 0.3, 1e-15, 1e-14, 0.5, 0.5)
        eqs = interior_equilibria(p)
        assert len(eqs) == sturm_count(p) == 1
        assert 1.0 - 1e-13 < eqs[0].x < 1.0
        assert [(e.x, e.y, e.source) for e in eqs] == _unwindowed_interior(p)

    def test_agrees_with_the_unwindowed_solver(self, monkeypatch):
        # region-sweep seed 1, blocks 0-19 (15,360 grid points), and edge
        # draws: same count, source and bits as polishing every candidate,
        # and the count of every third solved draw equals the exact one
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        solved = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i, p in enumerate([*_sweep_points(1, 20), *_edge_draws(5_000)]):
                got = [(e.x.hex(), e.y.hex(), e.source) for e in interior_equilibria(p)]
                want = [(x.hex(), y.hex(), s) for x, y, s in _unwindowed_interior(p)]
                assert got == want, p
                if i >= 15_360 and i % 3 == 0 and not _no_interior_root(p, quartic_coeffs(p)):
                    assert len(got) == sturm_count(p), p
                    solved += 1
        assert solved > 1_500

    @pytest.mark.parametrize("h, c", [(5.0, 0.0), (0.0, 0.3)])
    def test_nonpositive_h_or_c_raises_before_the_existence_check(self, h, c):
        # unvalidated parameters: with c = 0 and h = 5 the existence check
        # alone would settle the point and return []
        p = ModelParams(GOLD.a, GOLD.b, c, h, GOLD.delta, GOLD.eta, GOLD.m)
        with pytest.raises(DomainError):
            interior_equilibria(p)


class TestSturmCount:
    def test_counts_distinct_roots_on_the_open_half_line(self):
        # (x - 1)^2 (x - 2)(x + 3): the double root counts once
        assert positive_root_count([1, -1, -7, 13, -6]) == 2
        # x^2 (x - 1)(x - 2): the double root at 0 is not counted
        assert positive_root_count([1, -3, 2, 0, 0]) == 2
        assert positive_root_count([1, 0, 1]) == 0

    def test_agrees_with_the_sign_scan_where_it_resolves_every_root(self):
        for p in (GOLD, GOLD.with_(h=0.3), GOLD.with_(h=0.02)):
            assert sturm_count(p) == len(interior_roots_oracle(p, 1.2, 400_000))


class TestIsocline:
    def test_positive_x_required(self):
        with pytest.raises(DomainError):
            isocline_y(GOLD, 0.0)

    def test_matches_prey_nullcline(self):
        x = 0.4
        y = isocline_y(GOLD, x)
        dx, _ = rhs(GOLD, State(x, y))
        assert abs(dx) < 1e-14
