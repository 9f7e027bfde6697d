import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from predbif.cli import params_from_config, parse_config
from predbif.equilibria import (
    QuarticCoeffs,
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
from predbif.model import ModelParams, State, rhs

from root_count import positive_root_count, sturm_count

GOLD = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1715598183,
                   delta=0.03070149222, eta=0.1, m=0.8)


def printed_quartic(params: ModelParams) -> QuarticCoeffs:
    """Transcription of the paper's coefficient table for the interior
    quartic x^4 + A x^3 + B x^2 + C x + D; its A carries delta/eta where the
    cleared-denominator expansion (``quartic_coeffs``) gives delta/(a*eta)."""
    a, b, c, h = params.a, params.b, params.c, params.h
    delta, eta, m = params.delta, params.eta, params.m
    return QuarticCoeffs(
        A=(c - 1.0) + b / a + delta / eta,
        B=(h - c) + (b / a) * (c - 1.0) + delta * (c + m) / (a * eta) + 1.0 / a,
        C=(b / a) * (h - c) + (c - 1.0) / a + c * delta * m / (a * eta),
        D=(h - c) / a,
    )


class TestRegion:
    def test_diagonal_below_one_is_k2(self):
        assert classify_region(0.3, 0.3).tag == "K2"

    def test_diagonal_above_one_is_none(self):
        assert classify_region(1.2, 1.2).tag == "None"

    def test_below_diagonal_is_k3(self):
        assert classify_region(0.1, 0.5).tag == "K3"

    def test_between_diagonal_and_parabola_is_k1(self):
        c = 0.3
        h = 0.35  # c < h < (c+1)^2/4 = 0.4225
        assert classify_region(h, c).tag == "K1"

    def test_above_parabola_is_none(self):
        assert classify_region(0.5, 0.3).tag == "None"

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
        p = ModelParams(**{**GOLD.__dict__, "m": 0.0})
        kinds = [e.kind for e in trivial_equilibria(p)]
        assert "PreyExtinction" not in kinds

    def test_predator_free_x_matches_rhs(self):
        for which in ("plus", "minus"):
            x = predator_free_x(GOLD, which)
            assert x is not None
            dx, _ = rhs(GOLD, State(x, 0.0))
            assert abs(dx) < 1e-12


class TestQuarticCoeffs:
    def test_roots_satisfy_isocline_equation(self):
        q = quartic_coeffs(GOLD)
        # derived quartic must vanish on the isocline intersection
        for x in interior_roots_oracle(GOLD, n_grid=200_000):
            v = x**4 + q.A * x**3 + q.B * x**2 + q.C * x + q.D
            assert abs(v) < 1e-8

    def test_printed_a_differs_by_the_factor_a(self):
        # the printed A is off by delta/eta - delta/(a*eta), far above rounding
        derived, printed = quartic_coeffs(GOLD), printed_quartic(GOLD)
        gap = GOLD.delta / GOLD.eta * (1.0 - 1.0 / GOLD.a)
        assert abs(printed.A - derived.A) > 1e-7 * (1.0 + abs(derived.A))
        assert printed.A - derived.A == pytest.approx(gap, rel=1e-12)

    def test_printed_b_c_d_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(0.2, 3.0)
            p = ModelParams(a=a, b=rng.uniform(-1.9 * math.sqrt(a), 3.0),
                            c=rng.uniform(0.05, 1.5), h=rng.uniform(0.05, 1.5),
                            delta=rng.uniform(0.05, 1.5), eta=rng.uniform(0.05, 1.5),
                            m=rng.uniform(0.1, 2.0))
            d, pr = quartic_coeffs(p), printed_quartic(p)
            assert pr.B == pytest.approx(d.B, rel=1e-10)
            assert pr.C == pytest.approx(d.C, rel=1e-10)
            assert pr.D == pytest.approx(d.D, rel=1e-10)


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
        if classify_region(p.h, p.c).tag == region:
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
                got = _polish_interior(p, e.x + offset)
                assert abs(got.x - e.x) <= 1e-14 * (1.0 + e.x), (e, offset)
                assert abs(got.y - e.y) <= 1e-14 * (1.0 + e.y), (e, offset)

    def test_root_just_above_zero_near_the_diagonal(self):
        # |h - c| ~ 9e-7: the quartic's smallest positive root, x ~ 9.84e-7,
        # is a true interior equilibrium; the unfiltered sign-scan oracle
        # and numpy.roots both find it next to the one at x ~ 0.369
        p = ModelParams(a=2.0, b=-2.82, c=0.05702201099186123, h=0.05702292657006363,
                        delta=0.025757750772824523, eta=0.10038800816442833,
                        m=0.8437472618082063)
        eqs = interior_equilibria(p)
        oracle = interior_roots_oracle(p, 1.2, 400_000)
        q = quartic_coeffs(p)
        np_roots = sorted(r.real for r in np.roots([1.0, q.A, q.B, q.C, q.D])
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

    def test_all_equilibria_is_union(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            allp = all_equilibria(GOLD)
            assert len(allp) == len(trivial_equilibria(GOLD)) + len(interior_equilibria(GOLD))


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
