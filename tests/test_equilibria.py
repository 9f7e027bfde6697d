import math
import warnings

import numpy as np
import pytest

from predbif.equilibria import (
    all_equilibria,
    check_printed_quartic,
    classify_region,
    interior_equilibria,
    interior_roots_oracle,
    isocline_y,
    predator_free_x,
    quartic_coeffs,
    trivial_equilibria,
)
from predbif.errors import DomainError, PrintedFormulaMismatch
from predbif.model import ModelParams, State, rhs

GOLD = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1715598183,
                   delta=0.03070149222, eta=0.1, m=0.8)


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

    def test_transcription_mismatch_warns(self):
        with pytest.warns(PrintedFormulaMismatch):
            check_printed_quartic(GOLD)

    def test_printed_b_c_d_agree(self):
        from predbif.equilibria import _printed_quartic
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(0.2, 3.0)
            p = ModelParams(a=a, b=rng.uniform(-1.9 * math.sqrt(a), 3.0),
                            c=rng.uniform(0.05, 1.5), h=rng.uniform(0.05, 1.5),
                            delta=rng.uniform(0.05, 1.5), eta=rng.uniform(0.05, 1.5),
                            m=rng.uniform(0.1, 2.0))
            d, pr = quartic_coeffs(p), _printed_quartic(p)
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

    def test_all_equilibria_is_union(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            allp = all_equilibria(GOLD)
            assert len(allp) == len(trivial_equilibria(GOLD)) + len(interior_equilibria(GOLD))


class TestIsocline:
    def test_positive_x_required(self):
        with pytest.raises(DomainError):
            isocline_y(GOLD, 0.0)

    def test_matches_prey_nullcline(self):
        x = 0.4
        y = isocline_y(GOLD, x)
        dx, _ = rhs(GOLD, State(x, y))
        assert abs(dx) < 1e-14
