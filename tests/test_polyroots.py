import hashlib
import math
import random

import numpy as np
import pytest

from predbif.errors import DegenerateResolvent
from predbif.polyroots import (
    CubicResolution,
    depress_quartic,
    polish_root,
    resolvent_positive_root,
    solve_cubic_cardano,
    solve_quartic_ferrari,
)


def companion_roots(coeffs):
    """numpy companion-matrix oracle for a monic polynomial."""
    return np.roots([1.0] + list(coeffs))


def match_multisets(computed, oracle, tol):
    """Greedy min-distance matching; returns the worst pairwise distance."""
    pool = list(oracle)
    worst = 0.0
    for z in computed:
        j = min(range(len(pool)), key=lambda i: abs(pool[i] - z))
        worst = max(worst, abs(pool[j] - z))
        pool.pop(j)
    assert not pool
    return worst


class TestCardano:
    def test_three_real_roots(self):
        # (x-1)(x-2)(x-3): A=-6, B=11, C=-6
        res = solve_cubic_cardano(-6.0, 11.0, -6.0)
        assert res.Delta < 0
        assert res.real_roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    def test_single_real_with_conjugate_pair(self):
        # (x-2)(x^2+1): A=-2, B=1, C=-2
        res = solve_cubic_cardano(-2.0, 1.0, -2.0)
        assert res.Delta > 0
        assert res.real_roots == pytest.approx([2.0], abs=1e-12)
        z1, z2 = res.complex_pair
        assert z1 == pytest.approx(z2.conjugate())
        assert z1.imag != 0

    def test_repeated_root(self):
        # (x-1)^2 (x-4): A=-6, B=9, C=-4
        res = solve_cubic_cardano(-6.0, 9.0, -4.0)
        assert sorted(res.real_roots) == pytest.approx([1.0, 1.0, 4.0], abs=1e-7)

    def test_random_against_companion_oracle(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(10_000):
            A, B, C = rng.uniform(-5, 5, size=3)
            res = solve_cubic_cardano(A, B, C)
            roots = res.roots
            assert len(roots) == 3
            worst = max(worst, match_multisets(roots, companion_roots([A, B, C]), 1e-8))
            # Vieta
            s1 = sum(roots)
            s3 = roots[0] * roots[1] * roots[2]
            assert abs(s1 + A) < 1e-7 * (1.0 + abs(A))
            assert abs(s3 + C) < 1e-7 * (1.0 + abs(C))
        assert worst < 1e-8


def bits(z):
    """The exact bits of a complex number, so that -0.0 differs from 0.0."""
    return z.real.hex(), z.imag.hex()


class TestFerrari:
    def test_known_factorization(self):
        # (x-1)(x-2)(x-3)(x-5) = x^4 -11x^3 +41x^2 -61x +30
        dec = solve_quartic_ferrari(-11.0, 41.0, -61.0, 30.0)
        assert dec.real_roots == pytest.approx([1.0, 2.0, 3.0, 5.0], abs=1e-10)
        assert not dec.biquadratic

    def test_symmetric_quartic_routes_to_biquadratic(self):
        # (x-1)(x-2)(x-3)(x-4) is symmetric about 5/2, so Q2 = 0
        dec = solve_quartic_ferrari(-10.0, 35.0, -50.0, 24.0)
        assert dec.biquadratic
        assert dec.real_roots == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-10)

    def test_biquadratic_path(self):
        # x^4 - 5x^2 + 4 = (x^2-1)(x^2-4)
        dec = solve_quartic_ferrari(0.0, -5.0, 0.0, 4.0)
        assert dec.biquadratic
        assert dec.real_roots == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-10)

    def test_complex_pairs_conjugate(self):
        # (x^2+1)(x^2+2x+2)
        dec = solve_quartic_ferrari(2.0, 3.0, 2.0, 2.0)
        assert dec.real_roots == []
        zs = dec.roots
        assert len(zs) == 4
        for z in zs:
            assert any(abs(w - z.conjugate()) < 1e-10 for w in zs)

    def test_complex_roots_come_in_exact_conjugate_pairs(self):
        rng = np.random.default_rng(99)
        paths = set()
        for i in range(4_000):
            A, B, C, D = (float(v) for v in rng.uniform(-5, 5, size=4))
            if i % 2:  # depressed form X^4 + B X^2 + D: Q2 ~ 0, the biquadratic path
                P2, r = B, D
                B = P2 + 3.0 * A * A / 8.0
                C = A * B / 2.0 - A**3 / 8.0
                D = r + 3.0 * A**4 / 256.0 - A * A * B / 16.0 + A * C / 4.0
            dec = solve_quartic_ferrari(A, B, C, D)
            paths.add(dec.biquadratic)
            pool = [bits(z) for z in dec.roots]
            for z in dec.roots:
                if z.imag != 0:
                    assert bits(z.conjugate()) in pool
                    pool.remove(bits(z.conjugate()))
        assert paths == {True, False}

    def test_random_against_companion_oracle(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(10_000):
            A, B, C, D = rng.uniform(-5, 5, size=4)
            dec = solve_quartic_ferrari(A, B, C, D)
            roots = dec.roots
            assert len(roots) == 4
            worst = max(worst, match_multisets(roots, companion_roots([A, B, C, D]), 1e-8))
            s1 = sum(roots)
            s4 = roots[0] * roots[1] * roots[2] * roots[3]
            assert abs(s1 + A) < 1e-7 * (1.0 + abs(A))
            assert abs(s4 - D) < 1e-7 * (1.0 + abs(D))
        assert worst < 1e-8


class TestResolvent:
    def test_positive_root_exists(self):
        P2, Q2, r = depress_quartic(-11.0, 41.0, -61.0, 30.0)
        u = resolvent_positive_root(P2, Q2, r)
        assert u > 0
        res = 8.0 * u**3 + 8.0 * P2 * u**2 + (2.0 * P2**2 - 8.0 * r) * u - Q2**2
        assert abs(res) < 1e-8 * max(1.0, abs(Q2) ** 2)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateResolvent):
            resolvent_positive_root(-5.0, 0.0, 4.0)

    def test_nan_coefficients_raise(self):
        with pytest.raises(DegenerateResolvent):
            resolvent_positive_root(math.nan, 1.0, math.nan)

    def test_root_lost_by_cardano_is_bisected(self):
        # two conjugate pairs 1e-4 apart: the resolvent's positive root is of
        # order Q2^2, and Cardano's discriminant is rounding noise that hides it
        A, B, C, D = (-2.9497587547790722, 13.398945402578935, -16.553568578829164,
                      31.492726960025838)
        P2, Q2, r = depress_quartic(A, B, C, D)
        resolvent = [1.0, P2, (2.0 * P2 * P2 - 8.0 * r) / 8.0, -Q2 * Q2 / 8.0]
        assert max(solve_cubic_cardano(*resolvent[1:]).real_roots) <= 0
        u = resolvent_positive_root(P2, Q2, r)
        positive = [z.real for z in np.roots(resolvent) if z.real > 0]
        assert len(positive) == 1 and u == pytest.approx(positive[0], rel=1e-6)
        dec = solve_quartic_ferrari(A, B, C, D)
        assert dec.real_roots == []
        assert match_multisets(dec.roots, companion_roots([A, B, C, D]), 1e-10) < 1e-10

    def test_near_equal_conjugate_pairs_never_raise(self):
        rng = random.Random(5)
        bisected = 0
        for _ in range(5_000):
            z1 = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            z2 = z1 + complex(rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4))
            (p1, q1), (p2, q2) = ((-2.0 * z.real, abs(z) ** 2) for z in (z1, z2))
            coeffs = [p1 + p2, q1 + q2 + p1 * p2, p1 * q2 + p2 * q1, q1 * q2]
            dec = solve_quartic_ferrari(*coeffs)
            assert dec.real_roots == [], coeffs
            P2, Q2, r = depress_quartic(*coeffs)
            if dec.biquadratic or max(solve_cubic_cardano(
                    P2, (2.0 * P2 * P2 - 8.0 * r) / 8.0, -Q2 * Q2 / 8.0).real_roots) > 0:
                continue
            bisected += 1
            assert match_multisets(dec.roots, companion_roots(coeffs), 1e-7) < 1e-7, coeffs
        assert bisected > 1_000


    def test_small_cardano_root_is_refined(self):
        # two nearly equal conjugate pairs: Cardano gives u = 1.70e-12 for the
        # resolvent root 2.05e-9, with a residual of the size of the constant
        # term -Q2^2/8 = -1.95e-17, and the roots came out 1.08e-3 off
        coeffs = [-2.072470164335889, 6.282606404061028, -5.397565384819808, 6.782959928231735]
        P2, Q2, r = depress_quartic(*coeffs)
        resolvent = [P2, (2.0 * P2 * P2 - 8.0 * r) / 8.0, -Q2 * Q2 / 8.0]
        cardano = max(solve_cubic_cardano(*resolvent).real_roots)
        u = resolvent_positive_root(P2, Q2, r)
        positive = [z.real for z in np.roots([1.0, *resolvent]) if z.real > 0]
        assert len(positive) == 1
        assert cardano != pytest.approx(positive[0], rel=0.5)
        assert u == pytest.approx(positive[0], rel=1e-9)
        dec = solve_quartic_ferrari(*coeffs)
        assert dec.real_roots == []
        assert match_multisets(dec.roots, companion_roots(coeffs), 1e-8) < 1e-8


class TestPolish:
    def test_improves_perturbed_root(self):
        z = polish_root([-10.0, 35.0, -50.0, 24.0], 3.0 + 1e-5)
        assert z.real == pytest.approx(3.0, abs=1e-12)

    def test_never_jumps_far(self):
        # starting far from any root must not silently converge elsewhere
        assert polish_root([-10.0, 35.0, -50.0, 24.0], 100.0) == 100.0

    def test_real_start_iterates_like_its_complex_form(self):
        # the float iteration of a real start gives the bits of the complex
        # iteration; starts within 1e-4 of a real root make the polish move,
        # starts 1e3 away return unchanged
        rng = np.random.default_rng(78)
        moved = far = 0
        for degree in (3, 4) * 1_000:
            coeffs = [float(v) for v in rng.uniform(-5, 5, size=degree)]
            for root in companion_roots(coeffs):
                if root.imag != 0.0:
                    continue
                for start in (float(root.real) + float(rng.uniform(-1e-4, 1e-4)),
                              float(root.real) + 1e3):
                    polished = polish_root(coeffs, start)
                    assert bits(polished) == bits(polish_root(coeffs, complex(start)))
                    moved += polished != start
                    far += polished == start
        assert moved > 3_000 and far > 3_000

    def test_commutes_with_conjugation(self):
        # starts within 1e-4 of a root, so that the polish iterates
        rng = np.random.default_rng(77)
        moved = 0
        for _ in range(2_000):
            coeffs = [float(v) for v in rng.uniform(-5, 5, size=4)]
            for root in companion_roots(coeffs):
                z = complex(root) + complex(*rng.uniform(-1e-4, 1e-4, size=2))
                polished = polish_root(coeffs, z)
                moved += polished != z
                assert bits(polish_root(coeffs, z.conjugate())) == bits(polished.conjugate())
        assert moved > 7_000

    def test_bits_are_pinned(self):
        # float.hex of every result over seeded real and complex starts near
        # the roots of real polynomials, and real starts 1e3 away
        rng = random.Random(2024)
        digest = hashlib.sha256()
        moved = 0
        for degree in (3, 4) * 500:
            roots = []
            while len(roots) < degree:
                z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3))
                pair = len(roots) + 2 <= degree and rng.random() < 0.5
                roots += [z, z.conjugate()] if pair else [z.real]
            poly = [1.0]
            for root in roots:
                poly = [u - root * v for u, v in zip(poly + [0.0], [0.0] + poly)]
            coeffs = [complex(v).real for v in poly[1:]]
            for root in roots:
                for start in (complex(root).real + rng.uniform(-1e-4, 1e-4),
                              root + complex(rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4)),
                              complex(root).real + 1e3):
                    z = polish_root(coeffs, start)
                    moved += z != start
                    digest.update(f"{z.real.hex()} {z.imag.hex()};".encode())
        assert moved == 5_148
        assert digest.hexdigest() == (
            "11fb7b1bedab79b10e33f8ecb98744de6eb57a20d33909ed4ce9b8675fc6116e")
