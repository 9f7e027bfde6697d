import math
import warnings

import numpy as np
import pytest

from predbif.equilibria import Equilibrium, all_equilibria, interior_equilibria
from predbif.errors import DomainError
from predbif.model import ModelParams, State, jacobian
from predbif.stability import (
    _spectrum,
    classify_generic,
    classify_origin,
    classify_prey_extinction,
)

GOLD = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1715598183,
                   delta=0.03070149222, eta=0.1, m=0.8)


class TestOrigin:
    def test_unstable_node_when_c_exceeds_h(self):
        p = GOLD.with_(c=0.3, h=0.1)
        assert classify_origin(p).label == "UnstableNode"

    def test_saddle_when_h_exceeds_c(self):
        p = GOLD.with_(c=0.1, h=0.3)
        assert classify_origin(p).label == "Saddle"

    def test_saddle_node_on_diagonal(self):
        p = GOLD.with_(c=0.3, h=0.3)
        rep = classify_origin(p)
        assert rep.label == "SaddleNode"
        assert rep.sector == "Right"  # c < 1

    def test_saddle_node_left_sector_above_one(self):
        p = GOLD.with_(c=1.5, h=1.5)
        rep = classify_origin(p)
        assert rep.label == "SaddleNode"
        assert rep.sector == "Left"

    def test_degenerate_saddle_at_unit_diagonal(self):
        p = GOLD.with_(c=1.0, h=1.0)
        assert classify_origin(p).label == "DegenerateSaddle"


class TestPreyExtinction:
    def test_stable_node_when_h_exceeds_c(self):
        p = GOLD.with_(c=0.1, h=0.3)
        assert classify_prey_extinction(p).label == "StableNode"

    def test_saddle_when_c_exceeds_h(self):
        p = GOLD.with_(c=0.3, h=0.1)
        assert classify_prey_extinction(p).label == "Saddle"

    def test_saddle_node_on_diagonal(self):
        p = GOLD.with_(c=0.3, h=0.3)
        rep = classify_prey_extinction(p)
        assert rep.label == "SaddleNode"
        q1 = p.c * p.delta * p.m + p.c * p.eta - p.eta
        assert rep.sector == ("Right" if q1 > 0 else "Left")

    def test_m_zero_rejected(self):
        p = ModelParams(**{**GOLD._asdict(), "m": 0.0})
        with pytest.raises(DomainError):
            classify_prey_extinction(p)


class TestPredatorFree:
    def test_always_unstable(self):
        rng = np.random.default_rng(5)
        count = 0
        while count < 40:
            a = rng.uniform(0.2, 3.0)
            p = ModelParams(a=a, b=rng.uniform(-1.9 * math.sqrt(a), 3.0),
                            c=rng.uniform(0.05, 0.95), h=rng.uniform(0.05, 0.95),
                            delta=rng.uniform(0.05, 1.0), eta=rng.uniform(0.05, 1.0),
                            m=rng.uniform(0.1, 2.0))
            for e in all_equilibria(p):
                if e.kind != "PredatorFree":
                    continue
                rep = classify_generic(p, e)
                assert rep.label not in ("StableNode", "StableSpiral")
                # one eigenvalue is exactly delta > 0
                assert any(abs(ev - p.delta) < 1e-12 for ev in rep.eigenvalues)
                count += 1


class TestGeneric:
    def test_dispatches_origin_degenerate(self):
        p = GOLD.with_(c=0.3, h=0.3)
        rep = classify_generic(p, Equilibrium(0.0, 0.0, "Origin"))
        assert rep.label == "SaddleNode"

    @pytest.mark.parametrize("a, b, delta, eta, m, label", [
        (2.0, -2.82, 0.0307, 0.1, 0.8, "UnstableNode"),
        (1.0, 10.0, 0.5, 0.1, 1.0, "Saddle"),
    ])
    def test_dispatches_prey_extinction_cubic_branch(self, a, b, delta, eta, m, label):
        # h = c = eta/(delta m + eta) zeroes both 1 - h/c and the sector sign q1
        c = eta / (delta * m + eta)
        p = ModelParams(a=a, b=b, c=c, h=c, delta=delta, eta=eta, m=m)
        rep = classify_generic(p, Equilibrium(0.0, delta * m / eta, "PreyExtinction"))
        assert (rep.label, rep.theorem_branch) == (label, "prey-extinction/h=c,cubic")

    def test_labels_match_eigenvalues(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 30:
            a = rng.uniform(0.2, 3.0)
            p = ModelParams(a=a, b=rng.uniform(-1.9 * math.sqrt(a), 3.0),
                            c=rng.uniform(0.05, 0.95), h=rng.uniform(0.05, 0.95),
                            delta=rng.uniform(0.05, 1.0), eta=rng.uniform(0.05, 1.0),
                            m=rng.uniform(0.1, 2.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                eqs = interior_equilibria(p)
            for e in eqs:
                rep = classify_generic(p, e)
                ev = np.linalg.eigvals(jacobian(p, State(e.x, e.y)))
                re = np.real(ev)
                if rep.label == "Saddle":
                    assert re[0] * re[1] < 0 or rep.det < 0
                elif rep.label in ("StableNode", "StableSpiral"):
                    assert np.all(re < 0)
                elif rep.label in ("UnstableNode", "UnstableSpiral"):
                    assert np.all(re > 0)
                spiral = rep.label.endswith("Spiral")
                if spiral:
                    assert abs(ev[0].imag) > 0
                checked += 1

    def test_double_zero_detected_at_bt_point(self):
        from predbif.bt import bt_locate
        pts = bt_locate(GOLD)
        assert pts
        p = pts[0].params(GOLD)
        rep = classify_generic(p, Equilibrium(pts[0].x, pts[0].y, "Interior"))
        assert rep.label == "DoubleZero"

    def test_golden_trivial_labels(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reps = {(e.kind, e.source): classify_generic(GOLD, e)
                    for e in all_equilibria(GOLD)}
        assert reps[("Origin", "always")].label == "Saddle"  # h > c
        assert reps[("PreyExtinction", "m>0")].label == "StableNode"


def _same_multiset(got, want, tol):
    (g0, g1), (w0, w1) = got, want
    return (abs(g0 - w0) <= tol and abs(g1 - w1) <= tol) or \
        (abs(g0 - w1) <= tol and abs(g1 - w0) <= tol)


def _defective_tol(J):
    """How far two floating-point forms may put the eigenvalues of a J with a
    (near) double root: rounding a*d and b*c moves tr^2/4 - det by up to
    2*eps*(|a d| + |b c|), each form's eigenvalues by its square root, and
    two forms apart by twice that."""
    (a, b), (c, d) = J
    return 2.0 * math.sqrt(2.0 * np.finfo(float).eps * (abs(a * d) + abs(b * c)))


class TestSpectrum:
    """The closed-form spectrum against numpy's eigvals and det."""

    @staticmethod
    def _matrices(rng, n):
        out = []
        for _ in range(n):
            a, b, c, d = (float(v) for v in rng.uniform(-3.0, 3.0, 4))
            out.append(((a, b), (c, d)))  # real or complex pair
            out.append(((a, b), (-math.copysign(abs(c) + 0.1, b), a)))  # b*c < 0: complex
            out.append(((a, b), (0.0, d)))  # upper triangular
            out.append(((a, 0.0), (c, d)))  # lower triangular
        return out

    def test_matches_numpy(self):
        for J in self._matrices(np.random.default_rng(23), 300):
            (a, b), (c, d) = J
            eig, tr, det = _spectrum(J)
            scale = 1.0 + max(abs(a), abs(b), abs(c), abs(d))
            want = np.linalg.eigvals(np.array(J)).tolist()
            assert all(type(ev) is complex for ev in eig)
            assert _same_multiset(eig, want, 1e-12 * scale), J
            assert tr == a + d
            assert abs(det - np.linalg.det(np.array(J))) <= 1e-12 * scale**2, J
            if b == 0.0 or c == 0.0:
                assert eig == (complex(a), complex(d))
            if (a - d) ** 2 + 4.0 * b * c < 0:
                assert eig[0] == eig[1].conjugate() and eig[0].imag > 0

    def test_repeated_root(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            # p^2 + q*r = 0: a double root at lam, exact in floats
            lam = float(rng.integers(-12, 13)) / 4.0
            k, m = (float(v) for v in rng.integers(1, 6, 2))
            J = ((lam + k * m, k * k), (-m * m, lam - k * m))
            eig, tr, det = _spectrum(J)
            assert eig == (complex(lam), complex(lam)), J
            want = np.linalg.eigvals(np.array(J)).tolist()
            assert _same_multiset(eig, want, _defective_tol(J)), J
        for lam in (-1.5, 0.0, 2.0):
            assert _spectrum(((lam, 7.0), (0.0, lam)))[0] == (complex(lam), complex(lam))
            assert _spectrum(((lam, 0.0), (7.0, lam)))[0] == (complex(lam), complex(lam))

    def test_bt_point_is_double_zero(self):
        from predbif.bt import bt_locate
        from predbif.model import jet
        pt = bt_locate(GOLD)[0]
        J = jet(pt.params(GOLD), pt.x, pt.y)[1]
        (a, b), (c, d) = J
        eig, tr, det = _spectrum(J)
        scale = 1.0 + max(abs(a), abs(b), abs(c), abs(d))
        assert abs(tr) < 1e-15 and abs(det) < 1e-16
        assert abs(det - np.linalg.det(np.array(J))) <= 1e-12 * scale**2
        # J is a Jordan block up to rounding, so neither form resolves its
        # eigenvalues (~1e-9 here) to 1e-12: they agree to the square-root
        # bound, and both are zero to ZERO_EIG_TOL
        want = np.linalg.eigvals(np.array(J)).tolist()
        assert _same_multiset(eig, want, _defective_tol(J))
        assert max(abs(ev) for ev in eig) < 1e-8 * scale
