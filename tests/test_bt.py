import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from predbif import bt, equilibria, model, sim
from predbif.bt import (
    _basis,
    _project,
    beta_map,
    bifurcation_curves,
    bt_candidate_x,
    bt_locate,
    normal_form,
)
from predbif.equilibria import (Equilibrium, fold_curve_point, hopf_curve_point,
                                interior_equilibria)
from predbif.errors import DegenerateBT, NoCandidate, PredbifError, SingularSolve
from predbif.model import ModelParams, State, jacobian, jet, rhs, validate
from predbif.stability import classify_generic

BASE = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.17, delta=0.03, eta=0.1, m=0.8)

# reference values for the worked example
GOLD_H = 0.1715598183
GOLD_DELTA = 0.03070149222
GOLD_X = 0.2187994431
GOLD_Y = 0.3127866314


@pytest.fixture(scope="module")
def bt_point():
    return bt_locate(BASE)[0]


@pytest.fixture(scope="module")
def nf(bt_point):
    return normal_form(BASE, bt_point)


class TestCandidates:
    def test_worked_example_positive_root(self):
        roots = bt_candidate_x(2.0, -2.82, 0.1)
        pos = [x for x, _ in roots if x > 0]
        assert len(pos) == 1
        # the candidate abscissa is exactly the equilibrium abscissa
        assert pos[0] == pytest.approx(GOLD_X, abs=1e-8)

    def test_unit_product_case(self):
        roots = bt_candidate_x(10.0, -2.0, 0.1)
        assert len(roots) == 1
        x, tag = roots[0]
        assert x == pytest.approx(0.5)
        assert tag == "EtaAeq1"

    def test_unit_product_with_b_zero_raises(self):
        with pytest.raises(NoCandidate):
            bt_candidate_x(10.0, 0.0, 0.1)

    def test_large_product_negative_discriminant(self):
        # a*eta > 1 with b^2*eta < 4*(a*eta - 1)
        with pytest.raises(NoCandidate):
            bt_candidate_x(30.0, -1.0, 0.1)

    def test_case_taxonomy_on_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            a = rng.uniform(0.2, 30.0)
            eta = rng.uniform(0.05, 1.0)
            b = rng.uniform(-1.9 * math.sqrt(a), 3.0)
            k = a * eta - 1.0
            try:
                roots = bt_candidate_x(a, b, eta)
            except NoCandidate:
                assert k > 0 and (b * b * eta - 4.0 * k < 0 or b == 0)
                continue
            xs = [x for x, _ in roots]
            if abs(k) < 1e-12 * max(1.0, a * eta):
                assert len(xs) == 1
            elif k < 0:
                assert len(xs) == 2 and xs[0] * xs[1] < 0
            else:
                assert len(xs) == 2 and xs[0] * xs[1] > 0
            for x in xs:
                assert abs(x * x * k + b * eta * x + eta) < 1e-8 * (1.0 + x * x * abs(k))


def _trace_det_residual(params, x, h, delta, y):
    """(|F|, trace, det) of the field at (x, y) for the given h and delta."""
    F, ((a, b), (c, d)) = jet(params.with_(h=h, delta=delta), x, y)[:2]
    return max(abs(F[0]), abs(F[1])), a + d, a * d - b * c


#: an a*eta = 1 case with a BT point at x = -1/b = 0.25
UNIT = ModelParams(a=10.0, b=-4.0, c=0.1, h=0.1, delta=0.1, eta=0.1, m=0.5)


class TestHopfCurvePoint:
    def test_equilibrium_with_zero_trace(self):
        checked = 0
        for params in (BASE, UNIT):
            for k in range(1, 40):
                x = 0.025 * k
                h, delta, y = hopf_curve_point(params, x)
                if h <= 0 or delta <= 0:
                    continue
                assert y == pytest.approx(delta * (params.m + x) / params.eta, rel=1e-15)
                residual, trace, _ = _trace_det_residual(params, x, h, delta, y)
                assert residual < 1e-15 and abs(trace) < 1e-15, (params, x)
                checked += 1
        assert checked >= 20

    def test_det_vanishes_at_a_candidate_root(self):
        # on the Hopf curve det = delta^2 (x^2/(eta p) - 1): zero at the
        # roots of bt_candidate_x, of one sign on either side of them
        for params in (BASE, UNIT):
            (x,) = [x for x, _ in bt_candidate_x(params.a, params.b, params.eta) if x > 0]
            h, delta, y = hopf_curve_point(params, x)
            assert abs(_trace_det_residual(params, x, h, delta, y)[2]) < 1e-17, params
            signs = set()
            for s in (-1.0, 1.0):
                h, delta, y = hopf_curve_point(params, x * (1.0 + 0.05 * s))
                signs.add(_trace_det_residual(params, x * (1.0 + 0.05 * s), h, delta, y)[2] > 0)
            assert signs == {True, False}, params

    def test_locate_does_not_depend_on_h_and_delta(self):
        for params in (BASE, UNIT):
            found = [bt_locate(params.with_(h=h, delta=delta))
                     for h, delta in ((0.17, 0.03), (0.5, 2.0), (1e-3, 1e-4))]
            assert found[0]
            assert [repr(pts) for pts in found] == [repr(found[0])] * 3, params


class TestFoldCurvePoint:
    def test_equilibrium_with_zero_det(self):
        checked = 0
        for params in (BASE, UNIT):
            for k in range(1, 40):
                x = 0.025 * k
                h, delta, y = fold_curve_point(params, x)
                if h <= 0 or delta <= 0:
                    continue
                assert y == pytest.approx(delta * (params.m + x) / params.eta, rel=1e-15)
                residual, _, det = _trace_det_residual(params, x, h, delta, y)
                assert residual < 1e-15 and abs(det) < 1e-15, (params, x)
                checked += 1
        assert checked >= 20

    def test_meets_the_hopf_curve_at_the_bt_point(self, bt_point):
        h, delta, y = fold_curve_point(BASE, bt_point.x)
        assert h == pytest.approx(bt_point.h_bt, rel=1e-14)
        assert delta == pytest.approx(bt_point.delta_bt, rel=1e-14)
        assert y == pytest.approx(bt_point.y, rel=1e-14)

    def test_dependent_rows_raise(self, monkeypatch):
        def singular(*args):
            raise ZeroDivisionError

        monkeypatch.setattr(equilibria, "solve2", singular)
        for point in (fold_curve_point, hopf_curve_point):
            with pytest.raises(SingularSolve):
                point(BASE, 0.3)


class TestLocate:
    def test_golden_point(self, bt_point):
        assert bt_point.h_bt == pytest.approx(GOLD_H, abs=1e-6)
        assert bt_point.delta_bt == pytest.approx(GOLD_DELTA, abs=1e-6)
        assert bt_point.x == pytest.approx(GOLD_X, abs=1e-6)
        assert bt_point.y == pytest.approx(GOLD_Y, abs=1e-6)
        assert bt_point.case_tag == "EtaAlt1"

    def test_double_zero_residuals(self, bt_point):
        p = bt_point.params(BASE)
        f = rhs(p, State(bt_point.x, bt_point.y))
        J = jacobian(p, State(bt_point.x, bt_point.y))
        assert max(abs(f[0]), abs(f[1])) < 1e-8
        assert abs(np.trace(J)) < 1e-8
        assert abs(np.linalg.det(J)) < 1e-8

    def test_unit_product_case_verified_by_residuals(self):
        p = ModelParams(a=10.0, b=-2.0, c=0.3, h=0.1, delta=0.1, eta=0.1, m=1.0)
        pts = bt_locate(p)
        for pt in pts:
            q = pt.params(p)
            f = rhs(q, State(pt.x, pt.y))
            J = jacobian(q, State(pt.x, pt.y))
            assert max(abs(f[0]), abs(f[1])) < 1e-8
            assert abs(np.trace(J)) < 1e-8
            assert abs(np.linalg.det(J)) < 1e-8

    def test_large_product_nonnegative_b_empty(self):
        # a*eta > 1 with b >= 0 (and real candidates): both roots negative
        p = ModelParams(a=30.0, b=10.0, c=0.3, h=0.1, delta=0.1, eta=0.1, m=1.0)
        assert bt_locate(p) == []


class TestNormalForm:
    def test_golden_g11(self, nf):
        assert nf.g11_0 == pytest.approx(-0.5922764628, rel=1e-4)

    def test_golden_2a0_and_s(self, nf):
        assert 2.0 * nf.A0 == pytest.approx(-0.01942828012, rel=1e-4)
        assert nf.s == 1
        # s is the sign of b20(0) * g11(0); the reference product is positive
        assert nf.g20_0 * nf.g11_0 == pytest.approx(0.01150691302, rel=1e-3)

    def test_golden_beta_jacobian_det(self, nf):
        det = float(np.linalg.det(nf.beta_jacobian))
        assert det == pytest.approx(3.559954288e6, rel=0.02)

    def test_eigenvector_duality(self, nf):
        assert np.dot(nf.v0, nf.w0) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(nf.v1, nf.w1) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(nf.v0, nf.w1) == pytest.approx(0.0, abs=1e-12)
        assert np.dot(nf.v1, nf.w0) == pytest.approx(0.0, abs=1e-12)

    def test_jordan_structure(self, nf):
        p = nf.params
        J = jacobian(p, State(nf.point.x, nf.point.y))
        assert np.allclose(J @ nf.v0, np.zeros(2), atol=1e-8)
        assert np.allclose(J @ nf.v1, nf.v0, atol=1e-8)

    def test_nondegeneracy_flags(self, nf):
        assert nf.nondegeneracy == {"BT.1": True, "BT.2": True, "BT.3": True}

    def test_one_jet_per_normal_form(self, bt_point, monkeypatch):
        # the projections at lambda = 0 and their lambda-partials come from
        # the same jet
        calls = []
        exact = bt.jet

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(bt, "jet", counted)
        normal_form(BASE, bt_point)
        assert len(calls) == 1

    def test_ab_from_an_independent_basis(self, nf):
        # Kuznetsov's BT coefficients a = <p1, B(q0,q0)>/2 and
        # b = <p0, B(q0,q0)> + <p1, B(q0,q1)>, with A q0 = 0, A q1 = q0,
        # A^T p1 = 0, A^T p0 = p1, <q0,p0> = <q1,p1> = 1, <q1,p0> = 0; the
        # basis comes from an SVD and least squares, not from bt._basis
        A = jacobian(nf.params, State(nf.point.x, nf.point.y))
        q0 = np.linalg.svd(A)[2][-1]
        q1 = np.linalg.lstsq(A, q0, rcond=None)[0]
        p1 = np.linalg.svd(A.T)[2][-1]
        p0 = np.linalg.lstsq(A.T, p1, rcond=None)[0]
        p0, p1 = p0 / (p1 @ q1), p1 / (p1 @ q1)
        p0 = p0 - (p0 @ q1) * p1
        hess = np.array(jet(nf.params, nf.point.x, nf.point.y)[2])

        def B(u, v):
            return np.einsum("ijk,j,k->i", hess, u, v)

        a = 0.5 * p1 @ B(q0, q0)
        b = p0 @ B(q0, q0) + p1 @ B(q0, q1)
        # a and b scale alike with q0, so only their ratio is normalization-free
        assert a / b == pytest.approx(nf.A0 / nf.B0, rel=1e-12)
        assert np.sign(a * b) == nf.s


# ---------------------------------------------------------------------------
# the paper's printed closed forms, against the computed values


def printed_h1_delta1(params):
    """Transcription of the paper's critical pair (h1, delta1) for the
    a*eta = 1 case, whose BT point sits at x = -1/b."""
    b, c, eta, m = params.b, params.c, params.eta, params.m
    delta1 = -(b * c - b - 2.0) / (
        b * (b**4 * c * eta * m - b**3 * c * eta - b**3 * eta * m - b**2 * c * m
             + b**2 * eta + 1.0))
    h1 = ((b**3 * eta + b**2 * eta + b * delta1 - b - 2.0) * (b * c - 1.0) ** 2
          / (b**3 * (b**2 * c * eta - b * eta - c)))
    return h1, delta1


def printed_lambda_partials(params, pt):
    """Transcription of the paper's (d/dh, d/ddelta) of the six raw
    coefficients a00, a10, a01, b00, b10, b01 at a BT point."""
    x1, y1, c, dlt, eta = pt.x, pt.y, params.c, pt.delta_bt, params.eta
    return {
        "a00": ((dlt - 1.0) * x1 / ((c + x1) * eta), y1),
        "a10": ((dlt - 1.0) * c / (c + x1) ** 2, dlt),
        "a01": ((dlt - 1.0) * c / (c + x1) ** 2, dlt - 1.0),
        "b00": (-dlt * x1 / (eta * (c + x1)), -y1),
        "b10": (-c * dlt / (c + x1) ** 2, -dlt),
        "b01": (-c * dlt / (c + x1) ** 2, -(dlt - 1.0)),
    }


def _seeded_bt_points(rng, n, unit_product):
    """(params, BT point) pairs located on n seeded draws of (a, b, c, eta,
    m), with a = 1/eta when ``unit_product``."""
    out = []
    for _ in range(n):
        eta = float(rng.uniform(0.05, 0.5))
        a = 1.0 / eta if unit_product else float(rng.uniform(0.5, 5.0))
        b = float(rng.uniform(-1.95, -1.0)) * math.sqrt(a)
        params = ModelParams(a=a, b=b, c=float(rng.uniform(0.02, 0.5)), h=0.1, delta=0.1,
                             eta=eta, m=float(rng.uniform(0.1, 2.0)))
        try:
            out += [(params, pt) for pt in bt_locate(validate(params))]
        except PredbifError:
            continue
    return out


#: names of the projections ``_project`` returns, in order: the a's, then the b's
PROJECTIONS = tuple(w + ij for w in "ab" for ij in ("00", "10", "01", "20", "11", "02"))


class TestTranscriptions:
    def test_unit_product_pair_matches_locate(self):
        points = _seeded_bt_points(np.random.default_rng(41), 200, unit_product=True)
        assert len(points) >= 50
        for params, pt in points:
            assert pt.case_tag == "EtaAeq1"
            h1, delta1 = printed_h1_delta1(params)
            assert h1 == pytest.approx(pt.h_bt, rel=1e-12), params
            assert delta1 == pytest.approx(pt.delta_bt, rel=1e-12), params

    def test_lambda_partials_match_the_projected_jet(self, bt_point):
        points = [(BASE, bt_point)]
        points += _seeded_bt_points(np.random.default_rng(43), 200, unit_product=False)
        assert len(points) >= 50
        for params, pt in points:
            basis = _basis(pt.delta_bt, params.eta)
            by_h, by_delta = jet(pt.params(params), pt.x, pt.y)[4:]
            (ha, hb), (da, db) = _project(basis, *by_h), _project(basis, *by_delta)
            partials = dict(zip(PROJECTIONS, zip(ha + hb, da + db)))
            for key, printed in printed_lambda_partials(params, pt).items():
                computed = partials[key]
                scale = 1.0 + max(map(abs, computed))
                assert abs(printed[0] - computed[0]) <= 1e-13 * scale, (key, params)
                assert abs(printed[1] - computed[1]) <= 1e-13 * scale, (key, params)


def _projections_matrix_form(nf, lam, op=np.asarray):
    """Reference projections in numpy matrix form, positional as
    ``_project``'s.  With ``op=np.abs`` every term enters with its
    magnitude, which bounds the rounding error of the sums."""
    vals, grads, hess = (op(np.array(t)) for t in
                         jet(nf.params, nf.point.x, nf.point.y, *lam)[:3])
    v0, v1 = op(nf.v0), op(nf.v1)
    return tuple((w @ vals, w @ (grads @ v0), w @ (grads @ v1),
                  w @ np.array([v0 @ hess[k] @ v0 for k in (0, 1)]),
                  w @ np.array([v0 @ hess[k] @ v1 for k in (0, 1)]),
                  w @ np.array([v1 @ hess[k] @ v1 for k in (0, 1)]))
                 for w in (op(nf.w0), op(nf.w1)))


class TestCoefficientChain:
    def test_scalar_projections_match_matrix_form(self, nf):
        rng = np.random.default_rng(8)
        lams = [(0.0, 0.0)] + [(float(rng.uniform(0.0, 1e-4)), float(rng.uniform(-1e-4, 1e-4)))
                               for _ in range(8)]
        basis = (nf.v0, nf.v1, nf.w0, nf.w1)
        for lam in lams:
            want = _projections_matrix_form(nf, lam)
            size = _projections_matrix_form(nf, lam, op=np.abs)
            got = _project(basis, *jet(nf.params, nf.point.x, nf.point.y, *lam)[:3])
            assert [len(t) for t in got] == [6, 6]
            for key, g, value, bound in zip(PROJECTIONS, got[0] + got[1], want[0] + want[1],
                                            size[0] + size[1]):
                assert type(g) is float, key
                # a10 and b10 cancel to ~0 at lambda = 0 (J v0 = 0), so the
                # error is relative to the size of the summed terms
                assert abs(g - value) <= 1e-12 * bound, (key, lam)

    def test_beta_map_is_numpy_free_on_floats(self, nf):
        b1, b2 = beta_map(nf, 3e-5, -2e-5)
        assert type(b1) is float and type(b2) is float
        # and so is everything the chain and the classification report
        for name in ("g20_0", "g11_0", "g02_0", "A0", "B0"):
            assert type(getattr(nf, name)) is float, name
        for name in ("v0", "v1", "w0", "w1"):
            assert [type(v) for v in getattr(nf, name)] == [float, float], name
        assert [type(v) for row in nf.beta_jacobian for v in row] == [float] * 4
        cs = bifurcation_curves(nf, (0.0, 5e-5, -5e-5, 5e-5), n=5)
        assert {type(v) for pts in (cs.T, cs.H, cs.P) for pt in pts for v in pt} == {float}
        rep = classify_generic(nf.params, Equilibrium(nf.point.x, nf.point.y, "Interior"))
        assert type(rep.trace) is float and type(rep.det) is float
        assert [type(ev) for ev in rep.eigenvalues] == [complex, complex]


class TestBetaMap:
    def test_origin_maps_to_origin(self, nf):
        b1, b2 = beta_map(nf, 0.0, 0.0)
        assert abs(b1) < 1e-10
        assert abs(b2) < 1e-10

    def test_linearization_matches_jacobian(self, nf):
        e = 1e-8
        num = np.column_stack([
            (np.array(beta_map(nf, e, 0.0)) - np.array(beta_map(nf, -e, 0.0))) / (2 * e),
            (np.array(beta_map(nf, 0.0, e)) - np.array(beta_map(nf, 0.0, -e))) / (2 * e),
        ])
        assert np.allclose(num, nf.beta_jacobian, rtol=1e-4, atol=1e-3)

    def test_equals_the_reference_chain_bit_for_bit(self, curve_cases):
        rng = np.random.default_rng(11)
        checked = 0
        for nf_k, (l1_min, l1_max, l2_min, l2_max), _ in curve_cases:
            lams = [(0.0, 0.0), (l1_min, l2_min), (l1_min, l2_max), (l1_max, l2_min),
                    (l1_max, l2_max)]
            lams += [(float(rng.uniform(l1_min, l1_max)), float(rng.uniform(l2_min, l2_max)))
                     for _ in range(80)]
            for lam in lams:
                want = [v.hex() for v in _reference_beta(nf_k, *lam)]
                assert [v.hex() for v in beta_map(nf_k, *lam)] == want, lam
                checked += 1
        assert checked >= 1000

    def test_reads_only_the_second_order_jet(self, nf, monkeypatch):
        # beta_map projects F, DF and D2F; the third derivatives and the h/delta
        # partials of the full jet are never needed
        want = beta_map(nf, 1e-5, -2e-5)

        def full_jet(*args, **kw):
            raise AssertionError("beta_map built the full jet")

        monkeypatch.setattr(model, "jet", full_jet)
        monkeypatch.setattr(bt, "jet", full_jet)
        assert beta_map(nf, 1e-5, -2e-5) == want


class TestCurves:
    def test_pass_through_origin_and_residuals(self, nf):
        box = (0.0, 5e-5, -5e-5, 5e-5)
        cs = bifurcation_curves(nf, box, n=11)
        for name in ("T", "H", "P"):
            pts = getattr(cs, name)
            assert len(pts) == 11, name
            l1_0, l2_0 = pts[0]
            assert l1_0 == 0.0
            assert abs(l2_0) < 1e-9
        # T and H are exact curve points (TestDirectCurves); P is H moved by
        # the normal form's gap beta1 = -(6/25) beta2^2 through
        # d(beta1)/d(lambda2), and H and P lie where beta2 < 0
        j01 = nf.beta_jacobian[0][1]
        for (l1, l2), (_, b2), (l1_p, l2_p) in zip(cs.H, cs.beta["H"], cs.P):
            assert l1_p == l1
            assert l2_p - l2 == pytest.approx(-(6.0 / 25.0) * b2 * b2 / j01, rel=1e-9, abs=1e-20)
            assert b2 < 0 or l1 == 0.0
        for (l1, _), (_, b2) in zip(cs.P, cs.beta["P"]):
            assert b2 < 0 or l1 == 0.0

    def test_origin_samples_do_not_depend_on_the_sign_of_rounding(self, nf, monkeypatch):
        # beta2 = 0 at lambda = 0 in theory; rounding noise of either sign
        # there must keep the lambda1 = 0 samples of H and P
        exact = bt.beta_map
        calls = []

        def shifted(nf_, lambda1, lambda2):
            calls.append((lambda1, lambda2))
            b1, b2 = exact(nf_, lambda1, lambda2)
            return b1, b2 + 3e-15

        monkeypatch.setattr(bt, "beta_map", shifted)
        cs = bifurcation_curves(nf, (0.0, 5e-5, -5e-5, 5e-5), n=11)
        assert calls
        assert cs.H[0] == (0.0, 0.0)
        assert cs.P[0][0] == 0.0

    def test_ordering_near_bt_point(self, nf):
        # s = +1 here, so for small lambda1 > 0 the fold sits above the Hopf
        # curve, which sits above the homoclinic curve
        box = (0.0, 5e-5, -5e-5, 5e-5)
        cs = bifurcation_curves(nf, box, n=11)
        t = dict(cs.T)
        h = dict(cs.H)
        p = dict(cs.P)
        for l1 in list(t.keys())[1:]:
            if l1 in h and l1 in p:
                assert t[l1] > h[l1] > p[l1]


def _direct_point_at_h(point, params, h, x_near):
    """The point of a direct curve, (x, h, delta, y), whose h is the given
    one, by bisection in x in the smallest window around x_near (doubled
    from 1e-3) where h - h(x) changes sign, down to adjacent floats: the
    one of the two whose h is nearer."""
    width = 1e-3
    while True:
        lo, hi = x_near - width, x_near + width
        f_lo, f_hi = point(params, lo)[0] - h, point(params, hi)[0] - h
        if f_lo * f_hi < 0:
            break
        width *= 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        f_mid = point(params, mid)[0] - h
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    x = lo if abs(f_lo) <= abs(f_hi) else hi
    return (x, *point(params, x))


# ---------------------------------------------------------------------------
# the normal form's curves, kept here as the reference for the direct ones


BT_EXAMPLE_BOX = (0.0, 1e-4, -1e-4, 1e-4)  # the curves box of configs/bt_example.cfg


def _chain_mu(a00, a10, a20, a11, a02, b00, b10, b01, b20, b11, b02):
    """(mu1, mu2, A, B) from the coefficient chain at finite lambda; a01
    does not enter."""
    g00 = b00
    g10 = b10 + a11 * b00 - b11 * a00
    g01 = b01 + a10 + a02 * b00 - (a11 + b02) * a00
    g20 = b20
    g11 = a20 + b11
    g02 = b02 + 2.0 * a11
    if g11 == 0:
        raise DegenerateBT("g11(lambda) = 0 in the parameter shift", condition="BT.1")
    shift = -g01 / g11
    h00 = g00 + g10 * shift + 0.5 * g20 * shift**2
    h10 = g10 + g20 * shift
    h20, h11, h02 = g20, g11, g02
    mu1 = h00
    mu2 = h10 - 0.5 * h00 * h02
    A = 0.5 * (h20 - h10 * h02)
    B = h11
    return mu1, mu2, A, B


def _reference_beta(nf, lambda1, lambda2):
    """beta through the full jet: ``_project``, the coefficient chain
    and the beta formula of ``beta_map``."""
    a, b = _project((nf.v0, nf.v1, nf.w0, nf.w1),
                    *jet(nf.params, nf.point.x, nf.point.y, lambda1, lambda2)[:3])
    a00, a10, _, a20, a11, a02 = a
    mu1, mu2, A, B = _chain_mu(a00, a10, a20, a11, a02, *b)
    return B**4 / A**3 * mu1, B**2 / A**2 * mu2


_REFERENCE_CURVES = {
    "T": lambda b1, b2: 4.0 * b1 - b2 * b2,
    "H": lambda b1, b2: b1,
    "P": lambda b1, b2: b1 + (6.0 / 25.0) * b2 * b2,
}


def _reference_curves(nf, box, n):
    """The normal form's T/H/P samples: a fixed 80-step bisection in
    lambda2 on ``_reference_beta`` at each lambda1 sample, from the box
    ends or else a 64-point scan; H and P samples require beta2 < 0, up to
    rounding."""
    l1_min, l1_max, l2_min, l2_max = box
    b2_tol = 16.0 * math.ulp(max(abs(v) for row in nf.beta_jacobian for v in row)
                             * max(abs(v) for v in box))
    samples = {"T": [], "H": [], "P": []}
    for l1 in np.linspace(l1_min, l1_max, n).tolist():
        for name, fdef in _REFERENCE_CURVES.items():
            def val(l2):
                return fdef(*_reference_beta(nf, l1, l2))
            lo, hi = l2_min, l2_max
            flo, fhi = val(lo), val(hi)
            if flo * fhi > 0:
                grid = np.linspace(l2_min, l2_max, 64).tolist()
                vs = [val(g) for g in grid]
                k = next((i for i in range(63) if vs[i] * vs[i + 1] <= 0), None)
                if k is None:
                    continue
                lo, hi, flo = grid[k], grid[k + 1], vs[k]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = val(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            l2 = 0.5 * (lo + hi)
            if name in ("H", "P") and _reference_beta(nf, l1, l2)[1] >= b2_tol:
                continue
            samples[name].append((l1, l2))
    return samples


@pytest.fixture(scope="module")
def curve_cases(nf):
    """(nf, box, n) of bt_example, of TestCurves, and of the 12 bt-curves
    configs of perfbench's bifurcation-reports workload, seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import make_block

    cases = [(nf, BT_EXAMPLE_BOX, 25), (nf, (0.0, 5e-5, -5e-5, 5e-5), 11)]
    for k in range(12):
        (op,) = [op for op in make_block("bifurcation-reports", 1, k)
                 if op["command"] == "bt-curves"]
        params, curves = ModelParams(**op["config"]["params"]), op["config"]["curves"]
        box = tuple(curves[key] for key in
                    ("lambda1_min", "lambda1_max", "lambda2_min", "lambda2_max"))
        cases.append((normal_form(params, bt_locate(params)[0]), box, curves["n"]))
    return cases


def _spied_curves(monkeypatch, nf, box, n):
    """``bifurcation_curves(nf, box, n)`` and every curve point it
    evaluated, as {"T": [(x, h, delta, y), ...], "H": [...]}."""
    seen = {"T": [], "H": []}
    for name, attr in (("T", "fold_curve_point"), ("H", "hopf_curve_point")):
        def spy(params, x, point=getattr(equilibria, attr), out=seen[name]):
            found = point(params, x)
            out.append((x, *found))
            return found
        monkeypatch.setattr(bt, attr, spy)
    return bifurcation_curves(nf, box, n), seen


class TestDirectCurves:
    """bt-curves' T and H are the fold and Hopf curves computed directly on
    the equilibrium curve (Kuznetsov, Elements of Applied Bifurcation
    Theory, section 8.4); the normal form's curves agree with them to
    second order in lambda1."""

    @pytest.mark.parametrize("lambda1", [1e-3, 1e-4, 1e-5])
    def test_normal_form_curves_are_second_order_close(self, nf, lambda1):
        # one lambda1 sample: linspace(lo, hi, 1) is [lo]
        box = (lambda1, lambda1, -2.0 * lambda1, 2.0 * lambda1)
        cs, reference = bifurcation_curves(nf, box, 1), _reference_curves(nf, box, 1)
        for name in "TH":
            ((l1, l2),) = getattr(cs, name)
            ((l1_nf, l2_nf),) = reference[name]
            assert l1 == l1_nf == lambda1
            assert abs(l2 - l2_nf) / l1**2 <= 10.0, name

    def test_samples_are_exact_curve_points(self, curve_cases, monkeypatch):
        # each T and H sample is a curve point the secant evaluated, h within
        # 4 ulps of h_bt + lambda1 and lambda2 its delta - delta_bt, and the
        # collapse-to-ulp bisection in x finds the same point: to 4 ulps of
        # delta, after the two points' offsets from the target h and 4 ulps
        # of rounding in h, times d(delta)/dh along the curve
        cases = curve_cases + [(curve_cases[0][0], (l1, l1, -2.0 * l1, 2.0 * l1), 1)
                               for l1 in (1e-3, 0.02)]
        checked = 0
        for nf_k, box, n in cases:
            pt, params = nf_k.point, nf_k.params
            cs, seen = _spied_curves(monkeypatch, nf_k, box, n)
            for name, point in (("T", fold_curve_point), ("H", hopf_curve_point)):
                assert len(getattr(cs, name)) == n, (name, box)
                for l1, l2 in getattr(cs, name):
                    target = pt.h_bt + l1
                    ((x, h, delta, y),) = {p for p in seen[name] if p[2] - pt.delta_bt == l2
                                           and abs(p[1] - target) <= 4.0 * math.ulp(target)}
                    residual, trace, det = _trace_det_residual(params, x, h, delta, y)
                    assert residual <= 1e-15, (name, l1)
                    assert abs(trace if name == "H" else det) <= 1e-15, (name, l1)
                    _, h_o, delta_o, _ = _direct_point_at_h(point, params, target, pt.x)
                    (h_lo, d_lo, _), (h_hi, d_hi, _) = (point(params, x + e) for e in (-1e-7, 1e-7))
                    slope = abs((d_hi - d_lo) / (h_hi - h_lo))
                    offsets = abs(h - target) + abs(h_o - target) + 4.0 * math.ulp(target)
                    tol = 4.0 * math.ulp(delta) + slope * offsets
                    assert abs(delta - delta_o) <= tol, (name, l1)
                    checked += 1
        assert checked == 2 * sum(n for _, _, n in cases)

    def test_beta_column_equals_the_reference_chain_bit_for_bit(self, curve_cases):
        for nf_k, box, n in curve_cases:
            cs = bifurcation_curves(nf_k, box, n)
            for name in "THP":
                pts = getattr(cs, name)
                assert len(cs.beta[name]) == len(pts) > 0
                for lam, b in zip(pts, cs.beta[name]):
                    want = _reference_beta(nf_k, *lam)
                    assert [v.hex() for v in b] == [v.hex() for v in want], (name, lam)

    def test_evaluation_counts(self, nf, monkeypatch):
        # bt_example at n = 25: a few secant steps per sample, and one
        # beta_map call per reported sample, so no bisection in lambda2
        calls = []
        exact = bt.beta_map

        def counted(nf_, lambda1, lambda2):
            calls.append((lambda1, lambda2))
            return exact(nf_, lambda1, lambda2)

        monkeypatch.setattr(bt, "beta_map", counted)
        cs, seen = _spied_curves(monkeypatch, nf, BT_EXAMPLE_BOX, 25)
        kept = len(cs.T) + len(cs.H)
        assert kept == 50
        assert len(seen["T"]) + len(seen["H"]) <= 10 * kept
        assert sorted(calls) == sorted(cs.T + cs.H + cs.P)

    def test_a_missed_sample_is_dropped(self, nf, monkeypatch):
        # the 10th Hopf-curve point fails: that H sample and its P are
        # dropped, and the next sample starts from the last point reached
        full = bifurcation_curves(nf, BT_EXAMPLE_BOX, 25)
        calls = []

        def failing(params, x):
            calls.append(x)
            if len(calls) == 10:
                raise SingularSolve("dependent rows")
            return hopf_curve_point(params, x)

        monkeypatch.setattr(bt, "hopf_curve_point", failing)
        cs = bifurcation_curves(nf, BT_EXAMPLE_BOX, 25)
        assert cs.T == full.T
        for name in "HP":
            kept, all_ = dict(getattr(cs, name)), dict(getattr(full, name))
            (missed,) = set(all_) - set(kept)
            assert 0.0 < missed < BT_EXAMPLE_BOX[1]
            for l1, l2 in kept.items():
                assert abs(l2 - all_[l1]) <= 1e-15, (name, l1)

    def test_window_above_the_curves_keeps_nothing(self, nf):
        cs = bifurcation_curves(nf, (0.0, 1e-4, 1e-4, 2e-4), 5)
        assert (cs.T, cs.H, cs.P) == ([], [], [])


# ---------------------------------------------------------------------------
# the homoclinic (P) curve on the true system, by separatrix splitting


def _separatrix_split(params, bt_point):
    """Splitting of the saddle's separatrices near the BT point: the
    unstable branch (forward) and the stable branch (backward), each started
    1e-7 off the saddle toward the antisaddle and integrated at tol 1e-12
    for |t| <= 20000, cut the half-line y = y_anti, x > x_anti, refined as
    ``sim._section_crossings`` refines; returns the difference of the two
    first crossing abscissas, which changes sign at the homoclinic orbit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        near = sorted(interior_equilibria(params), key=lambda e: abs(e.x - bt_point.x))[:2]
    dets = [_trace_det_residual(params, e.x, params.h, params.delta, e.y)[2] for e in near]
    saddle, anti = near if dets[0] < 0 else near[::-1]
    assert dets == sorted(dets) or dets == sorted(dets, reverse=True)
    assert anti.x > saddle.x  # the half-line lies beyond the antisaddle
    (a, b), (c, d) = jet(params, saddle.x, saddle.y)[1]
    half_tr = 0.5 * (a + d)
    root = math.sqrt(half_tr * half_tr - (a * d - b * c))
    crossings = []
    for eig, t_end in ((half_tr + root, 20000.0), (half_tr - root, -20000.0)):
        vx, vy = b, eig - a  # (DF - eig) v = 0
        if vx * (anti.x - saddle.x) + vy * (anti.y - saddle.y) < 0:
            vx, vy = -vx, -vy
        scale = 1e-7 / math.hypot(vx, vy)
        start = State(saddle.x + scale * vx, saddle.y + scale * vy)
        traj = sim.integrate(params, start, t_end, tol=1e-12, on_failure="keep")
        crossings.append(sim._section_crossings(traj, anti.x, anti.y)[0][1])
    return crossings[0] - crossings[1]


class TestHomoclinic:
    """The reported P curve against the homoclinic orbit of the true system,
    located by separatrix splitting between the reported H and 1.5 P - H
    gaps: the normal form's gap is right to first order in lambda1."""

    @pytest.mark.parametrize("lambda1", [1e-3, 5e-4])
    def test_p_gap_matches_the_homoclinic_orbit(self, nf, bt_point, lambda1):
        cs = bifurcation_curves(nf, (lambda1, lambda1, -2.0 * lambda1, 2.0 * lambda1), 1)
        ((_, l2_h),), ((_, l2_p),) = cs.H, cs.P
        gap = l2_p - l2_h
        base = BASE.with_(h=bt_point.h_bt + lambda1)

        def split(k):
            return _separatrix_split(base.with_(delta=bt_point.delta_bt + l2_h + k * gap),
                                     bt_point)

        # bisect the sign change of the split in units of the gap
        lo, hi = 0.5, 1.5
        s_lo = split(lo)
        assert s_lo * split(hi) < 0
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            s_mid = split(mid)
            if s_lo * s_mid <= 0:
                hi = mid
            else:
                lo, s_lo = mid, s_mid
        ratio = 0.5 * (lo + hi)
        assert abs(ratio - 1.0) <= 150.0 * lambda1


def _fold_by_interior_count(bt_point, l1):
    """lambda2 of the fold at lambda1 = l1 on the true system: where the
    count of interior equilibria drops from 2 to 0, bisected 60 times
    inside (-0.0130, -0.0125)."""
    p0 = bt_point.params(BASE)

    def n_interior(l2):
        p = p0.with_(h=p0.h + l1, delta=p0.delta + l2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return len(interior_equilibria(p))

    lo, hi = -0.0130, -0.0125
    assert n_interior(lo) == 2 and n_interior(hi) == 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if n_interior(mid) == 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestTrueUnfolding:
    """The reference lambda-offsets are far outside the local beta-map's
    validity scale, so those regimes are checked on the true system."""

    def test_fold_location_matches_reference_offset(self, bt_point):
        assert _fold_by_interior_count(bt_point, 0.02) == pytest.approx(-0.01283735222, abs=1e-6)

    def test_reported_fold_is_the_true_fold(self, nf, bt_point):
        # far from the BT point the normal form's fold sits at -0.0150545;
        # the reported one is the fold curve's
        cs = bifurcation_curves(nf, (0.02, 0.02, -0.03, 0.03), 1)
        ((l1, l2),) = cs.T
        assert l1 == 0.02
        assert l2 == pytest.approx(-0.01283735222, abs=1e-6)
        assert l2 == pytest.approx(_fold_by_interior_count(bt_point, 0.02), abs=1e-6)
