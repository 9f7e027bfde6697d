"""Bogdanov-Takens analysis: location of double-zero-eigenvalue equilibria
in the (h, delta) plane, reduction to the two-parameter normal form

    eta1' = eta2,   eta2' = beta1 + beta2*eta1 + eta1^2 + s*eta1*eta2 + ...

and the fold (T), Hopf (H) and homoclinic (P) bifurcation curves.

The coefficient chain projects ``model.jet`` at the BT point, with (h,
delta) shifted by lambda, onto the generalized eigenbasis; the
lambda-partials of the coefficients project the jet's exact h- and
delta-partials.  The paper's printed closed forms for those partials and
for the a*eta = 1 point live in ``tests/test_bt.py`` as transcriptions,
each held equal to the computed value there.  T and H are the exact fold
and Hopf curves of ``equilibria`` (Kuznetsov, Elements of Applied
Bifurcation Theory, section 8.4); the normal form gives P's offset from H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .equilibria import fold_curve_point, hopf_curve_point
from .errors import DegenerateBT, DomainError, NoCandidate, SingularSolve
from .model import ModelParams, field, jet, linspace, validate

BT_RESIDUAL_TOL = 1e-8

#: nondegeneracy thresholds for BT.1 / BT.2 / BT.3
NONDEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class BTPoint:
    x: float
    y: float
    h_bt: float
    delta_bt: float
    case_tag: str  # EtaAeq1 | EtaAlt1 | EtaAgt1-x3 | EtaAgt1-x4

    def params(self, base: ModelParams) -> ModelParams:
        return validate(replace(base, h=self.h_bt, delta=self.delta_bt))


@dataclass
class BTNormalForm:
    point: BTPoint
    params: ModelParams
    v0: tuple[float, float]
    v1: tuple[float, float]
    w0: tuple[float, float]
    w1: tuple[float, float]
    g20_0: float
    g11_0: float
    g02_0: float
    A0: float
    B0: float
    s: int
    beta_jacobian: tuple  # d(beta1, beta2)/d(lambda1, lambda2) at 0, as float rows
    nondegeneracy: dict  # BT.1/BT.2/BT.3 -> bool


@dataclass
class CurveSet:
    T: list[tuple[float, float]]
    H: list[tuple[float, float]]
    P: list[tuple[float, float]]
    box: tuple[float, float, float, float]  # l1_min, l1_max, l2_min, l2_max
    beta: dict[str, list[tuple[float, float]]]  # (beta1, beta2) of each sample, by curve


def bt_candidate_x(a: float, b: float, eta: float) -> list[tuple[float, str]]:
    """Real solutions of x^2 (a*eta - 1) + b*eta*x + eta = 0 with case tags.

    Raises NoCandidate when no real solution exists (a*eta > 1 with negative
    discriminant, or the degenerate linear case with b = 0).
    """
    k = a * eta - 1.0
    if abs(k) < 1e-12 * max(1.0, a * eta):
        if b == 0:
            raise NoCandidate("a*eta = 1 with b = 0: equation has no solution")
        return [(-1.0 / b, "EtaAeq1")]
    disc = b * b * eta * eta - 4.0 * k * eta
    if k < 0:
        # disc > 0 always: two real roots of opposite sign
        rt = math.sqrt(disc)
        x_pos = (-b * eta - rt) / (2.0 * k)
        x_neg = (-b * eta + rt) / (2.0 * k)
        return [(x_pos, "EtaAlt1"), (x_neg, "EtaAlt1")]
    if disc < 0:
        raise NoCandidate(f"a*eta > 1 with b^2*eta - 4*(a*eta - 1) = {disc / eta} < 0")
    rt = math.sqrt(disc)
    x3 = (-b * eta + rt) / (2.0 * k)
    x4 = (-b * eta - rt) / (2.0 * k)
    return [(x3, "EtaAgt1-x3"), (x4, "EtaAgt1-x4")]


def bt_locate(params: ModelParams) -> list[BTPoint]:
    """All Bogdanov-Takens points for the given (a, b, c, eta, m); the h and
    delta fields of ``params`` are treated as free parameters.

    On the Hopf curve (``equilibria.hopf_curve_point``) the trace vanishes
    and det = delta^2 (x^2/(eta p(x)) - 1), so the points sit at the
    positive roots of ``bt_candidate_x``.  Every returned point passes the
    trace/determinant/equilibrium residual checks at (h_bt, delta_bt).
    Raises SingularSolve when the Hopf-curve rows are dependent there.
    """
    points: list[BTPoint] = []
    for x, tag in bt_candidate_x(params.a, params.b, params.eta):
        if x <= 0:
            continue
        h, delta, y = hopf_curve_point(params, x)
        if h <= 0 or delta <= 0:
            continue
        f, ((fx, fy), (gx, gy)) = field(replace(params, h=h, delta=delta), x, y)
        tr, det = fx + gy, fx * gy - fy * gx
        if max(abs(f[0]), abs(f[1])) >= BT_RESIDUAL_TOL or abs(tr) >= BT_RESIDUAL_TOL \
                or abs(det) >= BT_RESIDUAL_TOL:
            continue
        points.append(BTPoint(x, y, h, delta, tag))
    points.sort(key=lambda p: p.x)
    return points


# ---------------------------------------------------------------------------
# normal form


_COEFF_KEYS = (("a00", "a10", "a01", "a20", "a11", "a02"),
               ("b00", "b10", "b01", "b20", "b11", "b02"))


def _project(basis, F, DF, D2F) -> dict:
    """Eigenbasis projections of a field's jet, in the convention with 1/2 on
    the pure-square terms: w.F, w.(DF v) and w.(v^T H_k u) for w = w0 (a_ij)
    and w = w1 (b_ij), each written out as a two-term sum on floats."""
    (v0x, v0y), (v1x, v1y), w0, w1 = basis
    # per field component k: F_k, DF_k v0, DF_k v1, v0'H_k v0, v0'H_k v1, v1'H_k v1
    comps = []
    for val, (dx, dy), ((hxx, hxy), (hyx, hyy)) in zip(F, DF, D2F):
        r0x, r0y = v0x * hxx + v0y * hyx, v0x * hxy + v0y * hyy  # v0' H_k
        r1x, r1y = v1x * hxx + v1y * hyx, v1x * hxy + v1y * hyy  # v1' H_k
        comps.append((val, dx * v0x + dy * v0y, dx * v1x + dy * v1y,
                      r0x * v0x + r0y * v0y, r0x * v1x + r0y * v1y, r1x * v1x + r1y * v1y))
    f, g = comps
    out = {}
    for keys, (wx, wy) in zip(_COEFF_KEYS, (w0, w1)):
        for key, fk, gk in zip(keys, f, g):
            out[key] = wx * fk + wy * gk
    return out


def _ab_coeffs(params_bt: ModelParams, pt: BTPoint, basis, lam: tuple[float, float]) -> dict:
    """Taylor coefficients a_ij(lambda), b_ij(lambda) of the projected field at
    h + lambda1, delta + lambda2, with a01 relative to the Jordan block's 1."""
    F, DF, D2F, _, _, _ = jet(params_bt, pt.x, pt.y, lam[0], lam[1])
    out = _project(basis, F, DF, D2F)
    out["a01"] -= 1.0
    return out


def _basis(delta: float, eta: float):
    """Generalized eigenvectors of the double-zero Jacobian and its
    transpose as float pairs, normalized so that <v1,w1> = <v0,w0> = 1 and
    the cross products vanish."""
    v0, v1 = (eta, delta), (eta, delta - 1.0)
    w0, w1 = (-(delta - 1.0) / eta, 1.0), (delta / eta, -1.0)
    # re-normalize against roundoff
    k = v1[0] * w1[0] + v1[1] * w1[1]
    w1 = (w1[0] / k, w1[1] / k)
    k = v1[0] * w0[0] + v1[1] * w0[1]
    w0 = (w0[0] - k * w1[0], w0[1] - k * w1[1])
    k = v0[0] * w0[0] + v0[1] * w0[1]
    return v0, v1, (w0[0] / k, w0[1] / k), w1


def normal_form(params: ModelParams, bt_point: BTPoint) -> BTNormalForm:
    """Run the reduction chain at a located BT point and verify the three
    nondegeneracy conditions.

    Raises DegenerateBT naming the first failed condition.
    """
    pbt = bt_point.params(params)
    basis = _basis(bt_point.delta_bt, params.eta)
    v0, v1, w0, w1 = basis

    c0 = _ab_coeffs(pbt, bt_point, basis, (0.0, 0.0))
    g20_0 = c0["b20"]
    g11_0 = c0["a20"] + c0["b11"]
    g02_0 = c0["b02"] + 2.0 * c0["a11"]
    A0 = 0.5 * g20_0
    B0 = g11_0

    scale0 = max(abs(c0[k]) for k in ("a20", "b11", "b20"))
    bt1 = abs(g11_0) > NONDEGENERACY_TOL * (1.0 + scale0)
    bt2 = abs(g20_0) > NONDEGENERACY_TOL * (1.0 + scale0)
    if not bt1:
        raise DegenerateBT(f"BT.1 failed: g11(0) = {g11_0}", condition="BT.1")
    if not bt2:
        raise DegenerateBT(f"BT.2 failed: 2A(0) = b20(0) = {g20_0}", condition="BT.2")

    # exact lambda-partials of the coefficients: projections of the jet's
    # h- and delta-partials, one per lambda component
    by_h, by_delta = jet(pbt, bt_point.x, bt_point.y)[4:]
    ph, pd = _project(basis, *by_h), _project(basis, *by_delta)
    k1 = B0**4 / A0**3
    k2 = B0**2 / A0**2
    columns = []
    for d in (ph, pd):
        dg10 = d["b10"] + c0["a11"] * d["b00"] - c0["b11"] * d["a00"]
        dg01 = d["b01"] + d["a10"] + c0["a02"] * d["b00"] - (c0["a11"] + c0["b02"]) * d["a00"]
        dh10 = dg10 - (g20_0 / g11_0) * dg01
        # d(mu1) = d(g00) = d(b00); d(mu2) = d(h10) - h02/2 d(h00)
        columns.append((k1 * d["b00"], k2 * (dh10 - 0.5 * g02_0 * d["b00"])))
    (j00, j01), (j10, j11) = beta_jac = tuple(zip(*columns))
    det_bj = j00 * j11 - j01 * j10
    bt3 = abs(det_bj) > NONDEGENERACY_TOL
    if not bt3:
        raise DegenerateBT(f"BT.3 failed: det(dbeta/dlambda) = {det_bj}", condition="BT.3")

    s = 1 if g20_0 * g11_0 > 0 else -1
    return BTNormalForm(
        point=bt_point,
        params=pbt,
        v0=v0, v1=v1, w0=w0, w1=w1,
        g20_0=g20_0, g11_0=g11_0, g02_0=g02_0,
        A0=A0, B0=B0, s=s,
        beta_jacobian=beta_jac,
        nondegeneracy={"BT.1": bt1, "BT.2": bt2, "BT.3": bt3},
    )


def beta_map(nf: BTNormalForm, lambda1: float, lambda2: float) -> tuple[float, float]:
    """(beta1, beta2) of the normal form at a small parameter offset: the
    coefficient chain on ``_ab_coeffs`` at (lambda1, lambda2), the raw
    coefficients first order in lambda and the chain's products kept."""
    c = _ab_coeffs(nf.params, nf.point, (nf.v0, nf.v1, nf.w0, nf.w1), (lambda1, lambda2))
    g10 = c["b10"] + c["a11"] * c["b00"] - c["b11"] * c["a00"]
    g01 = c["b01"] + c["a10"] + c["a02"] * c["b00"] - (c["a11"] + c["b02"]) * c["a00"]
    g20, g11, g02 = c["b20"], c["a20"] + c["b11"], c["b02"] + 2.0 * c["a11"]
    if g11 == 0:
        raise DegenerateBT("g11(lambda) = 0 in the parameter shift", condition="BT.1")
    shift = -g01 / g11
    mu1 = c["b00"] + g10 * shift + 0.5 * g20 * shift**2
    h10 = g10 + g20 * shift
    A = 0.5 * (g20 - h10 * g02)
    if abs(A) < 1e-14 * (1.0 + abs(nf.A0)):
        raise DegenerateBT(f"A(lambda) ~ 0 at lambda=({lambda1}, {lambda2})", condition="BT.2")
    return g11**4 / A**3 * mu1, g11**2 / A**2 * (h10 - 0.5 * mu1 * g02)


#: secant steps allowed per curve sample
SECANT_STEPS = 10


def bifurcation_curves(nf: BTNormalForm, lambda_box, n: int = 50) -> CurveSet:
    """The T, H and P curves over the lambda box at n lambda1 samples.

    T and H are the exact fold and Hopf curves: at each lambda1, secant
    steps in x from the previous sample's point and slope dh/dx (the first
    from the BT point) reach h within 4 ulps of h_bt + lambda1, and lambda2
    = delta - delta_bt.  P is H moved by the normal form's gap beta1 =
    -(6/25) beta2^2 through d(beta1)/d(lambda2).  Samples not reached in
    SECANT_STEPS steps or outside the lambda2 window are dropped, as are H
    and P samples with beta2 >= 0, up to rounding.  Each kept sample's beta
    is one ``beta_map``.
    """
    l1_min, l1_max, l2_min, l2_max = lambda_box
    pt, params = nf.point, nf.params
    # beta2 = 0 at lambda = 0 in theory, and comes out as rounding noise
    # there: a few ulps of the betas' size over the box
    b2_tol = 16.0 * math.ulp(max(abs(v) for row in nf.beta_jacobian for v in row)
                             * max(abs(v) for v in lambda_box))
    gap = -(6.0 / 25.0) / nf.beta_jacobian[0][1]
    cs = CurveSet([], [], [], tuple(lambda_box), {"T": [], "H": [], "P": []})

    def report(curve, l1, l2, b):
        getattr(cs, curve).append((l1, l2))
        cs.beta[curve].append(b)

    x1 = pt.x * (1.0 + 2.0**-20)
    for name, point in (("T", fold_curve_point), ("H", hopf_curve_point)):
        (h, delta, _), (h1, _, _) = point(params, pt.x), point(params, x1)
        found = (pt.x, h, delta, (h1 - h) / (x1 - pt.x))  # the last point reached, and dh/dx
        for l1 in linspace(l1_min, l1_max, n):
            target = pt.h_bt + l1
            tol = 4.0 * math.ulp(target)
            x, h, delta, slope = found
            try:
                for _ in range(SECANT_STEPS):
                    if abs(h - target) <= tol:
                        break
                    x_new = x + (target - h) / slope
                    h_new, delta, _ = point(params, x_new)
                    # steps inside h's rounding noise keep the slope
                    if abs(h_new - h) > 16.0 * tol:
                        slope = (h_new - h) / (x_new - x)
                    x, h = x_new, h_new
            except (DomainError, SingularSolve, ZeroDivisionError):
                continue
            if not abs(h - target) <= tol:
                continue
            found = (x, h, delta, slope)
            l2 = delta - pt.delta_bt
            if name == "T":
                if l2_min <= l2 <= l2_max:
                    report("T", l1, l2, beta_map(nf, l1, l2))
                continue
            b = beta_map(nf, l1, l2)  # P needs H's beta2 even outside the window
            if b[1] >= b2_tol:
                continue
            if l2_min <= l2 <= l2_max:
                report("H", l1, l2, b)
            l2 += gap * b[1] ** 2
            if l2_min <= l2 <= l2_max:
                b = beta_map(nf, l1, l2)
                if b[1] < b2_tol:
                    report("P", l1, l2, b)
    return cs
