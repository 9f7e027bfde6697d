"""Bogdanov-Takens analysis: location of double-zero-eigenvalue equilibria
in the (h, delta) plane, reduction to the two-parameter normal form

    eta1' = eta2,   eta2' = beta1 + beta2*eta1 + eta1^2 + s*eta1*eta2 + ...

and local approximations of the fold (T), Hopf (H) and homoclinic (P)
bifurcation curves.

The coefficient chain projects ``model.jet`` at the frozen BT point, with
(h, delta) shifted by lambda, onto the generalized eigenbasis; the
lambda-partials of the coefficients project the jet's exact h- and
delta-partials.  The paper's printed closed forms for those partials and
for the a*eta = 1 point live in ``tests/test_bt.py`` as transcriptions,
each held equal to the computed value there.
``beta_map`` runs the same projection on terms precomputed at the BT point
in two stages: a row per lambda1 evaluates the jet entries that depend on h
and every coefficient they alone determine, and the row's lambda2 stage
the entries that depend on delta and the rest of the chain, in the same
floating-point order.  ``bifurcation_curves`` keeps one row per lambda1
sample, memoized by lambda2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .equilibria import hopf_curve_point
from .errors import DegenerateBT, NoCandidate
from .model import (ModelParams, _delta_entries, _frozen_jet, _h_entries, jet, linspace,
                    validate)

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
    nondegeneracy: dict = field(default_factory=dict)  # BT.1/BT.2/BT.3 -> bool
    _frozen: tuple = field(default=(), repr=False, compare=False)  # see _freeze


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
        f, ((fx, fy), (gx, gy)) = jet(replace(params, h=h, delta=delta), x, y)[:2]
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
        _frozen=_freeze(pbt, bt_point, basis, A0),
    )


def _freeze(pbt: ModelParams, pt: BTPoint, basis, A0: float) -> tuple:
    """Everything ``beta_map`` needs that does not depend on lambda:
    ``model._frozen_jet``'s h- and delta-terms at the BT point, the basis,
    and the products of the lambda-free jet entries with it, each written
    as the subexpression ``_project`` computes, so ``beta_map`` repeats
    ``_project`` bit for bit."""
    h_terms, delta_terms, (f_y, g_x, f_xy, g_xx, g_xy, g_yy), _ = _frozen_jet(pbt, pt.x, pt.y)
    (v0x, v0y), (v1x, v1y), (w0x, w0y), (w1x, w1y) = basis
    # f's Hessian is ((f_xx, f_xy), (f_xy, 0)) and only f_xx moves with lambda
    f_r0y, f_r1y = v0x * f_xy + v0y * 0.0, v1x * f_xy + v1y * 0.0
    # g's Hessian does not move at all
    r0x, r0y = v0x * g_xx + v0y * g_xy, v0x * g_xy + v0y * g_yy
    r1x, r1y = v1x * g_xx + v1y * g_xy, v1x * g_xy + v1y * g_yy
    g20, g11, g02 = r0x * v0x + r0y * v0y, r0x * v1x + r0y * v1y, r1x * v1x + r1y * v1y
    return (h_terms, delta_terms, pbt.h, pbt.delta, v0x, v0y, v1x, v1y, w0x, w0y, w1x, w1y,
            f_y * v0y, f_y * v1y, v0y * f_xy, v1y * f_xy,
            f_r0y * v0y, f_r0y * v1y, f_r1y * v1y, g_x * v0x, g_x * v1x,
            w0y * g20, w0y * g11, w0y * g02, w1y * g20, w1y * g11, w1y * g02,
            1e-14 * (1.0 + abs(A0)))


def _beta_row(nf: BTNormalForm, lambda1: float):
    """(beta1, beta2) at ``lambda1`` as a function of lambda2, memoized by
    lambda2: each lambda2 is evaluated once, by ``_beta_at``.

    The row evaluates once what depends on lambda1 alone: the h-dependent
    jet entries, their products with the basis, a20, a11, a02, b20, b11 and
    b02, and the chain's g20, g11, g02, a11 + b02, B^4 and B^2.  Each is
    the subexpression ``_project`` and the chain compute, so every beta
    equals the jet-based chain's bit for bit.
    """
    (h_terms, delta_terms, h, delta, v0x, v0y, v1x, v1y, w0x, w0y, w1x, w1y,
     fy_v0y, fy_v1y, fxy_v0y, fxy_v1y, f_r0y_v0y, f_r0y_v1y, f_r1y_v1y, gx_v0x, gx_v1x,
     w0y_g20, w0y_g11, w0y_g02, w1y_g20, w1y_g11, w1y_g02, a_tol) = nf._frozen
    f, f_x, f_xx = _h_entries(h_terms, h + lambda1)
    # _project's component sums: DF v0, DF v1 and v'H v of f
    f10, f01 = f_x * v0x + fy_v0y, f_x * v1x + fy_v1y
    r0x, r1x = v0x * f_xx + fxy_v0y, v1x * f_xx + fxy_v1y
    f20, f11, f02 = r0x * v0x + f_r0y_v0y, r0x * v1x + f_r0y_v1y, r1x * v1x + f_r1y_v1y
    a20, a11, a02 = w0x * f20 + w0y_g20, w0x * f11 + w0y_g11, w0x * f02 + w0y_g02
    b20, b11, b02 = w1x * f20 + w1y_g20, w1x * f11 + w1y_g11, w1x * f02 + w1y_g02
    g11 = a20 + b11
    if g11 == 0:
        raise DegenerateBT("g11(lambda) = 0 in the parameter shift", condition="BT.1")
    terms = (delta_terms, delta, v0y, v1y, w0y, w1y, gx_v0x, gx_v1x,
             w0x * f, w1x * f, w0x * f10, w1x * f10, w1x * f01,
             a11, a02, b11, a11 + b02, b20, 0.5 * b20, g11, b02 + 2.0 * a11,
             g11**4, g11**2, a_tol)
    memo = {}

    def beta(lambda2: float) -> tuple[float, float]:
        b = memo.get(lambda2)
        if b is None:
            b = memo[lambda2] = _beta_at(terms, lambda1, lambda2)
        return b

    return beta


def _beta_at(terms: tuple, lambda1: float, lambda2: float) -> tuple[float, float]:
    """The lambda2 stage of ``_beta_row``, from its ``terms``: the
    delta-dependent jet entries, g's DF v0 and DF v1, a00, a10, b00, b10
    and b01, then the rest of the coefficient chain (a01 does not enter it)
    and beta."""
    (delta_terms, delta, v0y, v1y, w0y, w1y, gx_v0x, gx_v1x,
     w0x_f, w1x_f, w0x_f10, w1x_f10, w1x_f01,
     a11, a02, b11, a11_b02, g20, half_g20, g11, g02, B4, B2, a_tol) = terms
    g, g_y = _delta_entries(delta_terms, delta + lambda2)
    g_v0, g_v1 = gx_v0x + g_y * v0y, gx_v1x + g_y * v1y
    a00, a10 = w0x_f + w0y * g, w0x_f10 + w0y * g_v0
    b00, b10, b01 = w1x_f + w1y * g, w1x_f10 + w1y * g_v0, w1x_f01 + w1y * g_v1
    # g00 = b00; h20, h11, h02 = g20, g11, g02
    g10 = b10 + a11 * b00 - b11 * a00
    g01 = b01 + a10 + a02 * b00 - a11_b02 * a00
    shift = -g01 / g11
    mu1 = b00 + g10 * shift + half_g20 * shift**2
    h10 = g10 + g20 * shift
    mu2 = h10 - 0.5 * mu1 * g02
    A = 0.5 * (g20 - h10 * g02)
    if -a_tol < A < a_tol:
        raise DegenerateBT(f"A(lambda) ~ 0 at lambda=({lambda1}, {lambda2})", condition="BT.2")
    return B4 / A**3 * mu1, B2 / A**2 * mu2


def beta_map(nf: BTNormalForm, lambda1: float, lambda2: float) -> tuple[float, float]:
    """(beta1, beta2) of the normal form at a small parameter offset: the
    row of ``lambda1`` evaluated at ``lambda2``.

    The coefficient chain is evaluated at the given offset with the
    first-order (lambda-linear) raw coefficients; the chain's own products
    are kept.  The coefficients equal ``_ab_coeffs``' bit for bit, from the
    terms ``_freeze`` keeps: only the lambda-dependent jet entries and
    their products with the basis are evaluated here.
    """
    return _beta_row(nf, lambda1)(lambda2)


_CURVE_DEFS = {
    "T": lambda b1, b2: 4.0 * b1 - b2 * b2,
    "H": lambda b1, b2: b1,
    "P": lambda b1, b2: b1 + (6.0 / 25.0) * b2 * b2,
}


def bifurcation_curves(nf: BTNormalForm, lambda_box, n: int = 50) -> CurveSet:
    """Sample the local T/H/P curves over the lambda box by bisection in
    lambda2 at each lambda1 sample.  H and P samples require beta2 < 0, up
    to rounding; unbracketable samples are dropped."""
    l1_min, l1_max, l2_min, l2_max = lambda_box
    # beta2 = 0 at lambda = 0 in theory, and comes out as rounding noise
    # there: a few ulps of the betas' size over the box
    b2_tol = 16.0 * math.ulp(max(abs(v) for row in nf.beta_jacobian for v in row)
                             * max(abs(v) for v in lambda_box))
    samples = {"T": [], "H": [], "P": []}
    betas = {"T": [], "H": [], "P": []}
    for l1 in linspace(l1_min, l1_max, n):
        beta = _beta_row(nf, l1)
        for name, fdef in _CURVE_DEFS.items():
            lo, hi = l2_min, l2_max
            flo, fhi = fdef(*beta(lo)), fdef(*beta(hi))
            if flo * fhi > 0:
                # scan for a bracket on a coarse grid
                grid = linspace(l2_min, l2_max, 64)
                vs = [fdef(*beta(g)) for g in grid]
                k = next((i for i in range(63) if vs[i] * vs[i + 1] <= 0), None)
                if k is None:
                    continue
                lo, hi, flo = grid[k], grid[k + 1], vs[k]
            # 80 halvings, cut short once one leaves (lo, hi, flo) as it was:
            # every later one would repeat it
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = fdef(*beta(mid))
                if flo * fm <= 0:
                    if mid == hi:
                        break
                    hi = mid
                else:
                    if mid == lo and fm == flo:
                        break
                    lo, flo = mid, fm
            l2 = 0.5 * (lo + hi)
            b = beta(l2)
            if name in ("H", "P") and b[1] >= b2_tol:
                continue
            samples[name].append((l1, l2))
            betas[name].append(b)
    return CurveSet(samples["T"], samples["H"], samples["P"], tuple(lambda_box), betas)
