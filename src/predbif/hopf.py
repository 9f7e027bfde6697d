"""Hopf bifurcation analysis: critical delta on an interior branch,
transversality, and the first Lyapunov coefficient.

``l1`` is the first Lyapunov coefficient (Kuznetsov, *Elements of Applied
Bifurcation Theory*, section 3.5, eq. 3.20), computed from ``model.jet``
at the Hopf point with A = DF, B = D2F and C = D3F as multilinear forms:

    l1 = Re[<p, C(q,q,qbar)> - 2<p, B(q, A^-1 B(q,qbar))>
            + <p, B(qbar, (2 i omega - A)^-1 B(q,q))>] / (2 omega),

where A q = i omega q, A^T p = -i omega p, <u, v> = conj(u) . v and the
eigenvectors are normalized by <q, q> = 1 and <p, q> = 1.  l1 > 0 means
the cycle born at the Hopf point repels, l1 < 0 that it attracts; the
reported ``cycle_verdict`` is that sign.  The paper's printed closed form
``l`` (its own frame, stable iff l > 0) and the finite-difference
stencil (Guckenheimer-Holmes 3.4.2 in a rotation frame) live in
``tests/test_hopf.py`` only, as a transcription and as the oracle for l1.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .equilibria import (Equilibrium, _CurvePoint, _on_curve, _zero_on_curve,
                         interior_equilibria, predator_free_x)
from .errors import BranchLost, DomainError, NoHopf
from .model import ModelParams, State, field, jet, jet2, rhs, solve2

#: |trace| at a reported Hopf point must fall below this
TRACE_TOL = 1e-8


class HopfData(NamedTuple):
    delta_H: float
    omega: float
    l1: float  # first Lyapunov coefficient, <q, q> = 1; > 0: the cycle repels
    transversality: float  # frozen point: identically -1
    transversality_branch: float  # d(trace)/d(delta) along the branch
    cycle_verdict: str  # Repelling (l1 > 0) | Attracting
    equilibrium: Equilibrium
    det: float


def transversality(params: ModelParams, eq: Equilibrium) -> float:
    """d(trace)/d(delta) at the frozen point; identically -1.

    Warns when ``eq`` is not actually an equilibrium (the formula path still
    applies, but the quantity is then not a bifurcation condition).
    """
    f = rhs(params, State(eq.x, eq.y))
    if max(abs(f[0]), abs(f[1])) >= 1e-8:
        warnings.warn(
            "transversality evaluated at a non-equilibrium point; formula "
            "path only (not a bifurcation condition here)",
            stacklevel=2,
        )
    return -1.0


def transversality_fd(params: ModelParams, eq: Equilibrium, step: float = 1e-6) -> float:
    """Central finite difference over delta +/- step of the trace with the
    point frozen, alpha10(eq) - delta (beta01 reduces to -delta on the
    predator isocline)."""
    alpha10 = field(params, eq.x, eq.y)[1][0][0]
    d = params.delta
    return ((alpha10 - (d + step)) - (alpha10 - (d - step))) / (2.0 * step)


def _form(T, *vectors):
    """The multilinear form of a jet tensor T (indexed [component][d/dx or
    d/dy]...) applied to the given vectors, one value per component."""

    def apply(t, vs):
        if not vs:
            return t
        return apply(t[0], vs[1:]) * vs[0][0] + apply(t[1], vs[1:]) * vs[0][1]

    return apply(T[0], vectors), apply(T[1], vectors)


def _dot(u, v) -> complex:
    """<u, v> = conj(u) . v"""
    return u[0].conjugate() * v[0] + u[1].conjugate() * v[1]


def lyapunov_coefficient_l(params: ModelParams, eq: Equilibrium) -> float:
    """First Lyapunov coefficient l1 at a Hopf point; l1 > 0: the cycle
    repels."""
    _, ((a, b), (c, d)), D2F, D3F, _, _ = jet(params, eq.x, eq.y)
    det = a * d - b * c
    if det <= 0:
        raise DomainError(f"determinant must be positive at a Hopf point, got {det}")
    omega = math.sqrt(det)

    # A q = i omega q with <q, q> = 1; A^T p = -i omega p with <p, q> = 1
    norm = math.sqrt(b * b + a * a + det)
    q = (b / norm, complex(-a, omega) / norm)
    qbar = (q[0], q[1].conjugate())
    p = (c, complex(-a, -omega))
    pq = _dot(p, q).conjugate()
    p = (p[0] / pq, p[1] / pq)
    r1 = solve2(a, b, c, d, _form(D2F, q, qbar))
    r2 = solve2(complex(-a, 2.0 * omega), -b, -c, complex(-d, 2.0 * omega), _form(D2F, q, q))
    return (_dot(p, _form(D3F, q, q, qbar)) - 2.0 * _dot(p, _form(D2F, q, r1))
            + _dot(p, _form(D2F, qbar, r2))).real / (2.0 * omega)


def _hopf_data(params: ModelParams, pt: _CurvePoint) -> HopfData:
    p = params.with_(delta=pt.delta)
    eq = Equilibrium(pt.x, pt.y, "Interior")
    omega = math.sqrt(pt.det)
    # along the curve y' = -f_x/f_y and delta' = det/(f_y y), and the trace
    # f_x - delta changes at f_xx + f_xy y' - delta'; per unit of delta that
    # is the frozen -1 plus (f_xx + f_xy y') / delta'
    _, ((fx, fy), _), D2F = jet2(params, pt.x, pt.y, ddelta=pt.delta - params.delta)
    fxx, fxy = D2F[0][0]
    speed = (fxx - fxy * fx / fy) * fy * pt.y / pt.det - 1.0
    l1 = lyapunov_coefficient_l(p, eq)
    return HopfData(
        delta_H=pt.delta,
        omega=omega,
        l1=l1,
        transversality=transversality(p, eq),
        transversality_branch=speed,
        cycle_verdict="Repelling" if l1 > 0 else "Attracting",
        equilibrium=eq,
        det=pt.det,
    )


def hopf_scan(params: ModelParams, delta_interval: tuple[float, float],
              n_samples: int = 200, eq_branch: int = 0) -> list[HopfData]:
    """Every Hopf point of one interior branch over the delta interval.

    The interior equilibria lie on the curve y = isocline_y(x), delta =
    eta*y/(m + x), where d(delta)/dx = det/(f_y*y) and f_y < 0 < y: folds
    (det = 0) are regular points in x.  The branch, the ``eq_branch``-th
    interior equilibrium (by x) at the left end, is sampled in x up to its
    abscissa at the right end, and every trace sign change with det > 0 is
    bisected in x.  Raises BranchLost when the branch folds inside the
    interval (its interval holds the fold's delta) or leaves the interior.
    """
    lo, hi = delta_interval
    if not (0 < lo < hi):
        raise DomainError(f"delta_interval must satisfy 0 < lo < hi, got {delta_interval}")
    if n_samples < 2 or eq_branch < 0:
        raise DomainError(f"need n_samples >= 2 and eq_branch >= 0, got {n_samples}, {eq_branch}")
    eqs0 = interior_equilibria(params.with_(delta=lo))
    if eq_branch >= len(eqs0):
        raise NoHopf(f"no interior branch index {eq_branch} at delta={lo} "
                     f"({len(eqs0)} branches present)")
    start = _on_curve(params, eqs0[eq_branch].x)
    toward = -1.0 if start.det > 0 else 1.0  # the sign of dx where delta grows
    ends = [e.x for e in interior_equilibria(params.with_(delta=hi))
            if (e.x - start.x) * toward > 0]
    if ends:
        x_end, steps = min(ends, key=lambda x: abs(x - start.x)), n_samples - 1
    else:
        # no abscissa at delta_max: sample toward where y or x reaches 0,
        # short of that end
        x_end = predator_free_x(params, "plus" if toward > 0 else "minus") or 0.0
        steps = n_samples
    curve = [start] + [_on_curve(params, start.x + (x_end - start.x) * k / steps)
                       for k in range(1, n_samples)]
    for before, pt in zip(curve, curve[1:]):
        if pt.det * start.det <= 0:
            fold = _zero_on_curve(params, before, pt, lambda q: q.det)
            raise BranchLost(
                f"interior branch folds at delta={fold.delta:.10g} (x={fold.x:.10g})",
                interval=(max(lo, before.delta), min(hi, fold.delta)),
            )
    if not ends:
        raise BranchLost(f"interior branch leaves the interior before delta={hi}",
                         interval=(max(pt.delta for pt in curve), hi))
    out = []
    for left, right in zip(curve, curve[1:]):
        if left.trace == 0.0 or left.trace * right.trace < 0:
            pt = _zero_on_curve(params, left, right, lambda q: q.trace)
            if pt.det > 0:
                out.append(_hopf_data(params, pt))
    return out
