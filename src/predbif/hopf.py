"""Hopf bifurcation analysis: critical delta on an interior branch,
transversality, and the cycle-stability coefficient with an independent
numeric cross-check.

The stability coefficient is computed twice: once from the transcribed
closed-form expression and once by transforming the vector field to an
exact-rotation linear part and evaluating the Guckenheimer-Holmes (3.4.2)
curvature coefficient by finite differences.  The numeric value is
authoritative for verdicts; disagreement beyond tolerance is surfaced as a
PrintedFormulaMismatch warning, never silently reconciled.  Note that the
two frames differ by a non-orthogonal scaling, so only the sign of the
coefficient is frame-invariant; magnitudes are reported per frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .equilibria import Equilibrium, interior_equilibria
from .errors import BranchLost, DomainError, NoHopf, NotAnEquilibrium
from .model import ModelParams, State, jacobian, rhs, taylor_jet
from . import sim

#: |trace| at a reported Hopf point must fall below this
TRACE_TOL = 1e-8

#: bisection width target for the critical delta; tight enough that even a
#: steep near-fold branch meets the 1e-8 trace residual requirement
DELTA_BISECT_TOL = 1e-13

#: relative printed-vs-numeric agreement expected for the coefficient
L_AGREE_TOL = 1e-4

#: branch continuation: max |x| jump between consecutive delta samples
BRANCH_JUMP_TOL = 0.1


@dataclass(frozen=True)
class HopfData:
    delta_H: float
    omega: float
    l: float  # printed closed form
    l_numeric: float  # finite-difference Guckenheimer-Holmes value
    transversality: float
    cycle_verdict: str  # StablePerFormula | RepellingPerFormula (sign of l, printed convention)
    empirical_verdict: str  # Attracting | Repelling | Inconclusive
    equilibrium: Equilibrium
    det: float


def frozen_trace(params: ModelParams, eq: Equilibrium, delta: float) -> float:
    """Trace of the linearization as a function of delta with the point
    frozen: alpha10(eq) - delta (beta01 reduces to -delta on the predator
    isocline)."""
    J = jacobian(params, State(eq.x, eq.y))
    return float(J[0, 0]) - delta


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
    """Central finite difference of frozen_trace over delta +/- step."""
    d = params.delta
    return (frozen_trace(params, eq, d + step) - frozen_trace(params, eq, d - step)) / (2.0 * step)


def _rotation_frame_field(params: ModelParams, eq: Equilibrium):
    """The vector field in coordinates whose linear part is the exact
    rotation [[0, -omega], [omega, 0]].

    With J q = i*omega*q, the basis Q = [Re q, -Im q] satisfies
    Q^-1 J Q = [[0, -omega], [omega, 0]]; offsets from the equilibrium are
    Q Y."""
    jet = taylor_jet(params, State(eq.x, eq.y))
    if jet.alpha01 == 0.0:
        raise DomainError("alpha01 = 0: coefficient frame is singular")
    det = float(np.linalg.det(jacobian(params, State(eq.x, eq.y))))
    if det <= 0:
        raise DomainError(f"determinant must be positive at a Hopf point, got {det}")
    omega = math.sqrt(det)
    # eigenvector for i*omega: q = (alpha01, i*omega - alpha10)
    Q = np.array([[jet.alpha01, 0.0], [-jet.alpha10, -omega]])
    Qinv = np.linalg.inv(Q)
    xc, yc = eq.x, eq.y

    def field(Y1: float, Y2: float) -> np.ndarray:
        u, v = Q @ (Y1, Y2)
        F = rhs(params, State(xc + u, yc + v))
        return Qinv @ F

    return field, omega, jet


def _gh_coefficient(field, omega: float, h: float = 1e-4) -> float:
    """Guckenheimer-Holmes (3.4.2) curvature coefficient of
    Y' = [[0,-w],[w,0]] Y + (f, g) by central finite differences at 0."""

    def f(y1, y2):
        return field(y1, y2)[0]

    def g(y1, y2):
        return field(y1, y2)[1]

    def d11(F):
        return (F(h, 0.0) - 2.0 * F(0.0, 0.0) + F(-h, 0.0)) / h**2

    def d22(F):
        return (F(0.0, h) - 2.0 * F(0.0, 0.0) + F(0.0, -h)) / h**2

    def d12(F):
        return (F(h, h) - F(h, -h) - F(-h, h) + F(-h, -h)) / (4.0 * h**2)

    def d111(F):
        return (F(2 * h, 0.0) - 2.0 * F(h, 0.0) + 2.0 * F(-h, 0.0) - F(-2 * h, 0.0)) / (2.0 * h**3)

    def d222(F):
        return (F(0.0, 2 * h) - 2.0 * F(0.0, h) + 2.0 * F(0.0, -h) - F(0.0, -2 * h)) / (2.0 * h**3)

    def d122(F):  # d/dY1 of d22
        a = (F(h, h) - 2.0 * F(h, 0.0) + F(h, -h)) / h**2
        b = (F(-h, h) - 2.0 * F(-h, 0.0) + F(-h, -h)) / h**2
        return (a - b) / (2.0 * h)

    def d112(F):  # d/dY2 of d11
        a = (F(h, h) - 2.0 * F(0.0, h) + F(-h, h)) / h**2
        b = (F(h, -h) - 2.0 * F(0.0, -h) + F(-h, -h)) / h**2
        return (a - b) / (2.0 * h)

    f11, f22, f12 = d11(f), d22(f), d12(f)
    g11, g22, g12 = d11(g), d22(g), d12(g)
    f111, f122 = d111(f), d122(f)
    g112, g222 = d112(g), d222(g)
    return (
        (f111 + f122 + g112 + g222) / 16.0
        + (f12 * (f11 + f22) - g12 * (g11 + g22) - f11 * g11 + f22 * g22) / (16.0 * omega)
    )


def lyapunov_coefficient_l(params: ModelParams, eq: Equilibrium) -> tuple[float, float]:
    """Cycle-stability coefficient at a Hopf point: (printed closed form,
    numeric finite-difference value).  Warns on disagreement beyond
    L_AGREE_TOL relative; callers should treat the numeric value as
    authoritative."""
    field, omega, jet = _rotation_frame_field(params, eq)
    delta = params.delta
    a01 = jet.alpha01
    a20, a11, a30, a21 = jet.alpha20, jet.alpha11, jet.alpha30, jet.alpha21
    b20, b11, b02 = jet.beta20, jet.beta11, jet.beta02
    b30, b21, b12 = jet.beta30, jet.beta21, jet.beta12

    l_printed = (
        a21 * omega / (8.0 * a01)
        + b12 * omega**2 / (8.0 * a01**2)
        - 3.0 * b21 * delta / (8.0 * a01)
        + 3.0 * b12 * delta**2 / (8.0 * a01**2)
        + 3.0 * b30 / 8.0
        + (1.0 / (16.0 * omega))
        * (
            (a11 * omega / a01) * (2.0 * a20 - 2.0 * a11 * delta / a01)
            - (b11 * omega / a01 - 2.0 * b02 * delta * omega / a01**2)
            * (
                2.0 * b02 * omega**2 / a01**2
                - 2.0 * b11 * delta / a01
                + 2.0 * b20
                + 2.0 * b02 * delta**2 / a01**2
            )
        )
        + (1.0 / (16.0 * omega))
        * (
            (2.0 * a20 - 2.0 * a11 * delta / a01)
            * (-2.0 * b11 * delta / a01 + 2.0 * b20 + 2.0 * b02 * delta**2 / a01**2)
        )
    )
    l_numeric = _gh_coefficient(field, omega)
    if abs(l_printed - l_numeric) > L_AGREE_TOL * (1.0 + abs(l_numeric)):
        from .errors import PrintedFormulaMismatch

        warnings.warn(
            f"transcribed stability coefficient {l_printed:.10g} disagrees "
            f"with the rotation-frame normal-form value {l_numeric:.10g} "
            f"(the frames differ by a non-orthogonal change of basis, so "
            f"only stability verdicts are comparable); the numeric value is "
            f"authoritative for the standard-convention verdict",
            PrintedFormulaMismatch,
            stacklevel=2,
        )
    return l_printed, l_numeric


def _empirical_verdict(params: ModelParams, eq: Equilibrium, omega: float) -> str:
    """Return-map radius ratio over one revolution, checked at two seed
    radii; Attracting/Repelling only when the two seeds agree."""
    period = 2.0 * math.pi / omega
    signs = []
    for r0 in (1e-3, 5e-4):
        traj = sim.integrate(
            params, State(eq.x + r0, eq.y), 1.6 * period, tol=1e-12, on_failure="keep"
        )
        crossings = sim._section_crossings(traj, eq.x, eq.y)
        if not crossings:
            return "Inconclusive"
        r1 = crossings[0][1]
        drift = r1 / r0 - 1.0
        if abs(drift) < 1e-9:
            return "Inconclusive"
        signs.append(drift > 0)
    if signs[0] != signs[1]:
        return "Inconclusive"
    return "Repelling" if signs[0] else "Attracting"


def _branch_step(params: ModelParams, delta: float, x_prev: float) -> Equilibrium | None:
    """Interior equilibrium at ``delta`` nearest to x_prev, or None when the
    branch cannot be continued."""
    eqs = interior_equilibria(params.with_(delta=delta))
    if not eqs:
        return None
    best = min(eqs, key=lambda e: abs(e.x - x_prev))
    if abs(best.x - x_prev) > BRANCH_JUMP_TOL:
        return None
    return best


def _hopf_data(params: ModelParams, delta_H: float, eq: Equilibrium) -> HopfData:
    p = params.with_(delta=delta_H)
    J = jacobian(p, State(eq.x, eq.y))
    det = float(np.linalg.det(J))
    if det <= 0:
        raise NoHopf(f"determinant {det:.3e} <= 0 at delta={delta_H}: fold/BT, not Hopf")
    omega = math.sqrt(det)
    l_printed, l_numeric = lyapunov_coefficient_l(p, eq)
    # printed-formula sign under its own convention (stable iff l > 0)
    verdict = "StablePerFormula" if l_printed > 0 else "RepellingPerFormula"
    empirical = _empirical_verdict(p, eq, omega)
    return HopfData(
        delta_H=delta_H,
        omega=omega,
        l=l_printed,
        l_numeric=l_numeric,
        transversality=transversality(p, eq),
        cycle_verdict=verdict,
        empirical_verdict=empirical,
        equilibrium=eq,
        det=det,
    )


def hopf_scan(params: ModelParams, delta_interval: tuple[float, float],
              n_samples: int = 200, eq_branch: int = 0) -> list[HopfData]:
    """Bracket and bisect every trace sign change of one interior branch.

    The branch is the ``eq_branch``-th interior equilibrium (sorted by x) at
    the left end of the interval and is continued by nearest-x matching.
    Raises BranchLost with the offending subinterval when continuation
    fails.
    """
    lo, hi = delta_interval
    if not (0 < lo < hi):
        raise DomainError(f"delta_interval must satisfy 0 < lo < hi, got {delta_interval}")
    deltas = np.linspace(lo, hi, n_samples)
    eqs0 = interior_equilibria(params.with_(delta=deltas[0]))
    if eq_branch >= len(eqs0):
        raise NoHopf(
            f"no interior branch index {eq_branch} at delta={deltas[0]} "
            f"({len(eqs0)} branches present)"
        )
    branch = [eqs0[eq_branch]]
    traces = [float(np.trace(jacobian(params.with_(delta=deltas[0]),
                                      State(branch[0].x, branch[0].y))))]
    for i in range(1, n_samples):
        eq = _branch_step(params, deltas[i], branch[-1].x)
        if eq is None:
            raise BranchLost(
                f"interior branch lost in delta-subinterval "
                f"({deltas[i - 1]:.10g}, {deltas[i]:.10g})",
                interval=(float(deltas[i - 1]), float(deltas[i])),
            )
        branch.append(eq)
        traces.append(float(np.trace(jacobian(params.with_(delta=deltas[i]),
                                              State(eq.x, eq.y)))))
    out = []
    for i in range(n_samples - 1):
        if traces[i] == 0.0:
            out.append(_hopf_data(params, float(deltas[i]), branch[i]))
            continue
        if traces[i] * traces[i + 1] >= 0:
            continue
        dlo, dhi = float(deltas[i]), float(deltas[i + 1])
        tlo = traces[i]
        xl = branch[i].x
        eq_mid = branch[i]
        while dhi - dlo > DELTA_BISECT_TOL:
            mid = 0.5 * (dlo + dhi)
            eq_mid = _branch_step(params, mid, xl)
            if eq_mid is None:
                raise BranchLost(
                    f"interior branch lost during bisection near delta={mid:.10g}",
                    interval=(dlo, dhi),
                )
            tm = float(np.trace(jacobian(params.with_(delta=mid),
                                         State(eq_mid.x, eq_mid.y))))
            if tlo * tm <= 0:
                dhi = mid
            else:
                dlo, tlo = mid, tm
            xl = eq_mid.x
        delta_H = 0.5 * (dlo + dhi)
        eq_H = _branch_step(params, delta_H, xl)
        if eq_H is None:
            raise BranchLost(
                f"interior branch lost at the bisection limit near delta={delta_H:.10g}",
                interval=(dlo, dhi),
            )
        try:
            out.append(_hopf_data(params, delta_H, eq_H))
        except NoHopf:
            # trace crosses zero with det <= 0: not a Hopf point
            continue
    return out


def hopf_delta(params: ModelParams, eq_branch: int = 0,
               delta_interval: tuple[float, float] = (1e-3, 1.0),
               n_samples: int = 200) -> HopfData:
    """First self-consistent Hopf point of the chosen interior branch."""
    found = hopf_scan(params, delta_interval, n_samples, eq_branch)
    if not found:
        raise NoHopf(
            f"no trace sign change with positive determinant on branch "
            f"{eq_branch} over delta in {delta_interval}"
        )
    return found[0]
