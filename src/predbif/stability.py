"""Stability classification: generic planar linearization plus the printed
degenerate-case taxonomy for the trivial equilibria.

Degenerate labels come from evaluating closed-form sign conditions; no
center-manifold reduction is re-run here.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DomainError
from .equilibria import Equilibrium
from .model import ModelParams, jacobian

#: |eigenvalue| < ZERO_EIG_TOL * (1 + ||J||) routes to the degenerate branches.
ZERO_EIG_TOL = 1e-8


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: tuple[complex, complex]
    trace: float
    det: float
    label: str
    sector: str | None = None  # for SaddleNode: "Right" | "Left"
    theorem_branch: str = ""


def _spectrum(J) -> tuple[tuple[complex, complex], float, float]:
    """(eigenvalues, trace, determinant) of J = ((a, b), (c, d)): the exact
    diagonal (a, d) when J is triangular, else tr/2 + r and tr/2 - r with
    r = sqrt(tr^2/4 - det), the positive root or imaginary part first."""
    (a, b), (c, d) = J
    tr, det = a + d, a * d - b * c
    if b == 0.0 or c == 0.0:
        return (complex(a), complex(d)), tr, det
    r = cmath.sqrt(0.25 * tr * tr - det)
    return (0.5 * tr + r, 0.5 * tr - r), tr, det


def _report(spectrum: tuple, label: str, branch: str,
            sector: str | None = None) -> StabilityReport:
    return StabilityReport(*spectrum, label, sector, branch)


def classify_generic(params: ModelParams, eq: Equilibrium) -> StabilityReport:
    """Hyperbolic classification from trace/det; dispatches degenerate cases
    of the trivial equilibria to the theorem-specific routines."""
    # DF through ``jacobian``, which wraps ``model.field``'s DF in an ndarray,
    # rather than from ``field`` itself: perfbench --trace 1 reports jacobian's
    # per-call cost and stops when a workload never calls it.  The first call
    # here loads numpy (the only load in the ``stability`` and ``sweep`` commands)
    J = jacobian(params, eq.state).tolist()
    spectrum = _spectrum(J)
    eig, tr, det = spectrum
    scale = 1.0 + max(map(abs, J[0] + J[1]))
    n_zero = sum(abs(ev) < ZERO_EIG_TOL * scale for ev in eig)
    if n_zero == 2:
        return _report(spectrum, "DoubleZero", "generic/double-zero")
    if n_zero == 1:
        if eq.kind == "Origin":
            return classify_origin(params)
        if eq.kind == "PreyExtinction":
            return classify_prey_extinction(params)
        return _report(spectrum, "NonHyperbolic-other", "generic/one-zero-eigenvalue")
    disc = tr * tr - 4.0 * det
    if det < 0:
        label = "Saddle"
    elif abs(tr) < ZERO_EIG_TOL * scale:
        label = "Center-candidate"
    elif disc >= 0:
        label = "StableNode" if tr < 0 else "UnstableNode"
    else:
        label = "StableSpiral" if tr < 0 else "UnstableSpiral"
    return _report(spectrum, label, "generic/trace-det")


def classify_origin(params: ModelParams) -> StabilityReport:
    """Trivial equilibrium (0,0): node/saddle by sign(c-h), saddle node on
    the diagonal h=c (parabolic sector right iff c<1), degenerate saddle at
    h=c=1."""
    c, h = params.c, params.h
    J = ((1.0 - h / c, 0.0), (0.0, params.delta))
    if abs(c - h) > ZERO_EIG_TOL * max(c, h, 1.0):
        if c > h:
            return _report(_spectrum(J), "UnstableNode", "origin/c>h")
        return _report(_spectrum(J), "Saddle", "origin/c<h")
    if abs(c - 1.0) > ZERO_EIG_TOL:
        sector = "Right" if c < 1.0 else "Left"
        return _report(_spectrum(J), "SaddleNode", "origin/h=c", sector)
    return _report(_spectrum(J), "DegenerateSaddle", "origin/h=c=1")


def classify_prey_extinction(params: ModelParams) -> StabilityReport:
    """Prey-extinction equilibrium (0, delta*m/eta), m > 0 required."""
    if params.m <= 0:
        raise DomainError("prey-extinction equilibrium requires m > 0")
    c, h = params.c, params.h
    delta, eta, m, b = params.delta, params.eta, params.m, params.b
    J = ((1.0 - h / c, 0.0), (delta**2 / eta, -delta))
    if abs(c - h) > ZERO_EIG_TOL * max(c, h, 1.0):
        if c < h:
            return _report(_spectrum(J), "StableNode", "prey-extinction/c<h")
        return _report(_spectrum(J), "Saddle", "prey-extinction/c>h")
    q1 = c * delta * m + c * eta - eta
    if abs(q1) > ZERO_EIG_TOL:
        sector = "Right" if q1 > 0 else "Left"
        return _report(_spectrum(J), "SaddleNode", "prey-extinction/h=c", sector)
    q2 = b * delta * eta * m - delta**2 * m**2 - 2.0 * delta * eta * m - delta * eta - eta**2
    if q2 < 0:
        return _report(_spectrum(J), "UnstableNode", "prey-extinction/h=c,cubic")
    return _report(_spectrum(J), "Saddle", "prey-extinction/h=c,cubic")
