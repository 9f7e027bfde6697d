"""Stability classification: generic planar linearization plus the printed
degenerate-case taxonomy for the trivial equilibria.

Degenerate labels come from evaluating closed-form sign conditions; no
center-manifold reduction is re-run here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPresent
from .equilibria import Equilibrium, predator_free_x
from .model import ModelParams, State, jacobian

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
    sign_quantity: float | None = None

    @property
    def is_stable(self) -> bool:
        return self.label in ("StableNode", "StableSpiral")


def _spectrum(J: np.ndarray) -> tuple[tuple[complex, complex], float, float]:
    """(eigenvalues, trace, determinant) of a 2x2 linearization."""
    eig = np.linalg.eigvals(J)
    return (complex(eig[0]), complex(eig[1])), float(np.trace(J)), float(np.linalg.det(J))


def _report(spectrum: tuple, label: str, branch: str, sector: str | None = None,
            sign_quantity: float | None = None) -> StabilityReport:
    return StabilityReport(*spectrum, label, sector, branch, sign_quantity)


def classify_generic(params: ModelParams, eq: Equilibrium) -> StabilityReport:
    """Hyperbolic classification from trace/det; dispatches degenerate cases
    of the trivial equilibria to the theorem-specific routines."""
    J = jacobian(params, State(eq.x, eq.y))
    spectrum = _spectrum(J)
    eig, tr, det = spectrum
    scale = 1.0 + float(np.abs(J).max())
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
    J = np.array([[1.0 - h / c, 0.0], [0.0, params.delta]])
    if abs(c - h) > ZERO_EIG_TOL * max(c, h, 1.0):
        if c > h:
            return _report(_spectrum(J), "UnstableNode", "origin/c>h")
        return _report(_spectrum(J), "Saddle", "origin/c<h")
    if abs(c - 1.0) > ZERO_EIG_TOL:
        sector = "Right" if c < 1.0 else "Left"
        return _report(_spectrum(J), "SaddleNode", "origin/h=c", sector, sign_quantity=1.0 - c)
    return _report(_spectrum(J), "DegenerateSaddle", "origin/h=c=1")


def classify_prey_extinction(params: ModelParams) -> StabilityReport:
    """Prey-extinction equilibrium (0, delta*m/eta), m > 0 required."""
    if params.m <= 0:
        raise DomainError("prey-extinction equilibrium requires m > 0")
    c, h = params.c, params.h
    delta, eta, m, b = params.delta, params.eta, params.m, params.b
    J = np.array([[1.0 - h / c, 0.0], [delta**2 / eta, -delta]])
    if abs(c - h) > ZERO_EIG_TOL * max(c, h, 1.0):
        if c < h:
            return _report(_spectrum(J), "StableNode", "prey-extinction/c<h")
        return _report(_spectrum(J), "Saddle", "prey-extinction/c>h")
    q1 = c * delta * m + c * eta - eta
    if abs(q1) > ZERO_EIG_TOL:
        sector = "Right" if q1 > 0 else "Left"
        return _report(_spectrum(J), "SaddleNode", "prey-extinction/h=c", sector, sign_quantity=q1)
    q2 = b * delta * eta * m - delta**2 * m**2 - 2.0 * delta * eta * m - delta * eta - eta**2
    if q2 < 0:
        return _report(_spectrum(J), "UnstableNode", "prey-extinction/h=c,cubic", sign_quantity=q2)
    return _report(_spectrum(J), "Saddle", "prey-extinction/h=c,cubic", sign_quantity=q2)


def classify_predator_free(params: ModelParams, which: str) -> StabilityReport:
    """Predator-free equilibrium E+ / E- (always unstable: one eigenvalue is
    delta > 0)."""
    x = predator_free_x(params, which)
    if x is None:
        raise NotPresent(f"E{'+' if which == 'plus' else '-'} does not exist for these parameters")
    c, h = params.c, params.h
    lam2 = 1.0 - 2.0 * x - h * c / (c + x) ** 2
    p = params.a * x * x + params.b * x + 1.0
    J = np.array([[lam2, -x * x / p], [0.0, params.delta]])
    if abs(lam2) < ZERO_EIG_TOL * (1.0 + abs(lam2)):
        return _report(_spectrum(J), "NonHyperbolic-other",
                       f"predator-free/{which}/zero-eigenvalue")
    label = "Saddle" if lam2 < 0 else "UnstableNode"
    return _report(_spectrum(J), label, f"predator-free/{which}")
