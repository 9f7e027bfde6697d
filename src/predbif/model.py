"""Scaled predator-prey system with Holling-III predation, Michaelis-Menten
prey harvesting and a modified Leslie-Gower predator term.

The scaled system in state (x, y) is

    x' = x(1 - x) - x^2 y / (a x^2 + b x + 1) - h x / (c + x)
    y' = y (delta - eta y / (m + x))

All operations here are pure functions of their inputs.  ``jet`` is the one
place that writes out the derivatives of the field; ``jacobian`` returns its
first derivatives as a numpy array, and imports numpy only when called, so
loading this module (and ``predbif.cli``) does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, ParameterOutOfRange

EQUILIBRIUM_TOL = 1e-8


@dataclass(frozen=True)
class ModelParams:
    """The seven scaled parameters. ``b`` may be negative but must keep the
    Holling denominator positive for all x >= 0, i.e. b > -2*sqrt(a)."""

    a: float
    b: float
    c: float
    h: float
    delta: float
    eta: float
    m: float

    def with_(self, **kw) -> "ModelParams":
        return validate(replace(self, **kw))


@dataclass(frozen=True)
class State:
    x: float
    y: float


def validate(params: ModelParams) -> ModelParams:
    """Return ``params`` unchanged iff every admissibility constraint holds.

    Raises ParameterOutOfRange naming the violated constraint.
    """
    p = params
    for name in ("a", "c", "h", "delta", "eta", "m"):
        v = getattr(p, name)
        if not (math.isfinite(v) and v > 0):
            raise ParameterOutOfRange(f"{name} must be strictly positive, got {v}")
    if not (math.isfinite(p.b)):
        raise ParameterOutOfRange(f"b must be finite, got {p.b}")
    if p.b <= -2.0 * math.sqrt(p.a):
        raise ParameterOutOfRange(
            f"b <= -2*sqrt(a): b={p.b}, -2*sqrt(a)={-2.0 * math.sqrt(p.a)}"
        )
    return p


def holling_denominator(params: ModelParams, x: float) -> float:
    return params.a * x * x + params.b * x + 1.0


def _check_domain(params: ModelParams, x: float, y: float) -> float:
    """The Holling denominator at x, after checking that (x, y) is admissible."""
    if x < 0:
        raise DomainError(f"x must be nonnegative, got {x}")
    if params.m == 0.0 and x == 0.0:
        raise DomainError("m = 0 with x = 0: predator equation is singular")
    p = holling_denominator(params, x)
    if p <= 0:
        raise DomainError(f"a*x^2 + b*x + 1 <= 0 at x={x}")
    return p


def rhs(params: ModelParams, state: State) -> tuple[float, float]:
    """Right-hand side (dx/dt, dy/dt) of the scaled system."""
    x, y = state.x, state.y
    p = _check_domain(params, x, y)
    dx = x * (1.0 - x) - x * x * y / p - params.h * x / (params.c + x)
    dy = y * (params.delta - params.eta * y / (params.m + x))
    return dx, dy


def jacobian(params: ModelParams, state: State) -> np.ndarray:
    """Exact Jacobian of ``rhs`` at an admissible state: ``jet``'s DF."""
    import numpy as np

    return np.array(jet(params, state.x, state.y)[1])


def jet(params: ModelParams, x: float, y: float, dh: float = 0.0, ddelta: float = 0.0):
    """Derivatives of the field at an admissible (x, y), for h + dh and
    delta + ddelta, as nested tuples of floats indexed [component][d/dx or
    d/dy]...: ``(F, DF, D2F, D3F, by_h, by_delta)``, where ``by_h`` and
    ``by_delta`` are the exact partials of (F, DF, D2F), the field being
    affine in h and delta.  F keeps the floating-point form of ``rhs``, so
    the two agree bit for bit."""
    a, b, c = params.a, params.b, params.c
    eta, m = params.eta, params.m
    h = params.h + dh
    delta = params.delta + ddelta
    p = _check_domain(params, x, y)
    axx = a * x * x
    cx, mx = c + x, m + x
    p2, p3 = p**2, p**3
    cx2, cx3 = cx**2, cx**3
    mx2, mx3 = mx**2, mx**3
    bx2 = b * x + 2.0
    hc = h * c
    ey = eta * y
    # the Holling term is y*phi(x) with phi = x^2/p; poly = -p^3 phi''/2
    poly = a * b * x**3 + 3.0 * a * x**2 - 1.0
    f_xy = -x * bx2 / p2
    f_xxy = 2.0 * poly / p3
    g_xx = -2.0 * ey * y / mx3
    g_xy = 2.0 * ey / mx2
    g_yy = -2.0 * eta / mx
    g_xxy = -2.0 * g_xy / mx
    g_xyy = -g_yy / mx
    f_xy_ = (f_xxy, 0.0)  # d/dx and d/dy of f_xy
    g_xy_ = (g_xxy, g_xyy)
    return (
        (x * (1.0 - x) - x * x * y / p - h * x / cx, y * (delta - eta * y / mx)),
        ((1.0 - 2.0 * x - x * y * bx2 / p2 - hc / cx2, -x * x / p),
         (ey * y / mx2, delta - 2.0 * ey / mx)),
        (((-2.0 + 2.0 * y * poly / p3 + 2.0 * hc / cx3, f_xy), (f_xy, 0.0)),
         ((g_xx, g_xy), (g_xy, g_yy))),
        ((((-6.0 * y * (axx - 1.0) * (b * axx + 4.0 * a * x + b) / (p2 * p2)
            - 6.0 * hc / (cx2 * cx2), f_xxy), f_xy_), (f_xy_, (0.0, 0.0))),
         (((-3.0 * g_xx / mx, g_xxy), g_xy_), (g_xy_, (g_xyy, 0.0)))),
        ((-x / cx, 0.0), ((-c / cx2, 0.0), (0.0, 0.0)),
         (((2.0 * c / cx3, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)))),
        ((0.0, y), ((0.0, 0.0), (0.0, 1.0)),
         (((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)))),
    )


def solve2(m00, m01, m10, m11, r):
    """M^-1 r for the 2x2 matrix M = [[m00, m01], [m10, m11]] by Cramer's
    rule, on floats or complex numbers; ZeroDivisionError if M is singular."""
    det = m00 * m11 - m01 * m10
    return (m11 * r[0] - m01 * r[1]) / det, (m00 * r[1] - m10 * r[0]) / det


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n)`` as a list of floats, bit for bit."""
    if n < 2:
        return [0.0 * (hi - lo) + lo] * n
    step = (hi - lo) / (n - 1)
    return [k * step + lo for k in range(n - 1)] + [hi]
