"""Closed-form cubic (Cardano) and quartic (Ferrari) solvers.

The solvers follow the classical depressed-form constructions; every root is
Newton-polished against the original polynomial before being returned.  Tests
cross-check the closed forms against a companion-matrix eigenvalue oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateResolvent

#: |Im| below this (relative) threshold classifies a root as real.
REAL_TOL = 1e-9

#: |Q2| below this routes the quartic to the biquadratic fallback.
DEGENERATE_Q2_TOL = 1e-12

#: Newton polish never moves an iterate farther than this from its start.
MAX_MOVE = 1e-3


@dataclass
class CubicResolution:
    """Discriminant and roots of a monic cubic x^3+Ax^2+Bx+C."""

    Delta: float
    real_roots: list[float]
    complex_pair: tuple[complex, complex] | None

    @property
    def roots(self) -> list[complex]:
        out: list[complex] = [complex(r) for r in self.real_roots]
        if self.complex_pair is not None:
            out.extend(self.complex_pair)
        return out


@dataclass
class FerrariDecomposition:
    """The four roots of a monic quartic and the path that found them."""

    roots: list[complex]
    biquadratic: bool
    real_roots: list[float]


def _real_cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _classify_real(z: complex) -> bool:
    return abs(z.imag) < REAL_TOL * (1.0 + abs(z.real))


def polish_root(coeffs: list[float], x0: complex) -> complex:
    """Newton-polish a root of the monic polynomial with the given
    coefficients ([A, B, C, ...] for x^n + A x^(n-1) + ...).

    The iterate is never allowed to move more than ``MAX_MOVE`` from ``x0``;
    when no iterate meets the residual target within 50 iterations, ``x0``
    itself is returned.  A real start (a float, or a complex with imaginary
    part 0.0) iterates on floats: with zero imaginary parts, complex +, *, /
    and abs round exactly like the float operations, so only the speed
    differs, and the polished root carries imaginary part +0.0.
    """
    mono = [1.0] + list(coeffs)
    n = len(mono) - 1
    scale = max(1.0, abs(x0)) ** n
    x = x0.real if x0.imag == 0.0 else complex(x0)
    for _ in range(50):
        pv = mono[0]
        dv = 0.0
        for ck in mono[1:]:
            dv = dv * x + pv
            pv = pv * x + ck
        if abs(pv) < 1e-12 * scale:
            return complex(x)
        if dv == 0:
            break
        step = pv / dv
        if abs(x + (-step) - x0) > MAX_MOVE:
            break
        x = x - step
    # accept best achievable if already close to a root
    pv = mono[0]
    for ck in mono[1:]:
        pv = pv * x + ck
    return complex(x) if abs(pv) < 1e-8 * scale else x0


def solve_cubic_cardano(A: float, B: float, C: float) -> CubicResolution:
    """Solve the monic cubic x^3 + A x^2 + B x + C = 0 in closed form.

    Delta > 0: one real root; Delta = 0: repeated real roots; Delta < 0:
    three distinct reals via the trigonometric branch.
    """
    P = B - A * A / 3.0
    Q = 2.0 * A**3 / 27.0 - A * B / 3.0 + C
    Delta = (Q / 2.0) ** 2 + (P / 3.0) ** 3
    shift = A / 3.0
    coeffs = [A, B, C]

    if Delta > 0:
        sq = math.sqrt(Delta)
        t = _real_cbrt(-Q / 2.0 + sq) + _real_cbrt(-Q / 2.0 - sq)
        x1 = polish_root(coeffs, t - shift)
        # remaining conjugate pair from the deflated quadratic
        # x^2 + (A + x1) x + (B + (A + x1) x1)
        p1 = A + x1.real
        q1 = B + p1 * x1.real
        disc = complex(p1 * p1 - 4.0 * q1)
        rt = cmath.sqrt(disc)
        z1 = (-p1 + rt) / 2.0
        z2 = (-p1 - rt) / 2.0
        if _classify_real(z1) and _classify_real(z2):
            # cancellation noise: treat as real triple
            reals = sorted([x1.real, z1.real, z2.real])
            return CubicResolution(Delta, reals, None)
        return CubicResolution(Delta, [x1.real], (z1, z2))
    if Delta == 0:
        t = _real_cbrt(-Q / 2.0)
        x1 = 2.0 * t - shift
        x2 = -t - shift
        reals = [float(polish_root(coeffs, x1).real), float(x2), float(x2)]
        return CubicResolution(Delta, sorted(reals), None)
    # Delta < 0: three distinct reals
    rho = math.sqrt(-((P / 3.0) ** 3))
    cos_phi = max(-1.0, min(1.0, -(Q / 2.0) / rho))
    phi = math.acos(cos_phi)
    amp = 2.0 * math.sqrt(-P / 3.0)
    reals = []
    for k in range(3):
        xk = amp * math.cos((phi + 2.0 * math.pi * k) / 3.0) - shift
        reals.append(float(polish_root(coeffs, xk).real))
    return CubicResolution(Delta, sorted(reals), None)


def depress_quartic(A: float, B: float, C: float, D: float) -> tuple[float, float, float]:
    """Coefficients (P2, Q2, r) of the depressed quartic X^4+P2 X^2+Q2 X+r
    obtained by the substitution x = X - A/4."""
    P2 = -3.0 * A * A / 8.0 + B
    Q2 = A**3 / 8.0 - A * B / 2.0 + C
    r = -3.0 * A**4 / 256.0 + A * A * B / 16.0 - A * C / 4.0 + D
    return P2, Q2, r


def resolvent_positive_root(P2: float, Q2: float, r: float) -> float:
    """Positive root u of the resolvent 8u^3 + 8 P2 u^2 + (2 P2^2 - 8 r) u - Q2^2 = 0.

    When the resolvent has several positive roots the largest is taken.
    The constant term -Q2^2/8 < 0 guarantees one.  When Cardano loses it to
    cancellation (a root of order Q2^2 next to a double root), it is
    bisected on (0, 1 + |P2| + |B| + |C|], where the monic resolvent
    u^3 + P2 u^2 + B u + C is positive.  Raises DegenerateResolvent when
    Q2 ~ 0 (biquadratic case) or a coefficient is NaN.
    """
    if abs(Q2) < DEGENERATE_Q2_TOL:
        raise DegenerateResolvent(f"Q2 ~ 0 (Q2={Q2}); use the biquadratic fallback")
    B, C = (2.0 * P2 * P2 - 8.0 * r) / 8.0, -Q2 * Q2 / 8.0
    u = max(solve_cubic_cardano(P2, B, C).real_roots)
    if u > 0:
        return u
    lo, hi = 0.0, 1.0 + abs(P2) + abs(B) + abs(C)
    if not hi < math.inf:
        raise DegenerateResolvent(f"no positive resolvent root found (Q2={Q2})")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if ((mid + P2) * mid + B) * mid + C > 0:
            hi = mid
        else:
            lo = mid
    return hi


def solve_quartic_ferrari(A: float, B: float, C: float, D: float) -> FerrariDecomposition:
    """Solve the monic quartic x^4 + A x^3 + B x^2 + C x + D = 0.

    Ferrari's resolvent split is used when Q2 != 0; the biquadratic is
    solved directly otherwise.  Complex roots are returned tagged complex
    (conjugate pairs); ``real_roots`` collects the real ones.
    """
    P2, Q2, r = depress_quartic(A, B, C, D)
    biquadratic = bool(abs(Q2) < DEGENERATE_Q2_TOL)
    if biquadratic:
        disc = cmath.sqrt(complex(P2 * P2 - 4.0 * r))
        w1 = cmath.sqrt((-P2 + disc) / 2.0)
        w2 = cmath.sqrt((-P2 - disc) / 2.0)
        Xs = [w1, -w1, w2, -w2]
    else:
        u = resolvent_positive_root(P2, Q2, r)
        s2u = math.sqrt(2.0 * u)
        Delta1 = complex(-2.0 * u - 2.0 * P2 + 2.0 * Q2 / s2u)
        Delta2 = complex(-2.0 * u - 2.0 * P2 - 2.0 * Q2 / s2u)
        rt1 = cmath.sqrt(Delta1)
        rt2 = cmath.sqrt(Delta2)
        Xs = [
            (-s2u + rt1) / 2.0,
            (-s2u - rt1) / 2.0,
            (s2u + rt2) / 2.0,
            (s2u - rt2) / 2.0,
        ]
    # each construction emits complex roots as exact conjugate pairs, and the
    # polish keeps them so: it commutes with conjugation bit for bit
    coeffs = [A, B, C, D]
    shift = A / 4.0
    roots = [polish_root(coeffs, X - shift) for X in Xs]
    reals = sorted(z.real for z in roots if _classify_real(z))
    roots = [complex(z.real, 0.0) if _classify_real(z) else z for z in roots]
    return FerrariDecomposition(roots, biquadratic, reals)
