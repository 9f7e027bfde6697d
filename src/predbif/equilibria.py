"""Enumeration of trivial and interior equilibria and the (h, c) region
taxonomy that governs which closed-form solver applies.

Interior equilibria are abscissas of a monic quartic whose coefficients
come from the denominator-cleared expansion of the isocline intersection.
The paper's printed coefficient table differs from it in A (delta/eta
where the expansion gives delta/(a*eta)); it is kept as a transcription in
``tests/test_equilibria.py``, which holds B, C and D equal to the expansion.

The equilibrium curves are parametrized here by the abscissa x: the
interior branch at fixed h that ``hopf.hopf_scan`` follows, and the Hopf
and fold curves in the (h, delta) plane, on which ``bt.bt_locate`` finds
the Bogdanov-Takens points and ``bt.bifurcation_curves`` samples the
unfolding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import polyroots
from .errors import DomainError, SingularSolve
from .model import EQUILIBRIUM_TOL, ModelParams, State, field, holling_denominator, jet, solve2

#: |h - c| below this (relative) threshold counts as the K2 diagonal.
K2_EQUALITY_TOL = 1e-10

#: quartic roots must exceed this to count as positive abscissas.
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True)
class Equilibrium:
    x: float
    y: float
    kind: str  # Origin | PreyExtinction | PredatorFree | Interior
    source: str = ""

    @property
    def state(self) -> State:
        return State(self.x, self.y)


@dataclass(frozen=True)
class QuarticCoeffs:
    A: float
    B: float
    C: float
    D: float


@dataclass(frozen=True)
class Region:
    tag: str  # K1 | K2 | K3 | None


def classify_region(h: float, c: float) -> Region:
    """Tag the (h, c) point with the interior-equilibrium existence region."""
    if h <= 0 or c <= 0:
        raise DomainError(f"h, c must be positive, got h={h}, c={c}")
    if abs(h - c) <= K2_EQUALITY_TOL * max(h, c, 1.0):
        return Region("K2" if c < 1.0 else "None")
    if h < c:
        return Region("K3")
    if c < 1.0 and h < (c + 1.0) ** 2 / 4.0:
        return Region("K1")
    return Region("None")


def trivial_equilibria(params: ModelParams) -> list[Equilibrium]:
    """Origin, prey-extinction and predator-free equilibria with the branch
    rules for the existence of the predator-free pair."""
    h, c = params.h, params.c
    out = [Equilibrium(0.0, 0.0, "Origin", "always")]
    if params.m > 0:
        out.append(
            Equilibrium(0.0, params.delta * params.m / params.eta, "PreyExtinction", "m>0")
        )
    disc = (c - 1.0) ** 2 - 4.0 * (h - c)
    if abs(h - c) <= K2_EQUALITY_TOL * max(h, c, 1.0):
        if c < 1.0:
            out.append(Equilibrium(1.0 - c, 0.0, "PredatorFree", "h=c single"))
    elif h < c:
        xp = (1.0 - c + math.sqrt(disc)) / 2.0
        out.append(Equilibrium(xp, 0.0, "PredatorFree", "h<c plus"))
    elif disc > 0 and c < 1.0:
        rt = math.sqrt(disc)
        out.append(Equilibrium((1.0 - c + rt) / 2.0, 0.0, "PredatorFree", "h>c plus"))
        out.append(Equilibrium((1.0 - c - rt) / 2.0, 0.0, "PredatorFree", "h>c minus"))
    return out


def predator_free_x(params: ModelParams, which: str) -> float | None:
    """Abscissa of E+ / E- when it exists with positive x, else None."""
    sign = {"plus": 1.0, "minus": -1.0}[which]
    disc = (params.c - 1.0) ** 2 - 4.0 * (params.h - params.c)
    if disc < 0:
        return None
    x = (1.0 - params.c + sign * math.sqrt(disc)) / 2.0
    return x if x > POSITIVITY_TOL else None


def quartic_coeffs(params: ModelParams) -> QuarticCoeffs:
    """Monic quartic whose positive real roots are the interior abscissas:
    delta*x*(c+x)*(m+x) - eta*p(x)*f(x) = 0 expanded and divided by a*eta.

    Raises OverflowError when a coefficient is not finite: an admissible
    but extreme parameter took a product past the float range."""
    a, b, c, h = params.a, params.b, params.c, params.h
    delta, eta, m = params.delta, params.eta, params.m
    ae = a * eta
    q = QuarticCoeffs(
        A=(delta - eta * (a * (1.0 - c) - b)) / ae,
        B=(delta * (c + m) - eta * (a * (c - h) + b * (1.0 - c) - 1.0)) / ae,
        C=(delta * c * m - eta * (b * (c - h) + 1.0 - c)) / ae,
        D=(h - c) / a,
    )
    if not all(map(math.isfinite, (q.A, q.B, q.C, q.D))):
        raise OverflowError(f"the interior quartic's coefficients overflow: {q}")
    return q


def isocline_y(params: ModelParams, x: float) -> float:
    """Prey isocline y(x) = p(x) * (-x^2 + (1-c)x + (c-h)) / (x (c+x))."""
    if x <= 0:
        raise DomainError(f"isocline_y needs x > 0, got {x}")
    c, h = params.c, params.h
    f = -x * x + (1.0 - c) * x + (c - h)
    return holling_denominator(params, x) * f / (x * (c + x))


# ---------------------------------------------------------------------------
# equilibrium curves in the abscissa x: an interior equilibrium lies on the
# predator isocline y = delta*(m + x)/eta and on the prey isocline f = 0


class _CurvePoint(NamedTuple):
    """The interior equilibrium with abscissa x: y on the prey isocline,
    delta such that the predator isocline passes through (x, y), and the
    trace and det of the field there."""

    x: float
    y: float
    delta: float
    trace: float
    det: float


def _on_curve(params: ModelParams, x: float) -> _CurvePoint:
    """The equilibrium-curve point at abscissa x for the h of ``params``."""
    y = isocline_y(params, x)
    delta = params.eta * y / (params.m + x)
    (a, b), (c, d) = field(params, x, y, ddelta=delta - params.delta)[1]
    return _CurvePoint(x, y, delta, a + d, a * d - b * c)


def _zero_on_curve(params: ModelParams, lo: _CurvePoint, hi: _CurvePoint, test) -> _CurvePoint:
    """Bisect a sign change of ``test`` between two curve points in x until
    the bracket collapses; returns the end with the smaller |test|."""
    f_lo, f_hi = test(lo), test(hi)
    while (mid := 0.5 * (lo.x + hi.x)) not in (lo.x, hi.x):
        pt = _on_curve(params, mid)
        f_mid = test(pt)
        if f_lo * f_mid <= 0:
            hi, f_hi = pt, f_mid
        else:
            lo, f_lo = pt, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


def hopf_curve_point(params: ModelParams, x: float) -> tuple[float, float, float]:
    """(h, delta, y) of the Hopf curve at abscissa x > 0: the equilibrium on
    the predator isocline y = delta*(m + x)/eta where the trace f_x + g_y =
    f_x - delta vanishes.  Along the isocline f = 0 and the trace are affine
    in (h, delta); their rows are read from one ``jet`` at h = delta = y = 0,
    with d/d(delta) = the partial + dy/d(delta) * d/dy, and solved at once.
    The point does not depend on the h and delta of ``params``.  Raises
    SingularSolve when the rows are dependent."""
    dy = (params.m + x) / params.eta
    F, DF, D2F, _, by_h, by_delta = jet(params, x, 0.0, -params.h, -params.delta)
    trace = DF[0][0] + DF[1][1]
    trace_h = by_h[1][0][0] + by_h[1][1][1]
    trace_delta = by_delta[1][0][0] + by_delta[1][1][1] + dy * (D2F[0][0][1] + D2F[1][1][1])
    try:
        h, delta = solve2(by_h[0][0], by_delta[0][0] + dy * DF[0][1], trace_h, trace_delta,
                          (-F[0], -trace))
    except ZeroDivisionError:
        raise SingularSolve(f"the Hopf-curve rows are dependent at x={x}") from None
    return h, delta, delta * dy


def fold_curve_point(params: ModelParams, x: float) -> tuple[float, float, float]:
    """(h, delta, y) of the fold curve at abscissa x > 0, as
    ``hopf_curve_point`` with det in place of the trace: where g = 0,
    det/delta = -(f_x + f_y*delta/eta), also affine in (h, delta)."""
    dy = (params.m + x) / params.eta
    F, DF, D2F, _, by_h, by_delta = jet(params, x, 0.0, -params.h, -params.delta)
    f_y = DF[0][1]  # depends on x only
    try:
        h, delta = solve2(by_h[0][0], by_delta[0][0] + dy * f_y,
                          by_h[1][0][0], by_delta[1][0][0] + dy * D2F[0][0][1] + f_y / params.eta,
                          (-F[0], -DF[0][0]))
    except ZeroDivisionError:
        raise SingularSolve(f"the fold-curve rows are dependent at x={x}") from None
    return h, delta, delta * dy


def _polish_interior(params: ModelParams, x: float) -> Equilibrium | None:
    """2-D Newton polish of (x, delta*(m+x)/eta) on the rhs, at most 30
    steps; one ``field`` evaluation gives each residual and step.  None if
    the residual target cannot be met."""
    xi, yi = x, params.delta * (params.m + x) / params.eta
    for step in range(31):
        try:
            f, ((a, b), (c, d)) = field(params, xi, yi)
        except DomainError:
            return None
        residual = max(abs(f[0]), abs(f[1]))
        if residual < 1e-13 or step == 30:
            break
        try:
            dx, dy = solve2(a, b, c, d, (-f[0], -f[1]))
        except ZeroDivisionError:
            break
        if abs(dx) > 1e-3 or abs(dy) > 1e-3:
            break
        xi += dx
        yi += dy
    if xi <= POSITIVITY_TOL or yi <= 0 or residual >= EQUILIBRIUM_TOL:
        return None
    return Equilibrium(xi, yi, "Interior")


def interior_equilibria(params: ModelParams) -> list[Equilibrium]:
    """Interior equilibria via the region-appropriate closed-form solver.

    K2 uses the Cardano branch of the degenerate cubic; K1/K3 (and
    off-region parameters, defensively) use the Ferrari branch.  Only
    positive real roots that pass the rhs residual test survive.
    """
    region = classify_region(params.h, params.c)
    q = quartic_coeffs(params)
    if region.tag == "K2":
        res = polyroots.solve_cubic_cardano(q.A, q.B, q.C)
        branch = "Delta>0" if res.Delta > 0 else ("Delta=0" if res.Delta == 0 else "Delta<0")
        roots, source = res.real_roots, f"K2-Cardano-{branch}"
    else:
        dec = polyroots.solve_quartic_ferrari(q.A, q.B, q.C, q.D)
        roots = dec.real_roots
        source = f"{region.tag}-Ferrari" + ("-biquadratic" if dec.biquadratic else "")
    out: list[Equilibrium] = []
    for x in roots:
        if x <= POSITIVITY_TOL:
            continue
        eq = _polish_interior(params, x)
        if eq is None:
            continue
        if any(abs(eq.x - other.x) < 1e-7 * (1.0 + abs(eq.x)) for other in out):
            continue
        out.append(Equilibrium(eq.x, eq.y, "Interior", source))
    out.sort(key=lambda e: e.x)
    return out


def all_equilibria(params: ModelParams) -> list[Equilibrium]:
    return trivial_equilibria(params) + interior_equilibria(params)


def interior_roots_oracle(
    params: ModelParams, x_max: float = 1.5, n_grid: int = 1_000_000
) -> list[float]:
    """Sign-scan + bisection oracle on eta*p(x)*f(x) - delta*x(c+x)(m+x).

    Independent of the closed-form path; used by tests and diagnostics.
    """
    import numpy as np

    a, b, c, h = params.a, params.b, params.c, params.h
    delta, eta, m = params.delta, params.eta, params.m

    def g(x):
        p = a * x * x + b * x + 1.0
        f = -x * x + (1.0 - c) * x + (c - h)
        return eta * p * f - delta * x * (c + x) * (m + x)

    xs = np.linspace(1e-12, x_max, n_grid)
    vals = g(xs)
    roots = []
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    for i in idx:
        lo, hi = xs[i], xs[i + 1]
        flo = g(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = g(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    # exact grid hits
    for i in np.nonzero(vals == 0.0)[0]:
        roots.append(float(xs[i]))
    return sorted(roots)
