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
from typing import NamedTuple

from . import polyroots
from .errors import DomainError, SingularSolve
from .model import EQUILIBRIUM_TOL, ModelParams, State, field, holling_denominator, jet, solve2

#: |h - c| below this (relative) threshold counts as the K2 diagonal.
K2_EQUALITY_TOL = 1e-10

#: quartic roots must exceed this to count as positive abscissas.
POSITIVITY_TOL = 1e-10


class Equilibrium(NamedTuple):
    x: float
    y: float
    kind: str  # Origin | PreyExtinction | PredatorFree | Interior
    source: str = ""

    @property
    def state(self) -> State:
        return State(self.x, self.y)


def classify_region(h: float, c: float) -> str:
    """Tag the (h, c) point with the interior-equilibrium existence region:
    K1, K2, K3 or None.  The K2 tolerance band applies only for c < 1; with
    c >= 1 a point just below the diagonal is K3, on or above it None.  K1
    is c < 1 < h/c outside the band with disc = (c - 1)^2 - 4(h - c) > 0,
    where E+- exist; the tag alone decides which E+- are listed."""
    if h <= 0 or c <= 0:
        raise DomainError(f"h, c must be positive, got h={h}, c={c}")
    if c < 1.0 and abs(h - c) <= K2_EQUALITY_TOL * max(h, c, 1.0):
        return "K2"
    if h < c:
        return "K3"
    if c < 1.0 and (c - 1.0) ** 2 - 4.0 * (h - c) > 0:
        return "K1"
    return "None"


def trivial_equilibria(params: ModelParams) -> list[Equilibrium]:
    """Origin, prey-extinction and the predator-free equilibria that the
    region tag admits: E+ = x+ (K1, K3) or 1 - c (K2), then E- in K1."""
    h, c = params.h, params.c
    out = [Equilibrium(0.0, 0.0, "Origin", "always")]
    if params.m > 0:
        out.append(
            Equilibrium(0.0, params.delta * params.m / params.eta, "PreyExtinction", "m>0")
        )
    region = classify_region(h, c)
    if region == "K2":
        out.append(Equilibrium(1.0 - c, 0.0, "PredatorFree", "h=c single"))
    elif region != "None":
        rt = math.sqrt((c - 1.0) ** 2 - 4.0 * (h - c))
        side = "h<c" if region == "K3" else "h>c"
        # for c >= 1 (K3 only) 1 - c + rt cancels; x+ = -(c - h)/x- does not
        xp = (1.0 - c + rt) / 2.0 if c < 1.0 else 2.0 * (c - h) / (c - 1.0 + rt)
        out.append(Equilibrium(xp, 0.0, "PredatorFree", f"{side} plus"))
        if region == "K1":
            out.append(Equilibrium((1.0 - c - rt) / 2.0, 0.0, "PredatorFree", "h>c minus"))
    return out


def predator_free_x(params: ModelParams, which: str) -> float | None:
    """Abscissa of E+ / E- as ``trivial_equilibria`` lists it, when it
    exceeds POSITIVITY_TOL, else None."""
    xs = [e.x for e in trivial_equilibria(params) if e.kind == "PredatorFree"]
    i = {"plus": 0, "minus": 1}[which]
    return xs[i] if i < len(xs) and xs[i] > POSITIVITY_TOL else None


def quartic_coeffs(params: ModelParams) -> tuple[float, float, float, float]:
    """(A, B, C, D) of the monic quartic x^4 + A x^3 + B x^2 + C x + D whose
    positive real roots are the interior abscissas: delta*x*(c+x)*(m+x) -
    eta*p(x)*f(x) = 0 expanded and divided by a*eta.

    Raises OverflowError when a coefficient is not finite: an admissible
    but extreme parameter took a product past the float range."""
    a, b, c, h = params.a, params.b, params.c, params.h
    delta, eta, m = params.delta, params.eta, params.m
    ae = a * eta
    q = ((delta - eta * (a * (1.0 - c) - b)) / ae,
         (delta * (c + m) - eta * (a * (c - h) + b * (1.0 - c) - 1.0)) / ae,
         (delta * c * m - eta * (b * (c - h) + 1.0 - c)) / ae,
         (h - c) / a)
    if not all(map(math.isfinite, q)):
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


def _polish_interior(params: ModelParams, x: float) -> tuple[float, float] | None:
    """(x, y) by 2-D Newton polish of (x, delta*(m+x)/eta) on the rhs, at
    most 30 steps; one ``field`` evaluation gives each residual and step.
    None if the residual target cannot be met."""
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
    return xi, yi


def _no_interior_root(params: ModelParams, q: tuple[float, float, float, float]) -> bool:
    """True when the quartic's ``q`` = (A, B, C, D) or the existence
    condition proves that there is no interior equilibrium, without solving.

    Descartes: with A, B, C >= 0 and D > 0 the float quartic, the one the
    solver would be handed, is positive on x >= 0 and has no positive root.

    Existence: an interior equilibrium has f(x) = x*y*(c + x)/p(x) > 0, so
    g(x) = eta*p*f - delta*x*(c + x)*(m + x) < 0 wherever f <= 0 (p > 0 by
    admissibility), and g is the quartic times -a*eta.  For x > 0 and
    h >= c, f < 0 when c >= 1, and f <= disc/4 with disc = (1 - c)^2 -
    4(h - c).  Otherwise f > 0 only on (x-, x+), where p <= max(p(x-), p(x+))
    since p is convex (a > 0), and delta*x*(c + x)*(m + x) >= its value at
    x-; g < 0 throughout when eta*max(p(x-), p(x+))*disc/4 stays below that.

    Rounding, with u = 2^-53: the float disc is within
    4u*(1 - c)^2 + 2u*|disc| of the true one, so disc <= -16u*(1 - c)^2
    proves disc < 0, and above that ``disc_hi`` = disc + 16u*(1 - c)^2
    bounds it from above.  x- is taken as 2(h - c)/((1 - c) + sqrt(disc_hi)),
    free of cancellation and so at most a few u above x-; x+ as
    ((1 - c) + sqrt(disc_hi))/2.  max(p(x-), p(x+)) is raised by
    2^-48*(a*x+^2 + |b|*x+ + 1), which covers the rounding of p, that can
    cancel when b < 0, and the few-u moves of the ends.  What remains are
    products and quotients of positive floats, each a few u off, far inside
    the factor 1.01.  Requiring delta, c, m and x- above 2^-255 keeps every
    partial product of the right side normal, so no underflow hides an
    error; an overflow only rounds up to inf, which cannot pass for the
    left side and is right for the right side.
    """
    A, B, C, D = q
    if D > 0.0 and A >= 0.0 and B >= 0.0 and C >= 0.0:
        return True
    a, b, c, h = params.a, params.b, params.c, params.h
    if h < c:
        return False
    if c >= 1.0:
        return True
    s, k = 1.0 - c, h - c
    err = 2.0**-49 * s * s
    disc = s * s - 4.0 * k
    if disc <= -err:
        return True
    disc_hi = disc + err
    root = math.sqrt(disc_hi)
    x_lo, x_hi = 2.0 * k / (s + root), 0.5 * (s + root)
    delta, m = params.delta, params.m
    if not min(x_lo, delta, c, m) > 2.0**-255:
        return False
    p_max = (max((a * x_lo + b) * x_lo, (a * x_hi + b) * x_hi) + 1.0
             + 2.0**-48 * ((a * x_hi + abs(b)) * x_hi + 1.0))
    return 1.01 * params.eta * p_max * disc_hi * 0.25 < delta * x_lo * (c + x_lo) * (m + x_lo)


def interior_equilibria(params: ModelParams) -> list[Equilibrium]:
    """Interior equilibria via the region-appropriate closed-form solver.

    Points where ``_no_interior_root`` proves that none exists, through
    Descartes' rule on the quartic or the existence condition f(x) > 0 of
    the paper, return [] without solving or tagging.  On the rest K2 uses
    the Cardano branch of the degenerate cubic and every other tag the
    Ferrari branch.  An interior abscissa has f(x) > 0, so it lies in
    (x-, x+), inside (0, 1) for h > 0: Ferrari polishes only the candidates
    that can end there (its ``window``), and real roots at or beyond 1 +
    MAX_MOVE, where those it left unpolished lie, are dropped with the
    nonpositive ones.  Only positive real roots that pass the rhs residual
    test survive.
    """
    h, c = params.h, params.c
    if h <= 0 or c <= 0:
        raise DomainError(f"h, c must be positive, got h={h}, c={c}")
    q = quartic_coeffs(params)
    if _no_interior_root(params, q):
        return []
    region = classify_region(h, c)
    A, B, C, D = q
    if region == "K2":
        res = polyroots.solve_cubic_cardano(A, B, C)
        branch = "Delta>0" if res.Delta > 0 else ("Delta=0" if res.Delta == 0 else "Delta<0")
        roots, source, upper = res.real_roots, f"K2-Cardano-{branch}", math.inf
    else:
        dec = polyroots.solve_quartic_ferrari(A, B, C, D, window=(0.0, 1.0))
        roots, upper = dec.real_roots, 1.0 + polyroots.MAX_MOVE
        source = f"{region}-Ferrari" + ("-biquadratic" if dec.biquadratic else "")
    out: list[Equilibrium] = []
    for x in roots:
        if x <= POSITIVITY_TOL or x >= upper:
            continue
        xy = _polish_interior(params, x)
        if xy is None:
            continue
        xi, yi = xy
        if any(abs(xi - other.x) < 1e-7 * (1.0 + abs(xi)) for other in out):
            continue
        out.append(Equilibrium(xi, yi, "Interior", source))
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
