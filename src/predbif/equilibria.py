"""Enumeration of trivial and interior equilibria and the (h, c) region
taxonomy that governs which closed-form solver applies.

Interior equilibria are abscissas of a monic quartic whose coefficients
come from the denominator-cleared expansion of the isocline intersection.
The printed coefficient table is kept as a transcription only: reports
compare it with the expansion once (``check_printed_quartic``) and surface a
disagreement as a PrintedFormulaMismatch warning; the solve never reads it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import polyroots
from .errors import DomainError, PrintedFormulaMismatch
from .model import EQUILIBRIUM_TOL, ModelParams, State, holling_denominator, jacobian, rhs

#: |h - c| below this (relative) threshold counts as the K2 diagonal.
K2_EQUALITY_TOL = 1e-10

#: quartic roots must exceed this to count as positive abscissas.
POSITIVITY_TOL = 1e-10

COEFF_MISMATCH_TOL = 1e-7


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

    def as_list(self) -> list[float]:
        return [self.A, self.B, self.C, self.D]


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
    delta*x*(c+x)*(m+x) - eta*p(x)*f(x) = 0 expanded and divided by a*eta."""
    a, b, c, h = params.a, params.b, params.c, params.h
    delta, eta, m = params.delta, params.eta, params.m
    ae = a * eta
    return QuarticCoeffs(
        A=(delta - eta * (a * (1.0 - c) - b)) / ae,
        B=(delta * (c + m) - eta * (a * (c - h) + b * (1.0 - c) - 1.0)) / ae,
        C=(delta * c * m - eta * (b * (c - h) + 1.0 - c)) / ae,
        D=(h - c) / a,
    )


def _printed_quartic(params: ModelParams) -> QuarticCoeffs:
    a, b, c, h = params.a, params.b, params.c, params.h
    delta, eta, m = params.delta, params.eta, params.m
    return QuarticCoeffs(
        A=(c - 1.0) + b / a + delta / eta,
        B=(h - c) + (b / a) * (c - 1.0) + delta * (c + m) / (a * eta) + 1.0 / a,
        C=(b / a) * (h - c) + (c - 1.0) / a + c * delta * m / (a * eta),
        D=(h - c) / a,
    )


def check_printed_quartic(params: ModelParams) -> None:
    """Warn PrintedFormulaMismatch when the transcribed coefficient table
    disagrees with ``quartic_coeffs`` (its A carries delta/eta where the
    expansion gives delta/(a*eta)); the derived coefficients are the ones
    solved."""
    derived = quartic_coeffs(params)
    printed = _printed_quartic(params)
    bad = [
        name
        for name, pv, dv in zip("ABCD", printed.as_list(), derived.as_list())
        if abs(pv - dv) > COEFF_MISMATCH_TOL * (1.0 + abs(dv))
    ]
    if bad:
        warnings.warn(
            f"printed quartic coefficients {bad} disagree with the "
            f"cleared-denominator expansion (printed={printed}, derived={derived})",
            PrintedFormulaMismatch,
            stacklevel=2,
        )


def isocline_y(params: ModelParams, x: float) -> float:
    """Prey isocline y(x) = p(x) * (-x^2 + (1-c)x + (c-h)) / (x (c+x))."""
    if x <= 0:
        raise DomainError(f"isocline_y needs x > 0, got {x}")
    c, h = params.c, params.h
    f = -x * x + (1.0 - c) * x + (c - h)
    return holling_denominator(params, x) * f / (x * (c + x))


def _polish_interior(params: ModelParams, x: float) -> Equilibrium | None:
    """2-D Newton polish of (x, delta*(m+x)/eta) on the rhs; None if the
    residual target cannot be met."""
    y = params.delta * (params.m + x) / params.eta
    xi, yi = x, y
    for _ in range(30):
        try:
            f = rhs(params, State(xi, yi))
        except DomainError:
            return None
        if max(abs(f[0]), abs(f[1])) < 1e-13:
            break
        J = jacobian(params, State(xi, yi))
        try:
            dx, dy = np.linalg.solve(J, -np.asarray(f))
        except np.linalg.LinAlgError:
            break
        if abs(dx) > 1e-3 or abs(dy) > 1e-3:
            break
        xi += dx
        yi += dy
    if xi <= POSITIVITY_TOL or yi <= 0:
        return None
    f = rhs(params, State(xi, yi))
    if max(abs(f[0]), abs(f[1])) >= EQUILIBRIUM_TOL:
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
    candidates: list[tuple[float, str]] = []
    if region.tag == "K2":
        res = polyroots.solve_cubic_cardano(q.A, q.B, q.C)
        branch = "Delta>0" if res.Delta > 0 else ("Delta=0" if res.Delta == 0 else "Delta<0")
        for x in res.real_roots:
            candidates.append((x, f"K2-Cardano-{branch}"))
    else:
        dec = polyroots.solve_quartic_ferrari(q.A, q.B, q.C, q.D)
        tag = f"{region.tag}-Ferrari" + ("-biquadratic" if dec.biquadratic else "")
        for x in dec.real_roots:
            candidates.append((x, tag))
    out: list[Equilibrium] = []
    for x, source in candidates:
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
