"""Test-side transcriptions of forms from the paper that nothing on the run
path reads: the rescaling from the original, unscaled parameters, the
Taylor coefficients alpha_ij and beta_ij of the shifted system at an
interior equilibrium, and the trace with the point frozen.  The tests hold
them against ``predbif.model.jet``, finite differences and the paper's
printed formulas.
"""

import math
from dataclasses import dataclass, fields

from predbif.errors import NotAnEquilibrium, ParameterOutOfRange
from predbif.model import EQUILIBRIUM_TOL, ModelParams, State, jet, validate


@dataclass(frozen=True)
class OriginalParams:
    """Parameters of the unscaled model, kept in their original units.

    ``n1`` (the Holling-II half saturation of the antecedent model) is stored
    for completeness but plays no role in the rescaling.
    """

    r: float
    k: float
    q: float
    E: float
    m1: float
    m2: float
    s: float
    a1: float
    b1: float
    a2: float
    n: float
    mbar: float
    n1: float = 1.0


@dataclass(frozen=True)
class JetCoefficients:
    """Taylor coefficients of the shifted system u' = sum alpha_ij u^i v^j,
    v' = sum beta_ij u^i v^j around an interior equilibrium."""

    alpha10: float
    alpha01: float
    beta10: float
    beta01: float
    alpha20: float
    alpha11: float
    alpha30: float
    alpha21: float
    beta20: float
    beta11: float
    beta02: float
    beta30: float
    beta21: float
    beta12: float


def rescale_parameters(orig: OriginalParams) -> ModelParams:
    """Map the original parameters onto the seven scaled ones."""
    o = orig
    for name in ("r", "k", "q", "E", "m1", "m2", "s", "a1", "a2", "n", "mbar"):
        v = getattr(o, name)
        if not (math.isfinite(v) and v > 0):
            raise ParameterOutOfRange(f"original parameter {name} must be positive, got {v}")
    return validate(
        ModelParams(
            a=o.a1 * o.k**2,
            b=o.b1 * o.k,
            c=o.m1 * o.E / (o.m2 * o.k),
            h=o.q * o.E / (o.r * o.m2 * o.k),
            delta=o.s / o.r,
            eta=o.s * o.a2 / (o.mbar * o.k**2),
            m=o.n / o.k,
        )
    )


def taylor_jet(params: ModelParams, equilibrium: State) -> JetCoefficients:
    """Taylor coefficients of the shifted field at an interior equilibrium
    (max |rhs| < 1e-8), read off ``jet``: alpha_ij = d^i/dx^i d^j/dy^j f /
    (i! j!), and beta_ij likewise for g."""
    tensors = jet(params, equilibrium.x, equilibrium.y)
    residual = max(abs(tensors[0][0]), abs(tensors[0][1]))
    if residual >= EQUILIBRIUM_TOL:
        raise NotAnEquilibrium(
            f"rhs residual {residual:.3e} at ({equilibrium.x}, {equilibrium.y})")

    def coefficient(name: str) -> float:
        i, j = int(name[-2]), int(name[-1])
        t = tensors[i + j][name.startswith("beta")]
        for axis in (0,) * i + (1,) * j:
            t = t[axis]
        return t / (math.factorial(i) * math.factorial(j))

    return JetCoefficients(**{fd.name: coefficient(fd.name) for fd in fields(JetCoefficients)})


def frozen_trace(params: ModelParams, eq, delta: float) -> float:
    """Trace of the linearization as a function of delta with the point
    frozen: alpha10(eq) - delta (beta01 reduces to -delta on the predator
    isocline)."""
    return jet(params, eq.x, eq.y)[1][0][0] - delta
