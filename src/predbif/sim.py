"""Adaptive simulation of the scaled system: trajectories, boundedness
envelopes, phase portraits, and Poincare-section limit-cycle probing.

The stepper lives in a compiled kernel with a pure-Python twin
(``predbif._backend``); everything here is backend-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._backend import integrate_kernel
from .errors import DomainError, NotAnEquilibrium, StepFailure
from .model import EQUILIBRIUM_TOL, ModelParams, State, field, validate
from .equilibria import Equilibrium, predator_free_x
from .stability import _spectrum

#: default local error tolerance (absolute and relative)
DEFAULT_TOL = 1e-9

#: the tolerances ``integrate`` accepts, inclusive
TOL_RANGE = (1e-12, 1e-3)

#: final ||rhs|| below this marks the trajectory as converged to a fixed point
CONVERGED_TOL = 1e-10

#: step budget of each first, capped run of ``detect_limit_cycle``
_PROBE_STEPS = 500


@dataclass(frozen=True)
class Trajectory:
    """The kernel's five float lists, kept as it returns them."""

    times: list[float]
    xs: list[float]
    ys: list[float]
    dxs: list[float]
    dys: list[float]
    terminated: str  # TimeLimit | Converged(...) | Escaped | StepFailure

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final(self) -> State:
        return State(self.xs[-1], self.ys[-1])


@dataclass(frozen=True)
class BoundReport:
    x_violation: float
    y_violation: float
    ok: bool


@dataclass(frozen=True)
class CycleProbe:
    found: bool
    period: float | None
    stability: str | None  # Attracting | Repelling | Inconclusive
    radii: tuple[float, ...]


def integrate(params: ModelParams, x0: State, t_end: float,
              tol: float = DEFAULT_TOL, max_steps: int = 10_000_000,
              on_failure: str = "raise") -> Trajectory:
    """Adaptive Dormand-Prince 5(4) trajectory from x0 over [0, t_end].

    Coordinates that start exactly at 0 are held at 0 (axis invariance).
    t_end < 0 integrates backward in time.  Raises DomainError for a start
    with x0.x < 0, where the field leaves its domain (x = -c divides by 0),
    and for a ``max_steps`` that is not an int.
    A StepFailure stop, the minimum step or ``max_steps`` step attempts
    used up before t_end, raises when ``on_failure`` is "raise" and is kept
    in ``terminated`` when it is "keep".  The cap leaves the step sequence
    alone: a capped run is a bit-exact prefix of the uncapped one.
    """
    validate(params)
    lo, hi = TOL_RANGE
    if not lo <= tol <= hi:
        raise DomainError(f"tol must lie in [{lo:g}, {hi:g}], got {tol}")
    if not (math.isfinite(x0.x) and math.isfinite(x0.y)):
        raise DomainError(f"initial state must be finite, got {x0}")
    if not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite, got {t_end}")
    if x0.x < 0:
        raise DomainError(f"initial prey density must be nonnegative, got x={x0.x}")
    if isinstance(max_steps, bool) or not isinstance(max_steps, int):
        raise DomainError(f"max_steps must be an int, got {max_steps!r}")
    if on_failure not in ("raise", "keep"):
        raise DomainError(f'on_failure must be "raise" or "keep", got {on_failure!r}')
    ts, xs, ys, dxs, dys, status = integrate_kernel(
        params.a, params.b, params.c, params.h, params.delta, params.eta,
        params.m, x0.x, x0.y, 0.0, t_end, tol, tol, max_steps,
    )
    if status == 2:
        terminated = "Escaped"
    elif status == 1:
        terminated = "StepFailure"
    elif max(abs(dxs[-1]), abs(dys[-1])) < CONVERGED_TOL:
        terminated = f"Converged({xs[-1]:.9g},{ys[-1]:.9g})"
    else:
        terminated = "TimeLimit"
    traj = Trajectory(ts, xs, ys, dxs, dys, terminated)
    if status == 1 and on_failure == "raise":
        raise StepFailure(
            f"minimum step or max_steps={max_steps} reached at t={traj.times[-1]:.6g}, "
            f"state={traj.final}"
        )
    return traj


def bound_check(traj: Trajectory, params: ModelParams, x0: State) -> BoundReport:
    """Check the prey envelope x(t) <= 1/(1 - C e^{-t}), C = 1 - 1/x(0)
    (which collapses to x <= max(x(0), 1)) and the predator envelope
    y(t) <= max(y(0), delta*(m+M)/eta) with M = max(x(0), 1).  The theorem
    holds forward in time: a backward trajectory is a DomainError."""
    t0 = traj.times[0]
    if traj.times[-1] < t0:
        raise DomainError(f"bound_check needs forward time, got t={t0} to {traj.times[-1]}")
    if x0.x > 0:
        C = 1.0 - 1.0 / x0.x
        denoms = [1.0 - C * math.exp(t0 - t) for t in traj.times]
        x_violation = max(x - 1.0 / d if d > 0 else -math.inf for x, d in zip(traj.xs, denoms))
    else:
        x_violation = max(traj.xs)  # x must stay at 0 on the axis
    M = max(x0.x, 1.0)
    yb = max(x0.y, params.delta * (params.m + M) / params.eta)
    y_violation = max(traj.ys) - yb
    ok = x_violation <= 1e-6 and y_violation <= 1e-6
    return BoundReport(x_violation, y_violation, ok)


def phase_portrait(params: ModelParams, grid: list[State], t_end: float,
                   tol: float = DEFAULT_TOL) -> list[Trajectory]:
    """One trajectory per seed, in seed order; per-seed StepFailure is kept
    in the trajectory's terminated field rather than raised."""
    if not grid:
        raise DomainError("phase_portrait needs a nonempty seed grid")
    return [integrate(params, s, t_end, tol, on_failure="keep") for s in grid]


def _hermite(s, v0, v1, d0, d1, dt):
    """Cubic Hermite value at fraction s of a step of length dt."""
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * v0 + h10 * dt * d0 + h01 * v1 + h11 * dt * d1


def _section_crossings(traj: Trajectory, xc: float, yc: float):
    """Times and radii of crossings of the half-line {y = yc, x > xc},
    refined by cubic Hermite interpolation inside the step."""
    t, x, y, dx, dy = traj.times, traj.xs, traj.ys, traj.dxs, traj.dys
    g = [v - yc for v in y]
    out = []
    for i, (glo, gnext) in enumerate(zip(g, g[1:])):
        if not glo * gnext < 0:
            continue
        dt = t[i + 1] - t[i]
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = _hermite(mid, y[i], y[i + 1], dy[i], dy[i + 1], dt) - yc
            if glo * gm <= 0:
                hi = mid
            else:
                lo, glo = mid, gm
        s = 0.5 * (lo + hi)
        xs = _hermite(s, x[i], x[i + 1], dx[i], dx[i + 1], dt)
        if xs > xc:
            out.append((t[i] + s * dt, xs - xc))
    return out


def _converged_radius(radii, rel_tol=1e-7):
    """Index of first radius where two consecutive returns agree, or None."""
    for k in range(1, len(radii)):
        if abs(radii[k] - radii[k - 1]) < rel_tol * (1.0 + radii[k]):
            return k
    return None


def detect_limit_cycle(params: ModelParams, center: Equilibrium,
                       probe_radius: float = 1e-3, t_max: float = 5000.0,
                       tol: float = DEFAULT_TOL) -> CycleProbe:
    """Probe for a closed orbit around a spiral-type interior equilibrium.

    Seeds on the horizontal half-line through the equilibrium; forward
    returns converging to a positive radius mean an attracting cycle,
    backward returns a repelling one.  ``probe_radius`` and ``t_max`` must
    be finite and positive; a center with max |rhs| >= EQUILIBRIUM_TOL
    raises NotAnEquilibrium.

    Each direction first runs at most _PROBE_STEPS steps, a bit-exact
    prefix of the full run.  The forward run stops there when h > c and
    its last state has 0 <= x < x-, the smaller predator-free abscissa,
    and y >= 0.  For y >= 0, x' <= x f(x)/(c + x) with f(x) = -x^2 +
    (1 - c)x + c - h, and f < 0 on [0, x-), so x never grows again; an
    interior equilibrium has x^2 y/p = x f(x)/(c + x) > 0, so x_c > x-
    and the orbit cannot return to the half-line x > x_c.  A prefix whose
    returns already converge decides its direction too: the full run
    crosses the half-line at the same times first.  Otherwise the
    direction runs again uncapped, so the result is that of the full runs.
    """
    if not (0 < probe_radius < math.inf and 0 < t_max < math.inf):
        raise DomainError(f"probe_radius and t_max must be finite and positive, "
                          f"got {probe_radius} and {t_max}")
    if center.kind != "Interior":
        raise DomainError("cycle probe needs an interior equilibrium as center")
    F, DF = field(params, center.x, center.y)
    residual = max(abs(F[0]), abs(F[1]))
    if residual >= EQUILIBRIUM_TOL:
        raise NotAnEquilibrium(f"rhs residual {residual:.3e} at ({center.x}, {center.y})")
    eig, _, _ = _spectrum(DF)
    if abs(eig[0].imag) < 1e-12:
        raise DomainError("cycle probe needs a spiral-type equilibrium (complex eigenvalues)")
    xc, yc = center.x, center.y
    seed = State(xc + probe_radius, yc)
    x_minus = predator_free_x(params, "minus") if params.h > params.c else None

    for direction, label in ((1.0, "Attracting"), (-1.0, "Repelling")):
        traj = integrate(params, seed, direction * t_max, tol, max_steps=_PROBE_STEPS,
                         on_failure="keep")
        # one crossing of the half-line per revolution
        same = _section_crossings(traj, xc, yc)
        k = _converged_radius([r for _, r in same])
        x, y = traj.xs[-1], traj.ys[-1]
        trapped = direction > 0 and x_minus is not None and 0.0 <= x < x_minus and y >= 0.0
        if k is None and traj.terminated == "StepFailure" and not trapped:
            traj = integrate(params, seed, direction * t_max, tol, on_failure="keep")
            same = _section_crossings(traj, xc, yc)
            k = _converged_radius([r for _, r in same])
        radii = [r for _, r in same]
        # a radius that converged to 1e-6 or less spiraled into the focus: no
        # cycle between the seed and the focus in this time direction
        if k is not None and radii[k] > 1e-6:
            period = abs(same[k][0] - same[k - 1][0])
            return CycleProbe(True, period, label, tuple(radii[: k + 1]))
    return CycleProbe(False, None, "Inconclusive", ())
