import contextlib
import math
import warnings

import numpy as np
import pytest

from predbif import hopf, sim
from predbif.equilibria import Equilibrium, interior_equilibria, isocline_y
from predbif.errors import BranchLost, DomainError, NoHopf
from predbif.hopf import hopf_scan, lyapunov_coefficient_l, transversality, transversality_fd
from predbif.model import ModelParams, State, jacobian, rhs

from paper_forms import frozen_trace, taylor_jet

BASE = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1715598183,
                   delta=0.03070149222, eta=0.1, m=0.8)
#: parameters on the h-offset slice where the interior branch has a Hopf point
SLICE = BASE.with_(h=BASE.h + 0.02)
INTERVAL = (0.0177, 0.017863)


@pytest.fixture(scope="module")
def hopf_point():
    return hopf_scan(SLICE, INTERVAL, n_samples=120, eq_branch=1)[0]


class TestHopfDelta:
    def test_found_in_expected_window(self, hopf_point):
        lo = BASE.delta - 0.01284449222
        hi = BASE.delta - 0.01284149222
        assert lo < hopf_point.delta_H < hi

    def test_trace_vanishes_det_positive(self, hopf_point):
        p = SLICE.with_(delta=hopf_point.delta_H)
        J = jacobian(p, State(hopf_point.equilibrium.x, hopf_point.equilibrium.y))
        assert abs(np.trace(J)) < 1e-8
        assert np.linalg.det(J) > 0

    def test_omega_squared_is_det(self, hopf_point):
        assert hopf_point.omega**2 == pytest.approx(hopf_point.det, abs=1e-10)

    def test_eigenvalues_pure_imaginary(self, hopf_point):
        p = SLICE.with_(delta=hopf_point.delta_H)
        ev = np.linalg.eigvals(
            jacobian(p, State(hopf_point.equilibrium.x, hopf_point.equilibrium.y))
        )
        assert np.max(np.abs(np.real(ev))) < 1e-8
        assert sorted(np.imag(ev)) == pytest.approx([-hopf_point.omega, hopf_point.omega],
                                                    abs=1e-10)

    def test_bt_point_is_not_hopf(self):
        # at the double-zero point trace = 0 but det = 0 too
        with pytest.raises((NoHopf, BranchLost)):
            hopf_scan(BASE, (BASE.delta - 1e-4, BASE.delta + 1e-4), n_samples=40)

    def test_no_branch_raises(self):
        with pytest.raises(NoHopf):
            # lambda2 = 0 slice: no interior equilibria at all
            hopf_scan(SLICE, (BASE.delta - 1e-5, BASE.delta + 1e-5), n_samples=10)


class TestTransversality:
    def test_formula_value(self, hopf_point):
        p = SLICE.with_(delta=hopf_point.delta_H)
        assert transversality(p, hopf_point.equilibrium) == -1.0

    def test_finite_difference_agrees(self, hopf_point):
        p = SLICE.with_(delta=hopf_point.delta_H)
        fd = transversality_fd(p, hopf_point.equilibrium)
        assert fd == pytest.approx(-1.0, abs=1e-8)

    def test_non_equilibrium_flagged(self):
        with pytest.warns(UserWarning, match="non-equilibrium"):
            v = transversality(SLICE, Equilibrium(0.4, 0.4, "Interior"))
        assert v == -1.0

    def test_branch_speed_matches_central_difference(self, hopf_point):
        # d(trace)/d(delta) along the equilibrium curve, by central
        # differences in x of the trace and of delta
        x, e = hopf_point.equilibrium.x, 1e-6
        (p_lo, _, t_lo), (p_hi, _, t_hi) = (_on_equilibrium_curve(SLICE, x + s * e)
                                            for s in (-1, 1))
        fd = (t_hi - t_lo) / (p_hi.delta - p_lo.delta)
        assert hopf_point.transversality_branch == pytest.approx(fd, rel=1e-6)
        assert hopf_point.transversality_branch == pytest.approx(851.93030, rel=1e-7)

    def test_frozen_trace_is_affine_with_known_root(self, hopf_point):
        # synthetic check: the frozen-point trace is affine in delta with
        # root alpha10; bisection must recover it to 1e-10
        p = SLICE.with_(delta=hopf_point.delta_H)
        eq = hopf_point.equilibrium
        root = float(jacobian(p, State(eq.x, eq.y))[0, 0])
        lo, hi = root - 0.01, root + 0.013
        flo = frozen_trace(p, eq, lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = frozen_trace(p, eq, mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        assert 0.5 * (lo + hi) == pytest.approx(root, abs=1e-10)


def printed_l(params, eq):
    """Transcription of the paper's closed-form cycle-stability coefficient
    l at a Hopf point, in its own frame and with its own sign convention:
    the cycle is stable iff l > 0."""
    coef = taylor_jet(params, State(eq.x, eq.y))
    omega = math.sqrt(coef.alpha10 * coef.beta01 - coef.alpha01 * coef.beta10)
    delta = params.delta
    a01 = coef.alpha01
    a20, a11, a21 = coef.alpha20, coef.alpha11, coef.alpha21
    b20, b11, b02 = coef.beta20, coef.beta11, coef.beta02
    b30, b21, b12 = coef.beta30, coef.beta21, coef.beta12
    return (
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


def rotation_frame_field(params, eq):
    """Oracle frame: the vector field in coordinates Y whose linear part is
    the exact rotation [[0, -omega], [omega, 0]].

    With J q = i*omega*q for q = (alpha01, i*omega - alpha10), the basis
    Q = [Re q, -Im q] satisfies Q^-1 J Q = [[0, -omega], [omega, 0]];
    offsets from the equilibrium are Q Y.  Returns (field, omega, Q)."""
    jet = taylor_jet(params, State(eq.x, eq.y))
    omega = math.sqrt(jet.alpha10 * jet.beta01 - jet.alpha01 * jet.beta10)
    Q = np.array([[jet.alpha01, 0.0], [-jet.alpha10, -omega]])
    Qinv = np.linalg.inv(Q)

    def field(Y1, Y2):
        u, v = Q @ (Y1, Y2)
        return Qinv @ rhs(params, State(eq.x + u, eq.y + v))

    return field, omega, Q


def gh_coefficient(field, omega, h):
    """Oracle coefficient: Guckenheimer-Holmes (3.4.2) curvature coefficient
    of Y' = [[0,-w],[w,0]] Y + (f, g), by central finite differences at 0."""

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


def empirical_verdict(params, eq, omega):
    """Oracle verdict on the cycle: the return-map radius ratio over one
    revolution (tol = 1e-12), checked at two seed radii; Attracting or
    Repelling only when the two seeds agree, else Inconclusive."""
    period = 2.0 * math.pi / omega
    signs = []
    for r0 in (1e-3, 5e-4):
        traj = sim.integrate(
            params, State(eq.x + r0, eq.y), 1.6 * period, tol=1e-12, on_failure="keep"
        )
        crossings = sim._section_crossings(traj, eq.x, eq.y)
        if not crossings:
            return "Inconclusive"
        drift = crossings[0][1] / r0 - 1.0
        if abs(drift) < 1e-9:
            return "Inconclusive"
        signs.append(drift > 0)
    if signs[0] != signs[1]:
        return "Inconclusive"
    return "Repelling" if signs[0] else "Attracting"


#: (a, b, c, eta, m) families and h values for the l1 property test; their
#: equilibrium curves carry 13 Hopf points, most of them beyond a fold that
#: hopf_scan's continuation in delta cannot pass
FAMILIES = [(2.0, -2.82, 0.05, 0.1, 0.8), (2.0, -2.0, 0.1, 0.2, 0.5),
            (3.0, -3.0, 0.05, 0.15, 0.6)]
H_VALUES = (0.1, 0.15, 0.18, 0.2, 0.23, 0.26, 0.3)

#: (h, x) of the two Hopf points of FAMILIES[0] where the printed l and l1
#: give opposite verdicts
FOUND_POINTS = [(0.1, 0.81857), (0.15, 0.77075)]


def _on_equilibrium_curve(base, x):
    """(params, y, trace) at the equilibrium with abscissa x: y on the prey
    isocline and delta set so that the predator isocline passes through
    (x, y).  None where y <= 0."""
    y = isocline_y(base, x)
    if y <= 0:
        return None
    p = base.with_(delta=base.eta * y / (base.m + x))
    return p, y, float(np.trace(jacobian(p, State(x, y))))


def _hopf_points_by_x():
    """Zeros of the trace with positive determinant along each equilibrium
    curve, parametrized by x and bisected in x."""
    points = []
    for a, b, c, eta, m in FAMILIES:
        for h in H_VALUES:
            base = ModelParams(a=a, b=b, c=c, h=h, delta=1.0, eta=eta, m=m)
            xs = [float(x) for x in np.linspace(1e-3, 1.0, 400)]
            curve = [_on_equilibrium_curve(base, x) for x in xs]
            for i in range(len(xs) - 1):
                if curve[i] is None or curve[i + 1] is None or curve[i][2] * curve[i + 1][2] >= 0:
                    continue
                lo, hi, tlo = xs[i], xs[i + 1], curve[i][2]
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    tm = _on_equilibrium_curve(base, mid)[2]
                    if tlo * tm <= 0:
                        hi = mid
                    else:
                        lo, tlo = mid, tm
                x = 0.5 * (lo + hi)
                p, y, _ = _on_equilibrium_curve(base, x)
                if np.linalg.det(jacobian(p, State(x, y))) > 0:
                    points.append((p, Equilibrium(x, y, "Interior")))
    return points


def _observed_verdict(hd):
    return empirical_verdict(SLICE.with_(delta=hd.delta_H), hd.equilibrium, hd.omega)


class TestStabilityCoefficient:
    def test_rotation_frame_linear_part(self, hopf_point):
        p = SLICE.with_(delta=hopf_point.delta_H)
        field, omega, _ = rotation_frame_field(p, hopf_point.equilibrium)
        e = 1e-7
        J = np.column_stack([
            (field(e, 0.0) - field(-e, 0.0)) / (2 * e),
            (field(0.0, e) - field(0.0, -e)) / (2 * e),
        ])
        assert J[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert J[1, 1] == pytest.approx(0.0, abs=1e-6)
        assert J[0, 1] == pytest.approx(-omega, rel=1e-5)
        assert J[1, 0] == pytest.approx(omega, rel=1e-5)

    def test_both_paths_finite_and_different(self, hopf_point):
        # the two coefficients differ in frame and normalization, far beyond
        # rounding; computing l1 warns about nothing
        p = SLICE.with_(delta=hopf_point.delta_H)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l1 = lyapunov_coefficient_l(p, hopf_point.equilibrium)
        l_printed = printed_l(p, hopf_point.equilibrium)
        assert type(l1) is float and l1 == hopf_point.l1
        assert np.isfinite(l_printed) and np.isfinite(l1)
        assert abs(l_printed - l1) > 1e-4 * (1.0 + abs(l1))

    def test_l1_matches_rotation_frame_oracle(self, hopf_point):
        # the rotation-frame coefficient is l1 in the frame's normalization:
        # l1 = 2 a_GH / (omega |Q q_Y|^2), q_Y = (1, -i)/sqrt(2) the
        # frame's unit eigenvector of the rotation
        p = SLICE.with_(delta=hopf_point.delta_H)
        l1 = lyapunov_coefficient_l(p, hopf_point.equilibrium)
        field, omega, Q = rotation_frame_field(p, hopf_point.equilibrium)
        q_Y = np.array([1.0, -1.0j]) / math.sqrt(2.0)
        scale = omega * np.linalg.norm(Q @ q_Y) ** 2
        assert l1 == pytest.approx(2.0 * gh_coefficient(field, omega, 3e-4) / scale, rel=1e-5)

    def test_l1_sign_at_hopf_points_located_by_x(self):
        points = _hopf_points_by_x()
        assert len(points) == 13
        decided = 0
        for p, eq in points:
            l1 = lyapunov_coefficient_l(p, eq)
            field, omega, _ = rotation_frame_field(p, eq)
            assert (l1 > 0) == (gh_coefficient(field, omega, 1e-4) > 0), (p, eq)
            verdict = empirical_verdict(p, eq, omega)
            if verdict != "Inconclusive":
                decided += 1
                assert (l1 > 0) == (verdict == "Repelling"), (p, eq)
        assert decided >= 4

    def test_printed_verdict_agrees_with_l1_at_11_of_13_points(self):
        # the printed l calls the cycle stable iff l > 0, l1 iff l1 < 0; the
        # two verdicts differ only at the two points of FOUND_POINTS
        disagree = []
        for p, eq in _hopf_points_by_x():
            if (printed_l(p, eq) > 0) != (lyapunov_coefficient_l(p, eq) < 0):
                disagree.append((p.h, eq.x))
        assert len(disagree) == 2
        for (h, x), (h_found, x_found) in zip(sorted(disagree), FOUND_POINTS):
            assert h == h_found and x == pytest.approx(x_found, abs=1e-5)

    @pytest.mark.parametrize("h, x_hopf", FOUND_POINTS)
    def test_printed_verdict_disagrees_with_l1(self, h, x_hopf):
        # two Hopf points of FAMILIES[0], each just below a fold of its
        # branch, where the printed l calls the cycle stable while l1 > 0
        # says it repels; the rotation-frame oracle sides with l1, and so
        # does the reported verdict
        base = ModelParams(a=2.0, b=-2.82, c=0.05, h=h, delta=1.0, eta=0.1, m=0.8)
        delta = _on_equilibrium_curve(base, x_hopf)[0].delta
        (hd,) = hopf_scan(base.with_(delta=0.99 * delta), (0.99 * delta, 1.0003 * delta),
                          n_samples=20, eq_branch=3)
        assert hd.equilibrium.x == pytest.approx(x_hopf, abs=1e-5)
        assert printed_l(base.with_(delta=hd.delta_H), hd.equilibrium) > 0
        assert hd.l1 > 0 and hd.cycle_verdict == "Repelling"
        field, omega, _ = rotation_frame_field(base.with_(delta=hd.delta_H), hd.equilibrium)
        assert gh_coefficient(field, omega, 1e-4) > 0

    def test_verdicts_consistent_with_observed_cycle(self, hopf_point):
        # the cycle born on this branch is unstable (subcritical Hopf)
        assert hopf_point.cycle_verdict == "Repelling"
        assert _observed_verdict(hopf_point) == "Repelling"

    def test_numeric_standard_convention_matches_empirical(self, hopf_point):
        # positive l1 means repelling under the standard convention
        assert (hopf_point.l1 > 0) == (_observed_verdict(hopf_point) == "Repelling")


class TestHopfScan:
    def test_agreement_across_sample_counts(self, hopf_point):
        pts = hopf_scan(SLICE, INTERVAL, n_samples=30, eq_branch=1)
        assert len(pts) == 1
        assert pts[0].delta_H == pytest.approx(hopf_point.delta_H, abs=1e-9)

    def test_no_sign_change_gives_empty(self):
        assert hopf_scan(SLICE, (0.0177, 0.0178), n_samples=30, eq_branch=1) == []

    def test_fold_crossing_reports_branch_lost(self):
        with pytest.raises(BranchLost) as exc:
            hopf_scan(SLICE, (0.0177, 0.0180), n_samples=60, eq_branch=1)
        lo, hi = exc.value.interval
        assert 0.0177 < lo < hi < 0.0180

    def test_finds_hopf_points_located_by_x(self):
        # a window spanning x_H -/+ 1e-4 of each point's equilibrium curve,
        # with det > 0 at both ends: no fold inside
        for p, eq in _hopf_points_by_x():
            ends = []
            for x in (eq.x - 1e-4, eq.x + 1e-4):
                q, y, _ = _on_equilibrium_curve(p, x)
                assert np.linalg.det(jacobian(q, State(x, y))) > 0, (p, eq)
                ends.append((q.delta, x))
            (lo, x_lo), (hi, _) = sorted(ends)
            eqs = interior_equilibria(p.with_(delta=lo))
            branch = min(range(len(eqs)), key=lambda i: abs(eqs[i].x - x_lo))
            pts = hopf_scan(p, (lo, hi), n_samples=20, eq_branch=branch)
            assert len(pts) == 1, (p, eq)
            assert pts[0].delta_H == pytest.approx(p.delta, abs=1e-12)
            assert pts[0].equilibrium.x == pytest.approx(eq.x, abs=1e-12)
            assert (pts[0].cycle_verdict == "Repelling") == (pts[0].l1 > 0), (p, eq)

    def test_delta_H_does_not_depend_on_the_window(self):
        windows = [((0.0177, 0.017863), 120), ((0.01765, 0.017861), 100),
                   ((0.0178, 0.017859), 150)]
        found = [hopf_scan(SLICE, w, n_samples=n, eq_branch=1) for w, n in windows]
        deltas = [pts[0].delta_H for pts in found]
        assert [len(pts) for pts in found] == [1, 1, 1]
        assert max(deltas) - min(deltas) <= 1e-15

    def test_reported_point_is_an_equilibrium_with_zero_trace(self):
        (hd,) = hopf_scan(SLICE, INTERVAL, n_samples=120, eq_branch=1)
        p = SLICE.with_(delta=hd.delta_H)
        state = State(hd.equilibrium.x, hd.equilibrium.y)
        assert abs(np.trace(jacobian(p, state))) < 1e-12
        assert max(map(abs, rhs(p, state))) < 1e-14

    @pytest.mark.parametrize("window", [INTERVAL, (0.0177, 0.0180)], ids=["hopf", "fold"])
    def test_at_most_two_equilibria_solves(self, window, monkeypatch):
        calls = []

        def counted(params):
            calls.append(params.delta)
            return interior_equilibria(params)

        monkeypatch.setattr(hopf, "interior_equilibria", counted)
        with contextlib.suppress(BranchLost):
            hopf_scan(SLICE, window, n_samples=120, eq_branch=1)
        assert 1 <= len(calls) <= 2

    def test_fold_interval_brackets_the_fold(self):
        with pytest.raises(BranchLost) as exc:
            hopf_scan(SLICE, (0.0177, 0.0180), n_samples=60, eq_branch=1)
        # the fold lies between the two branches at delta_min, where det
        # changes sign along the curve; bisect it there in x
        lo_x, hi_x = (e.x for e in interior_equilibria(SLICE.with_(delta=0.0177)))

        def det(x):
            q, y, _ = _on_equilibrium_curve(SLICE, x)
            return np.linalg.det(jacobian(q, State(x, y)))

        d_lo = det(lo_x)
        for _ in range(60):
            mid = 0.5 * (lo_x + hi_x)
            if d_lo * det(mid) <= 0:
                hi_x = mid
            else:
                lo_x = mid
        delta_fold = _on_equilibrium_curve(SLICE, 0.5 * (lo_x + hi_x))[0].delta
        lo, hi = exc.value.interval
        assert 0.0177 < lo < delta_fold < 0.0180
        assert hi == pytest.approx(delta_fold, abs=1e-14)

    def test_branch_ending_on_the_axis_is_lost(self):
        # on h = c the interior branch reaches x = 0 at delta = eta(1-c)/(c m)
        p = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.05, delta=1.0, eta=0.1, m=0.8)
        with pytest.raises(BranchLost) as exc:
            hopf_scan(p, (0.5, 3.0), n_samples=50)
        lo, hi = exc.value.interval
        assert lo < 0.1 * 0.95 / (0.05 * 0.8) < hi <= 3.0

    @pytest.mark.parametrize("n_samples, eq_branch", [(1, 1), (0, 1), (120, -1)])
    def test_bad_sampling_is_a_domain_error(self, n_samples, eq_branch):
        with pytest.raises(DomainError):
            hopf_scan(SLICE, INTERVAL, n_samples=n_samples, eq_branch=eq_branch)
