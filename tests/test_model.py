import itertools
import math
import warnings

import numpy as np
import pytest

from predbif.equilibria import interior_equilibria
from predbif.errors import DomainError, NotAnEquilibrium, ParameterOutOfRange
from predbif.model import ModelParams, State, field, jacobian, jet, linspace, rhs, validate

from paper_forms import OriginalParams, rescale_parameters, taylor_jet

GOLD = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1715598183,
                   delta=0.03070149222, eta=0.1, m=0.8)


def random_params(rng):
    a = rng.uniform(0.2, 3.0)
    return ModelParams(
        a=a,
        b=rng.uniform(-1.9 * math.sqrt(a), 3.0),
        c=rng.uniform(0.05, 1.5),
        h=rng.uniform(0.05, 1.5),
        delta=rng.uniform(0.05, 1.5),
        eta=rng.uniform(0.05, 1.5),
        m=rng.uniform(0.1, 2.0),
    )


class TestValidate:
    def test_accepts_golden(self):
        assert validate(GOLD) is GOLD

    @pytest.mark.parametrize("field", ["a", "c", "h", "delta", "eta"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ParameterOutOfRange):
            validate(ModelParams(**{**GOLD.__dict__, field: 0.0}))

    def test_rejects_negative_m(self):
        with pytest.raises(ParameterOutOfRange):
            validate(ModelParams(**{**GOLD.__dict__, "m": -0.1}))

    def test_m_zero_rejected(self):
        # m = n/k with n > 0, as rescale_parameters requires
        with pytest.raises(ParameterOutOfRange, match="m must be strictly positive"):
            validate(ModelParams(**{**GOLD.__dict__, "m": 0.0}))

    def test_denominator_positivity_constraint(self):
        with pytest.raises(ParameterOutOfRange):
            validate(ModelParams(a=1.0, b=-2.0, c=0.1, h=0.1, delta=0.1, eta=0.1, m=1.0))
        # just inside the constraint is fine
        validate(ModelParams(a=1.0, b=-1.999, c=0.1, h=0.1, delta=0.1, eta=0.1, m=1.0))


class TestRescaling:
    def test_roundtrip_values(self):
        orig = OriginalParams(r=2.0, k=10.0, q=0.5, E=1.0, m1=0.3, m2=0.6,
                              s=0.4, a1=0.02, b1=0.1, a2=0.7, n=4.0, mbar=0.35)
        p = rescale_parameters(orig)
        assert p.a == pytest.approx(0.02 * 100.0)
        assert p.b == pytest.approx(0.1 * 10.0)
        assert p.c == pytest.approx(0.3 * 1.0 / (0.6 * 10.0))
        assert p.h == pytest.approx(0.5 * 1.0 / (2.0 * 0.6 * 10.0))
        assert p.delta == pytest.approx(0.4 / 2.0)
        assert p.eta == pytest.approx(0.4 * 0.7 / (0.35 * 100.0))
        assert p.m == pytest.approx(4.0 / 10.0)

    def test_rejects_nonpositive_original(self):
        orig = OriginalParams(r=2.0, k=10.0, q=0.5, E=0.0, m1=0.3, m2=0.6,
                              s=0.4, a1=0.02, b1=0.1, a2=0.7, n=4.0, mbar=0.35)
        with pytest.raises(ParameterOutOfRange):
            rescale_parameters(orig)


class TestRhs:
    def test_axis_values(self):
        dx, dy = rhs(GOLD, State(0.0, 0.5))
        assert dx == 0.0
        assert dy == pytest.approx(0.5 * (GOLD.delta - GOLD.eta * 0.5 / GOLD.m))

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            rhs(GOLD, State(-0.1, 0.5))

    def test_m_zero_origin_singular(self):
        p = ModelParams(**{**GOLD.__dict__, "m": 0.0})
        with pytest.raises(DomainError):
            rhs(p, State(0.0, 0.5))


class TestJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            p = random_params(rng)
            x, y = rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5)
            J = jacobian(p, State(x, y))
            eps = 1e-6
            Jfd = np.empty((2, 2))
            for j, (dx_, dy_) in enumerate([(eps, 0.0), (0.0, eps)]):
                fp = rhs(p, State(x + dx_, y + dy_))
                fm = rhs(p, State(x - dx_, y - dy_))
                Jfd[:, j] = (np.asarray(fp) - np.asarray(fm)) / (2.0 * eps)
            worst = max(worst, np.max(np.abs(J - Jfd) / (1.0 + np.abs(Jfd))))
        assert worst < 1e-6


#: central-difference weights of the d^n/dz^n stencils, by offset in steps
_STENCILS = {
    0: {0: 1.0},
    1: {1: 0.5, -1: -0.5},
    2: {1: 1.0, 0: -2.0, -1: 1.0},
    3: {2: 0.5, 1: -1.0, -1: 1.0, -2: -0.5},
}


def _fd_partials(p, x, y):
    """Every d^i/dx^i d^j/dy^j rhs with i + j <= 3 by central differences,
    Richardson-extrapolated over steps 2e-3 and 1e-3 as in acceptance
    criterion 8."""
    def at_step(e):
        out = {}
        for i in range(4):
            for j in range(4 - i):
                acc = np.zeros(2)
                for kx, wx in _STENCILS[i].items():
                    for ky, wy in _STENCILS[j].items():
                        acc += wx * wy * np.asarray(rhs(p, State(x + kx * e, y + ky * e)))
                out[i, j] = acc / e ** (i + j)
        return out

    d1, d2 = at_step(2e-3), at_step(1e-3)
    return {k: (4.0 * d2[k] - d1[k]) / 3.0 for k in d1}


class TestTaylorJet:
    def test_requires_equilibrium(self):
        with pytest.raises(NotAnEquilibrium):
            taylor_jet(GOLD, State(0.5, 0.5))

    def test_jet_matches_finite_differences(self):
        from predbif.equilibria import interior_equilibria
        rng = np.random.default_rng(11)
        checked = 0
        names = ["alpha20", "alpha11", "alpha30", "alpha21",
                 "beta20", "beta11", "beta02", "beta30", "beta21", "beta12"]
        while checked < 25:
            p = random_params(rng)
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                eqs = interior_equilibria(p)
            if not eqs:
                continue
            eq = eqs[0].state
            jet = taylor_jet(p, eq)
            fd = _fd_partials(p, eq.x, eq.y)
            for name in names:
                i, j = int(name[-2]), int(name[-1])
                want = fd[i, j][int(name.startswith("beta"))]
                want /= math.factorial(i) * math.factorial(j)
                assert getattr(jet, name) == pytest.approx(want, rel=1e-5, abs=1e-5), name
            # linear part matches the Jacobian
            J = jacobian(p, eq)
            assert jet.alpha10 == pytest.approx(J[0, 0])
            assert jet.beta01 == pytest.approx(J[1, 1])
            checked += 1


def _entry(tensor, index):
    for axis in index:
        tensor = tensor[axis]
    return tensor


def _jet_points():
    """25 seeded points off equilibria and 25 interior equilibria."""
    rng = np.random.default_rng(29)
    points = []
    while len(points) < 25:
        points.append((random_params(rng), rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5)))
    while len(points) < 50:
        p = random_params(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eqs = interior_equilibria(p)
        if eqs and eqs[0].x > 0.01:
            points.append((p, float(eqs[0].x), float(eqs[0].y)))
    return points


JET_POINTS = _jet_points()


def _bits(t):
    """The float.hex of every entry of a nested tuple of floats, so that -0.0
    differs from 0.0."""
    return tuple(map(_bits, t)) if isinstance(t, tuple) else t.hex()


class TestJet:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_derivatives_match_finite_differences(self, order):
        for p, x, y in JET_POINTS:
            tensor = jet(p, x, y)[order]
            fd = _fd_partials(p, x, y)
            for k in (0, 1):
                # every index order, so the symmetry of the tensor is checked too
                for index in itertools.product((0, 1), repeat=order):
                    want = fd[index.count(0), index.count(1)][k]
                    got = _entry(tensor[k], index)
                    assert type(got) is float
                    assert got == pytest.approx(want, rel=1e-5, abs=1e-5), (p, x, y, k, index)

    def test_value_is_rhs(self):
        for p, x, y in JET_POINTS:
            assert jet(p, x, y)[0] == rhs(p, State(x, y))

    @pytest.mark.parametrize("name, slot", [("h", 4), ("delta", 5)])
    def test_parameter_partials_match_differences(self, name, slot):
        e = 1e-3
        for p, x, y in JET_POINTS:
            hi = _fd_partials(p.with_(**{name: getattr(p, name) + e}), x, y)
            lo = _fd_partials(p.with_(**{name: getattr(p, name) - e}), x, y)
            partials = jet(p, x, y)[slot]
            for order in range(3):
                for k in (0, 1):
                    for index in itertools.product((0, 1), repeat=order):
                        key = index.count(0), index.count(1)
                        want = (hi[key][k] - lo[key][k]) / (2.0 * e)
                        got = _entry(partials[order][k], index)
                        assert got == pytest.approx(want, rel=1e-5, abs=1e-5), (name, k, index)

    def test_field_is_the_first_order_part(self):
        rng = np.random.default_rng(37)
        for p, x, y in JET_POINTS:
            dh, dd = (float(v) for v in rng.uniform(-0.04, 0.04, size=2))
            assert _bits(field(p, x, y, dh, dd)) == _bits(jet(p, x, y, dh, dd)[:2])
            assert _bits(field(p, x, y)[0]) == _bits(rhs(p, State(x, y)))

    def test_first_derivatives_equal_jacobian(self):
        for p, x, y in JET_POINTS:
            DF = field(p, x, y)[1]
            assert _bits(jet(p, x, y)[1]) == _bits(DF)
            assert _bits(tuple(map(tuple, jacobian(p, State(x, y)).tolist()))) == _bits(DF)

    def test_offsets_agree_with_shifted_params(self):
        rng = np.random.default_rng(31)
        for p, x, y in JET_POINTS:
            dh, dd = rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04)
            shifted = p.with_(h=p.h + dh, delta=p.delta + dd)
            assert jet(p, x, y, dh, dd) == jet(shifted, x, y)

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            jet(GOLD, -0.1, 0.5)
        with pytest.raises(DomainError):
            jet(ModelParams(**{**GOLD.__dict__, "m": 0.0}), 0.0, 0.5)


class TestLinspace:
    def test_equals_numpy_bit_for_bit(self):
        rng = np.random.default_rng(41)
        cases = [(0.0, 1e-4, 1), (0.0, 1e-4, 2), (-1e-4, 1e-4, 64), (0.05, 0.95, 10),
                 (0.3, 0.3, 5), (0.9, 0.1, 7), (-0.0, 1.0, 1), (2.0, -3.0, 2)]
        lows, highs = rng.uniform(-10, 10, (2, 2000)).tolist()
        cases += zip(lows, highs, rng.integers(1, 200, 2000).tolist())
        for lo, hi, n in cases:
            got = linspace(lo, hi, n)
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == [v.hex() for v in np.linspace(lo, hi, n).tolist()], \
                (lo, hi, n)
