"""The result records of ``predbif`` are ``typing.NamedTuple`` classes: their
fields, defaults, immutability and ``repr`` are part of the library's
contract, and ``Trajectory`` keeps ``len`` as its point count."""

import importlib

import pytest

from predbif.errors import ParameterOutOfRange
from predbif.model import ModelParams, State
from predbif.sim import integrate

GOLD = ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1715598183,
                   delta=0.03070149222, eta=0.1, m=0.8)

#: (module, record, field names in order, defaults)
RECORDS = [
    ("model", "ModelParams", ("a", "b", "c", "h", "delta", "eta", "m"), {}),
    ("model", "State", ("x", "y"), {}),
    ("equilibria", "Equilibrium", ("x", "y", "kind", "source"), {"source": ""}),
    ("polyroots", "CubicResolution", ("Delta", "real_roots", "complex_pair"), {}),
    ("polyroots", "FerrariDecomposition", ("roots", "biquadratic", "real_roots"), {}),
    ("stability", "StabilityReport",
     ("eigenvalues", "trace", "det", "label", "sector", "theorem_branch"),
     {"sector": None, "theorem_branch": ""}),
    ("hopf", "HopfData", ("delta_H", "omega", "l1", "transversality", "transversality_branch",
                          "cycle_verdict", "equilibrium", "det"), {}),
    ("bt", "BTPoint", ("x", "y", "h_bt", "delta_bt", "case_tag"), {}),
    ("bt", "BTNormalForm", ("point", "params", "v0", "v1", "w0", "w1", "g20_0", "g11_0",
                            "g02_0", "A0", "B0", "s", "beta_jacobian", "nondegeneracy"), {}),
    ("bt", "CurveSet", ("T", "H", "P", "beta"), {}),
    ("sim", "Trajectory", ("times", "xs", "ys", "dxs", "dys", "terminated"), {}),
    ("sim", "BoundReport", ("x_violation", "y_violation", "ok"), {}),
    ("sim", "CycleProbe", ("found", "period", "stability", "radii"), {}),
]


IDS = [name for _, name, _, _ in RECORDS]


def _record(module, name):
    return getattr(importlib.import_module(f"predbif.{module}"), name)


@pytest.mark.parametrize("module, name, fields, defaults", RECORDS, ids=IDS)
def test_fields_and_defaults(module, name, fields, defaults):
    cls = _record(module, name)
    assert cls._fields == fields
    assert cls._field_defaults == defaults


@pytest.mark.parametrize("module, name, fields, defaults", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(module, name, fields, defaults):
    rec = _record(module, name)(*range(len(fields)))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, -1)
    with pytest.raises(AttributeError):
        rec.extra = -1


def test_repr_is_unchanged():
    assert repr(GOLD) == ("ModelParams(a=2.0, b=-2.82, c=0.05, h=0.1715598183, "
                          "delta=0.03070149222, eta=0.1, m=0.8)")


def test_with_validates():
    assert GOLD.with_(m=0.5) == ModelParams(2.0, -2.82, 0.05, 0.1715598183, 0.03070149222,
                                            0.1, 0.5)
    with pytest.raises(ParameterOutOfRange):
        GOLD.with_(m=-0.1)


def test_records_equal_plain_tuples():
    assert State(0.5, 0.25) == (0.5, 0.25)
    assert GOLD._asdict()["delta"] == 0.03070149222


def test_trajectory_len_is_its_point_count():
    traj = integrate(GOLD, State(0.5, 0.5), 1.0)
    assert len(traj.times) > 2
    assert len(traj) == len(traj.times)
