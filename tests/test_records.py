"""The record types: named tuples, immutable, compared by value, checked on every copy."""

import copy
import pickle

import numpy as np
import pytest

from dqdtherm import thermal
from dqdtherm.model import ModelParams, find_anticrossing, ground_state, spectrum
from dqdtherm.qmatrix import ValidationError, eig_sym
from dqdtherm.sweep import Axis, ConfigError, SweepGrid
from dqdtherm.thermal import thermal_state
from dqdtherm.validate import CheckResult

P = ModelParams(1, 7, 16, 100)
T_AXIS = Axis("T", 0.01, 100, 5, "log")
GRID = SweepGrid({"epsilon": 1, "t": 7, "bz": 16}, Axis("bx", 1, 100, 3), T_AXIS,
                 ["concurrence"])


def records():
    """One record of each type the package returns or takes, by type name."""
    state = thermal_state(P, 1.0)
    cols = {k: np.array([v]) for k, v in zip(("epsilon", "t", "bz", "bx", "T"), (*P, 1.0))}
    return {
        "EigenDecomp": eig_sym(np.eye(2)),
        "ModelParams": P,
        "SpectrumResult": spectrum(P),
        "GroundState": ground_state(P),
        "Anticrossing": find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (50.0, 150.0)),
        "ThermalState": state,
        "_Gibbs": thermal._gibbs_columns(cols)[0],
        "Axis": T_AXIS,
        "SweepGrid": GRID,
    }


@pytest.mark.parametrize("name", list(records()))
def test_a_record_is_a_named_tuple_that_refuses_assignment(name):
    record = records()[name]
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and len(record) == len(record._fields)
    assert list(record) == [getattr(record, f) for f in record._fields]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1.0


def test_records_with_equal_fields_compare_equal():
    assert ModelParams(epsilon=1.0, t=7.0, bz=16.0, bx=100.0) == P
    assert ModelParams(1, 7, 16, 100.5) != P
    assert Axis(name="T", lo=0.01, hi=100.0, count=5, scale="log") == T_AXIS
    assert Axis("T", 0.01, 100.0, 5) != T_AXIS
    assert SweepGrid(GRID.fixed, GRID.axis1, GRID.axis2, ("concurrence",)) == GRID
    assert hash(ModelParams(1.0, 7.0, 16.0, 100.0)) == hash(P)
    assert CheckResult("trace", True, 1e-12, 3) == CheckResult("trace", True, 1e-12, samples=3)
    assert CheckResult("trace", True, 1e-12, 3) != CheckResult("trace", True, 1e-12, 4)


def test_a_record_prints_as_its_constructor_call():
    # error messages embed these texts
    assert repr(P) == "ModelParams(epsilon=1.0, t=7.0, bz=16.0, bx=100.0)"
    assert str(P) == repr(P)
    assert repr(Axis("T", 1, 2, 3)) == "Axis(name='T', lo=1.0, hi=2.0, count=3, scale='linear')"
    assert repr(CheckResult("psd", True, 1e-12)) == (
        "CheckResult(name='psd', hard=True, tolerance=1e-12, samples=0, flagged=0, "
        "max_residual=0.0, worst_point='')"
    )


def test_a_copy_made_through_the_named_tuple_api_is_checked_again():
    assert P._replace(t="8") == ModelParams(1, 8, 16, 100)
    assert type(P._replace(t=8)) is ModelParams
    with pytest.raises(ValidationError, match="^tunneling t must be >= 0, got -1.0$"):
        P._replace(t=-1)
    with pytest.raises(ValidationError, match="^bx must be finite, got nan$"):
        ModelParams._make([1, 7, 16, float("nan")])
    with pytest.raises(ConfigError, match=r"^axis T: need finite lo < hi, got \[200, 100.0\]$"):
        T_AXIS._replace(lo=200)
    with pytest.raises(ConfigError, match="^axis T: count must be >= 2, got 1$"):
        T_AXIS._replace(count=1)
    with pytest.raises(ConfigError, match="^unknown measure 'C'$"):
        GRID._replace(measures=("C",))
    with pytest.raises(ConfigError, match="^tunneling t must be >= 0, got -7.0$"):
        GRID._replace(fixed={"epsilon": 1, "t": -7, "bz": 16})
    with pytest.raises(ValueError, match=r"unexpected field names: \['gamma'\]"):
        P._replace(gamma=1.0)


@pytest.mark.parametrize("record", [P, T_AXIS, GRID], ids=["ModelParams", "Axis", "SweepGrid"])
def test_a_checked_record_survives_copy_and_pickle(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
