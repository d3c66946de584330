import numpy as np
import pytest

from dqdtherm.sweep import (
    Axis,
    ConfigError,
    MEASURE_COLUMNS,
    PARAM_NAMES,
    SweepGrid,
    csv_lines,
    evaluate_point,
    find_coherence_peak,
    format_csv_value,
    load_config,
    run_sweep,
)

FIXED = {"t": 7.0, "bz": 16.0, "bx": 100.0, "T": 1.0}


def small_grid(measures=("concurrence",), axis2=None):
    return SweepGrid(
        fixed={k: v for k, v in FIXED.items() if axis2 is None or k != axis2.name},
        axis1=Axis("epsilon", -5.0, 5.0, 3),
        axis2=axis2,
        measures=measures,
    )


def test_axis_values_linear_and_log():
    lin = Axis("epsilon", -1.0, 1.0, 5)
    assert np.array_equal(lin.values(), np.linspace(-1, 1, 5))
    logax = Axis("T", 0.01, 100.0, 5, scale="log")
    assert np.allclose(logax.values(), np.logspace(-2, 2, 5))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name="gamma", lo=0, hi=1, count=5),
        dict(name="epsilon", lo=1, hi=1, count=5),
        dict(name="epsilon", lo=float("nan"), hi=1, count=5),
        dict(name="epsilon", lo=0, hi=1, count=1),
        dict(name="epsilon", lo=0, hi=1, count=5, scale="cubic"),
        dict(name="T", lo=0.0, hi=1, count=5, scale="log"),
    ],
)
def test_axis_rejects_bad_specs(kwargs):
    with pytest.raises(ConfigError):
        Axis(**kwargs)


def test_grid_partition_validation():
    ax = Axis("epsilon", -5.0, 5.0, 3)
    with pytest.raises(ConfigError):  # epsilon both fixed and swept
        SweepGrid(fixed=dict(FIXED, epsilon=0.0), axis1=ax, axis2=None, measures=("concurrence",))
    with pytest.raises(ConfigError):  # T missing entirely
        SweepGrid(
            fixed={"t": 7.0, "bz": 16.0, "bx": 100.0},
            axis1=ax,
            axis2=None,
            measures=("concurrence",),
        )
    with pytest.raises(ConfigError):  # duplicate axes
        SweepGrid(fixed=FIXED, axis1=ax, axis2=ax, measures=("concurrence",))
    with pytest.raises(ConfigError):  # unknown measure
        SweepGrid(fixed=FIXED, axis1=ax, axis2=None, measures=("entropy",))
    with pytest.raises(ConfigError):  # no measures
        SweepGrid(fixed=FIXED, axis1=ax, axis2=None, measures=())


def test_run_sweep_row_major_order():
    grid = SweepGrid(
        fixed={"t": 7.0, "bz": 16.0, "bx": 100.0},
        axis1=Axis("epsilon", 0.0, 1.0, 2),
        axis2=Axis("T", 1.0, 3.0, 3),
        measures=("populations",),
    )
    records = run_sweep(grid)
    assert len(records) == 6
    seen = [(r.params["epsilon"], r.params["T"]) for r in records]
    assert seen == [(e, t) for e in (0.0, 1.0) for t in (1.0, 2.0, 3.0)]
    for rec in records:
        total = sum(rec.values[c] for c in MEASURE_COLUMNS["populations"])
        assert total == pytest.approx(1.0, abs=1e-10)


def test_run_sweep_deterministic_lines():
    grid = small_grid(measures=("concurrence", "l1"))
    first = csv_lines(grid, run_sweep(grid))
    second = csv_lines(grid, run_sweep(grid))
    assert first == second
    header = first[0].split(",")
    assert header == list(PARAM_NAMES) + ["C", "l1"]


def test_run_sweep_matches_pointwise_evaluation():
    grid = small_grid(measures=("concurrence",))
    records = run_sweep(grid)
    for rec in records:
        direct = evaluate_point(rec.params, ("concurrence",))
        assert rec.values["C"] == direct["C"]


def test_closed_form_columns_track_residual():
    point = dict(FIXED, epsilon=1.0, bx=0.0)
    out = evaluate_point(point, ("concurrence", "concurrence_closed"))
    # decoupled sectors: both routes agree that there is no entanglement
    assert out["C"] <= 1e-10
    assert out["C_residual"] == pytest.approx(out["C_closed"] - out["C"], abs=1e-15)


def test_energies_measure_skips_thermal_state():
    out = evaluate_point({"epsilon": 0.0, "t": 7.0, "bz": 16.0, "bx": 100.0, "T": 1.0}, ("energies",))
    assert out["E1"] == pytest.approx(52.2015, abs=1e-4)
    assert out["E2"] == -out["E1"]


def test_format_csv_value():
    assert format_csv_value(1.0 / 3.0) == "0.333333333333"
    assert format_csv_value(-0.0) == "0"
    assert format_csv_value(0.0) == "0"
    assert format_csv_value(2.0) == "2"
    assert format_csv_value(1e-30) == "1e-30"
    assert format_csv_value(123456.789) == "123456.789"


def test_find_coherence_peak_smoke():
    t_peak, value = find_coherence_peak(1.0, 7.0, 16.0, 100.0, count=100)
    assert t_peak == pytest.approx(6.0, abs=1.0)
    assert value > 1.0


CONFIG = """
[fixed]
t = 7.0
bz = 16.0
bx = 100.0

[axis1]
name = epsilon
min = -5
max = 5
count = 3

[axis2]
name = T
min = 0.1
max = 10
count = 3
scale = log

[output]
measures = concurrence, correlated_coherence
path = out.csv
"""


def test_load_config_round_trip(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(CONFIG)
    grid, out_path = load_config(cfg)
    assert out_path == "out.csv"
    assert grid.axis1.name == "epsilon" and grid.axis1.count == 3
    assert grid.axis2.name == "T" and grid.axis2.scale == "log"
    assert grid.measures == ("concurrence", "correlated_coherence")
    assert grid.fixed == {"t": 7.0, "bz": 16.0, "bx": 100.0}
    records = run_sweep(grid)
    assert len(records) == 9


def test_load_config_fixed_temperature_key_is_case_sensitive(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[fixed]\nepsilon = 1\nt = 7\nbz = 16\nbx = 100\n"
        "[axis1]\nname = T\nmin = 0.1\nmax = 10\ncount = 4\nscale = log\n"
        "[output]\nmeasures = l1\n"
    )
    grid, out_path = load_config(cfg)
    assert out_path is None
    assert grid.axis1.name == "T"
    assert grid.fixed["t"] == 7.0


@pytest.mark.parametrize(
    "text",
    [
        "[axis1]\nname = epsilon\nmin = 0\nmax = 1\ncount = 3\n[output]\nmeasures = l1\n",
        CONFIG.replace("[output]", "[extra]\nfoo = 1\n\n[output]"),
        CONFIG.replace("count = 3", "count = one", 1),
        CONFIG.replace("name = epsilon", "name = epsilon\nstep = 0.5"),
        CONFIG.replace("measures = concurrence, correlated_coherence", "measures = "),
        CONFIG.replace("path = out.csv", "path = out.csv\nformat = json"),
    ],
)
def test_load_config_rejects_malformed(tmp_path, text):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(text)
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")
