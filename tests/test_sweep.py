import io
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dqdtherm import correlations, sweep, thermal, validate
from dqdtherm.cli import main
from dqdtherm.correlations import (
    concurrence,
    correlated_coherence,
    fidelity_pure,
    l1_coherence,
)
from dqdtherm.model import (
    ModelParams,
    analytic_energies,
    find_anticrossing,
    ground_state,
)
from dqdtherm.qmatrix import (
    EigenDecomp,
    NotPositiveSemidefiniteError,
    ValidationError,
    eig_sym,
)
from dqdtherm.sweep import (
    Axis,
    ConfigError,
    MEASURE_COLUMNS,
    PARAM_NAMES,
    SweepGrid,
    find_coherence_peak,
    load_config,
    sweep_columns,
    write_table,
)
from dqdtherm.thermal import populations, thermal_state

from csv_oracle import format_csv_value

FIXED = {"t": 7.0, "bz": 16.0, "bx": 100.0, "T": 1.0}


def small_grid(measures=("concurrence",), axis2=None):
    return SweepGrid(
        fixed={k: v for k, v in FIXED.items() if axis2 is None or k != axis2.name},
        axis1=Axis("epsilon", -5.0, 5.0, 3),
        axis2=axis2,
        measures=measures,
    )


def grid_points(grid):
    """Each grid point as the dict error messages show, row-major: fixed values, axis1, axis2."""
    axes = [grid.axis1] + ([grid.axis2] if grid.axis2 is not None else [])
    return [dict(grid.fixed, **{a.name: float(v) for a, v in zip(axes, values)})
            for values in itertools.product(*(a.values() for a in axes))]


def grid_point(grid, i):
    """Grid point i as the dict that error messages show."""
    return grid_points(grid)[i]


def grid_columns(grid):
    """The grid's parameters as whole columns, row-major, built point by point."""
    points = grid_points(grid)
    return {k: np.array([p[k] for p in points]) for k in points[0]}


def evaluate(grid):
    """The evaluated grid as whole columns: the blocks of sweep_columns, joined."""
    blocks = list(sweep_columns(grid))
    return {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}


def grid_rows(grid):
    """Each point of the evaluated grid as (parameters, measure values), row-major."""
    columns = evaluate(grid)
    n = len(columns["T"])
    return [
        ({k: float(columns[k][i]) for k in PARAM_NAMES},
         {c: float(columns[c][i]) for c in grid.columns()})
        for i in range(n)
    ]


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
        dict(name="epsilon", lo=0, hi=1, count=2.7),
        dict(name="epsilon", lo=0, hi=1, count=float("nan")),
        dict(name="epsilon", lo=0, hi=1, count=float("inf")),
        dict(name="epsilon", lo=0, hi=1, count="3"),
        dict(name="epsilon", lo=0, hi=1, count=None),
        # hi - lo overflows: np.linspace would give [nan, inf, 1e308]
        dict(name="bx", lo=-1e308, hi=1e308, count=3),
        dict(name="epsilon", lo=-1.7e308, hi=1.7e308, count=2),
        # the top of a log axis rounds up past the largest float
        dict(name="T", lo=1.0, hi=np.finfo(float).max, count=3, scale="log"),
        # its doubles exceed numpy's largest array
        dict(name="epsilon", lo=0, hi=1, count=10**20),
    ],
)
def test_axis_rejects_bad_specs(kwargs):
    with pytest.raises(ConfigError):
        Axis(**kwargs)


def test_axis_takes_an_integral_count_of_any_number_type():
    assert Axis("T", 1.0, 2.0, 3.0).count == 3
    assert Axis("T", 1.0, 2.0, np.int64(4)).count == 4
    assert type(Axis("T", 1.0, 2.0, 3.0).count) is int


# temperatures from the smallest subnormal to near the largest double, half
# of them log-uniform
POSITIVE = st.one_of(st.floats(5e-324, 1.7e308),
                     st.floats(-323.3, 308.2).map(lambda e: min(max(10.0**e, 5e-324), 1.7e308)))


@settings(max_examples=300, deadline=None)
@given(POSITIVE, POSITIVE, st.integers(2, 64), st.sampled_from(["linear", "log"]))
@example(5e-324, 1.7e308, 2, "linear")
@example(5e-324, 1.7e308, 64, "log")
@example(5e-324, 1e-323, 64, "linear")
def test_every_temperature_axis_that_constructs_gives_positive_finite_values(lo, hi, count, scale):
    # _gibbs does not test T: SweepGrid tests a T axis's lo, so every value must be valid
    try:
        axis = Axis("T", *sorted((lo, hi)), count, scale)
    except ConfigError:
        assume(False)
    values = axis.values()
    assert np.all(np.isfinite(values) & (values > 0.0))


EPS_AXIS = Axis("epsilon", -5.0, 5.0, 3)
MODEL_FIXED = {"epsilon": 0.0, "t": 7.0, "bz": 16.0, "bx": 100.0}


@pytest.mark.parametrize(
    "fixed, axis1, axis2, measures, message",
    [
        (dict(FIXED, epsilon=0.0), EPS_AXIS, None, ("concurrence",), "both fixed and swept"),
        ({"t": 7.0, "bz": 16.0, "bx": 100.0}, EPS_AXIS, None, ("concurrence",),
         "not specified"),
        (FIXED, EPS_AXIS, EPS_AXIS, ("concurrence",), "same parameter"),
        (FIXED, EPS_AXIS, None, ("entropy",), "unknown measure"),
        (FIXED, EPS_AXIS, None, (), "at least one measure"),
        (FIXED, EPS_AXIS, None, "concurrence",
         "measures must be a sequence of measure names, got 'concurrence'"),
        (FIXED, EPS_AXIS, None, None, "measures must be a sequence of measure names, got None"),
        (FIXED, EPS_AXIS, None, 5, "measures must be a sequence of measure names, got 5"),
        (FIXED, EPS_AXIS, None, [["concurrence"]],
         r"measures must be a sequence of measure names, got \[\['concurrence'\]\]"),
        # every point is a valid input, checked at the fixed values and each axis's lo
        (dict(FIXED, bx=float("inf")), EPS_AXIS, None, ("concurrence",),
         "bx must be finite, got inf"),
        (dict(FIXED, t=-1.0), EPS_AXIS, None, ("concurrence",), "t must be >= 0, got -1.0"),
        ({"bz": 16.0, "bx": 100.0, "T": 1.0}, Axis("t", -1.0, 1.0, 3), EPS_AXIS,
         ("concurrence",), "t must be >= 0, got -1.0"),
        (dict(FIXED, T=0.0), EPS_AXIS, None, ("concurrence",),
         "temperature must be positive, got 0.0"),
        (MODEL_FIXED, Axis("T", -1.0, 2.0, 4), None, ("concurrence",),
         "temperature must be positive, got -1.0"),
        (dict(FIXED, t="x"), EPS_AXIS, None, ("concurrence",), "t must be a real number, got 'x'"),
        (dict(FIXED, t=None), EPS_AXIS, None, ("concurrence",),
         "t must be a real number, got None"),
        (dict(FIXED, t=10**400), EPS_AXIS, None, ("concurrence",),
         "t must be a real number, got 1000"),
    ],
    ids=["fixed-and-swept", "missing", "same-axes", "unknown-measure", "no-measures",
         "measures-str", "measures-None", "measures-int", "measures-nested", "fixed-inf", "fixed-t", "t-axis", "fixed-T", "T-axis", "fixed-str",
         "fixed-None", "fixed-huge-int"],
)
def test_grid_partition_validation(fixed, axis1, axis2, measures, message):
    with pytest.raises(ConfigError, match=message):
        SweepGrid(fixed=fixed, axis1=axis1, axis2=axis2, measures=measures)


def test_sweep_columns_row_major_order():
    grid = SweepGrid(
        fixed={"t": 7.0, "bz": 16.0, "bx": 100.0},
        axis1=Axis("epsilon", 0.0, 1.0, 2),
        axis2=Axis("T", 1.0, 3.0, 3),
        measures=("populations",),
    )
    rows = grid_rows(grid)
    assert len(rows) == 6
    seen = [(params["epsilon"], params["T"]) for params, _ in rows]
    assert seen == [(e, t) for e in (0.0, 1.0) for t in (1.0, 2.0, 3.0)]
    for _, values in rows:
        total = sum(values[c] for c in MEASURE_COLUMNS["populations"])
        assert total == pytest.approx(1.0, abs=1e-10)


def sweep_csv(grid):
    """The CSV the sweep subcommand writes for grid."""
    stream = io.StringIO()
    write_table(stream, grid, PARAM_NAMES + grid.columns())
    return stream.getvalue()


def test_sweep_csv_is_deterministic():
    grid = small_grid(measures=("concurrence", "l1"))
    first = sweep_csv(grid)
    assert first == sweep_csv(grid)
    header = first.split("\n")[0].split(",")
    assert header == list(PARAM_NAMES) + ["C", "l1"]


def test_sweep_columns_match_the_scalar_concurrence():
    grid = small_grid(measures=("concurrence",))
    for params, values in grid_rows(grid):
        p = ModelParams(params["epsilon"], params["t"], params["bz"], params["bx"])
        assert values["C"] == concurrence(thermal_state(p, params["T"]))


def test_energies_measure_skips_thermal_state(monkeypatch):
    def no_gibbs(*args, **kwargs):
        raise AssertionError("the energies measure built a Gibbs state")

    monkeypatch.setattr(thermal, "_gibbs", no_gibbs)
    params, values = grid_rows(small_grid(measures=("energies",)))[1]
    assert params["epsilon"] == 0.0
    assert values["E1"] == pytest.approx(52.2015, abs=1e-4)
    assert values["E2"] == -values["E1"]


def test_format_csv_value():
    assert format_csv_value(1.0 / 3.0) == "0.333333333333"
    assert format_csv_value(-0.0) == "0"
    assert format_csv_value(0.0) == "0"
    assert format_csv_value(2.0) == "2"
    assert format_csv_value(1e-30) == "1e-30"
    assert format_csv_value(123456.789) == "123456.789"


def per_value_text(header, rows):
    """The CSV a writer of one format_csv_value call per value prints."""
    lines = [",".join(header)] + [",".join(format_csv_value(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


CSV_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1e308, -1e308,
         1.0, -3.0, 2.0**53, 1e16, 123456789012.0, 1.0 / 3.0, -2.0 / 3.0]
    ),
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
)


# fixed values, and axis ends, that each parameter admits
GRID_VALUES = {
    "epsilon": [-0.0, 1e-30, 1e20, 1.0, -3.5],
    "t": [-0.0, 1e-30, 1e20, 7.0],
    "bz": [-0.0, 1e-30, 1e20, 16.0, -2.0],
    "bx": [-0.0, 1e-30, 1e20, 100.0, -1.0],
    "T": [1e-30, 1e20, 0.2, 1.5],
}


@st.composite
def grids_and_headers(draw):
    """A one- or two-axis grid with a header: the sweep or the concurrence-map layout."""
    if draw(st.booleans()):  # concurrence-map: bx by T (eps fixed) or by eps (T fixed)
        names = ["bx", draw(st.sampled_from(["T", "epsilon"]))]
        measures = ("concurrence",)
    else:
        names = draw(st.permutations(PARAM_NAMES))[: draw(st.integers(1, 2))]
        measures = draw(st.lists(st.sampled_from(list(MEASURE_COLUMNS)), min_size=1, unique=True))
    axes = []
    for name in names:
        lo = draw(st.sampled_from(GRID_VALUES[name]))
        hi = max(lo + draw(st.sampled_from([1.0, 3.3, 1e20])), 2.0 * lo)  # 1e20 + 1 is 1e20
        scale = draw(st.sampled_from(["linear", "log"] if lo > 0 else ["linear"]))
        axes.append(Axis(name, lo, hi, draw(st.integers(2, 7)), scale))
    fixed = {k: draw(st.sampled_from(GRID_VALUES[k])) for k in PARAM_NAMES if k not in names}
    grid = SweepGrid(fixed, axes[0], axes[1] if len(axes) > 1 else None, measures)
    if measures == ("concurrence",) and names[0] == "bx" and len(names) == 2 and draw(st.booleans()):
        header = ("bx", "T" if names[1] == "T" else "eps", "C")
    else:
        header = PARAM_NAMES + grid.columns()
    return grid, header


def csv_of_columns(grid, columns, header):
    """The CSV write_table prints of grid, and the per-value formatting of columns."""
    stream = io.StringIO()
    write_table(stream, grid, header)
    keys = ["epsilon" if h == "eps" else h for h in header]
    rows = zip(*(columns[k] for k in keys))
    return stream.getvalue(), per_value_text(header, rows)


@settings(max_examples=200, deadline=None)
@given(grids_and_headers(), st.integers(1, 20), st.data())
def test_write_table_equals_per_value_formatting(grid_header, block, data):
    # the measure columns hold any double: -0, subnormals, inf and nan among them
    grid, header = grid_header
    columns = grid_columns(grid)
    n = len(columns["T"])
    measures = {c: np.array(data.draw(st.lists(CSV_FLOATS, min_size=n, max_size=n)), dtype=float)
                for c in grid.columns()}
    rows = [0]

    def drawn(cols, _):  # each block's measures: the next rows of the drawn columns
        rows[0] += len(cols["T"])
        return {c: v[rows[0] - len(cols["T"]) : rows[0]] for c, v in measures.items()}

    with mock.patch.object(sweep, "_BLOCK", block), mock.patch.object(sweep, "_evaluate", drawn):
        written, expected = csv_of_columns(grid, {**columns, **measures}, header)
    assert written == expected


@settings(max_examples=100, deadline=None)
@given(grids_and_headers(), st.integers(1, 20))
def test_write_table_of_sweep_columns_equals_per_value_formatting(grid_header, block):
    # blocks that split runs, do not divide axis2.count, or are shorter than one row
    grid, header = grid_header
    with mock.patch.object(sweep, "_BLOCK", block):
        written, expected = csv_of_columns(grid, evaluate(grid), header)
    assert written == expected


def test_write_table_formats_each_block_of_rows_at_once(monkeypatch):
    # one write for the header, then one per block of whole runs of axis2.count rows
    writes = []

    class Stream:
        write = writes.append

    for block, axis2, lines in [
        (4, None, [1, 4, 4, 3]),  # 11 one-row runs in blocks of 4
        (5, Axis("T", 0.1, 10.0, 4, "log"), [1, 4, 4, 4]),  # runs of 4 never split
        (3, Axis("T", 0.1, 10.0, 4, "log"), [1, 4, 4, 4]),  # a block shorter than a run
        (9, Axis("T", 0.1, 10.0, 4, "log"), [1, 8, 4]),  # two runs per block
    ]:
        monkeypatch.setattr(sweep, "_BLOCK", block)
        grid = SweepGrid(
            fixed={k: v for k, v in FIXED.items() if axis2 is None or k != axis2.name},
            axis1=Axis("epsilon", -5.0, 5.0, 11 if axis2 is None else 3),
            axis2=axis2,
            measures=("concurrence",),
        )
        columns = evaluate(grid)
        writes.clear()
        write_table(Stream(), grid, PARAM_NAMES + ("C",))
        assert [w.count("\n") for w in writes] == lines
        assert "".join(writes) == csv_of_columns(grid, columns, PARAM_NAMES + ("C",))[1]


def test_write_table_formats_each_repeated_parameter_value_once(monkeypatch):
    # a 25 x 25 map prints 25 bx and 25 T values, not 625 of each
    grid = SweepGrid(
        fixed={"epsilon": 1.0, "t": 7.0, "bz": 16.0},
        axis1=Axis("bx", 1.0, 100.0, 25),
        axis2=Axis("T", 0.01, 100.0, 25, "log"),
        measures=("concurrence",),
    )
    columns = evaluate(grid)
    formatted = []
    text = sweep._text
    monkeypatch.setattr(sweep, "_text", lambda v: formatted.append(v) or text(v))
    for header, count in [(("bx", "T", "C"), 50), (PARAM_NAMES + ("C",), 53)]:
        formatted.clear()
        written, expected = csv_of_columns(grid, columns, header)
        assert written == expected
        assert len(formatted) == count


def test_sweep_csv_across_block_boundaries_equals_per_value_formatting(monkeypatch):
    # a 3 x 4 grid written 5 rows at a time; bx = 0 makes C exactly 0 at every point
    monkeypatch.setattr(sweep, "_BLOCK", 5)
    grid = SweepGrid(
        fixed={"t": 7.0, "bz": 16.0, "bx": 0.0},
        axis1=Axis("epsilon", -1.0, 1.0, 3),
        axis2=Axis("T", 0.1, 10.0, 4, "log"),
        measures=("populations", "concurrence", "l1"),
    )
    points = grid_rows(grid)
    assert len(points) == 12
    assert all(values["C"] == 0.0 for _, values in points)
    rows = [[*params.values(), *values.values()] for params, values in points]
    assert sweep_csv(grid) == per_value_text(PARAM_NAMES + grid.columns(), rows)


@pytest.mark.parametrize("block, sizes", [(5, [3] * 7), (7, [6, 6, 6, 3]), (4096, [21])],
                         ids=["one-run", "two-runs", "one-block"])
def test_sweep_blocks_hold_the_grid_point_doubles(monkeypatch, block, sizes):
    # each block is whole rows of axis2, its parameters built from the axis values
    monkeypatch.setattr(sweep, "_BLOCK", block)
    grid = SweepGrid(
        fixed={"t": 7.0, "bz": 16.0, "bx": 100.0},
        axis1=Axis("T", 0.01, 100.0, 7, "log"),
        axis2=Axis("epsilon", -5.0, 5.0, 3),
        measures=("l1",),
    )
    blocks = list(sweep_columns(grid))
    assert [len(b["T"]) for b in blocks] == sizes
    points = [{k: float(b[k][i]) for k in PARAM_NAMES} for b in blocks for i in range(len(b["T"]))]
    assert points == grid_points(grid)
    assert points[4] == dict(grid.fixed, T=float(grid.axis1.values()[1]), epsilon=0.0)
    for b in blocks:
        assert list(b) == ["t", "bz", "bx", "T", "epsilon", "l1"]
        assert all(column.dtype == np.float64 for column in b.values())


def test_each_block_is_written_before_the_next_is_evaluated(monkeypatch):
    # 11 one-row runs in blocks of 4: evaluate, write, evaluate, write, ...
    monkeypatch.setattr(sweep, "_BLOCK", 4)
    events = []
    evaluate_block = sweep._evaluate
    monkeypatch.setattr(sweep, "_evaluate",
                        lambda cols, m: events.append(("evaluate", len(cols["T"])))
                        or evaluate_block(cols, m))

    class Stream:
        def write(self, text):
            events.append(("write", text.count("\n")))

    grid = SweepGrid(FIXED, Axis("epsilon", -5.0, 5.0, 11), None, ("concurrence",))
    write_table(Stream(), grid, ("eps", "C"))
    assert events == [("write", 1)] + [e for n in (4, 4, 3) for e in (("evaluate", n), ("write", n))]


def test_find_coherence_peak_smoke():
    t_peak, value = find_coherence_peak(1.0, 7.0, 16.0, 100.0)
    assert t_peak == pytest.approx(6.0, abs=1.0)
    assert value > 1.0


@pytest.mark.parametrize(
    "search, kwargs, error",
    [
        pytest.param(find_coherence_peak, dict(t="x"), ValidationError, id="peak-t-str"),
        pytest.param(find_anticrossing, dict(eps_range=("a", 1)), ValidationError,
                     id="gap-range-str"),
        pytest.param(find_anticrossing, dict(eps_range=(1,)), ValidationError,
                     id="gap-range-short"),
        pytest.param(find_anticrossing, dict(eps_range=(50, 150, 250)), ValidationError,
                     id="gap-range-long"),
        pytest.param(find_anticrossing, dict(eps_range=None), ValidationError, id="gap-range-None"),
        pytest.param(find_anticrossing, dict(eps_range=(50, 10**400)), ValidationError,
                     id="gap-range-huge-int"),
        pytest.param(find_anticrossing, dict(pair=3), ValidationError, id="gap-pair-int"),
        pytest.param(find_anticrossing, dict(pair=("E3", 4)), ValidationError, id="gap-pair-mixed"),
        pytest.param(find_anticrossing, dict(pair=np.array(["E3", "E4"])), ValidationError,
                     id="gap-pair-array"),
    ],
)
def test_a_search_given_an_argument_of_the_wrong_type_raises_its_api_error(search, kwargs, error):
    if search is find_coherence_peak:
        args, kwargs = (), {"epsilon": 1, "t": 7, "bz": 16, "bx": 100, **kwargs}
    else:
        args = (7, 16, 100)
        kwargs = {"pair": ("E3", "E4"), "eps_range": (50, 150), **kwargs}
    with pytest.raises(error):
        search(*args, **kwargs)


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
    assert len(evaluate(grid)["T"]) == 9


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
        CONFIG.replace("count = 3", "count = 3.5", 1),
        CONFIG.replace("count = 3", "count = 1e3", 1),
        CONFIG.replace("t = 7.0", "t = x"),
        CONFIG.replace("min = -5", "min = a"),
        CONFIG.replace("path = out.csv", "path = out%.csv"),  # % starts an interpolation
    ],
)
def test_load_config_rejects_malformed(tmp_path, text):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(text)
    with pytest.raises(ConfigError):
        load_config(cfg)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("t = 7.0", "t = x", "^t must be a real number, got 'x'$"),
        ("min = -5", "min = a", r"^axis epsilon: need finite lo < hi, got \['a', '5'\]$"),
        ("count = 3", "count = one", "^axis epsilon: count must be an integer, got 'one'$"),
        ("[fixed]", "[DEFAULT]\nT = 1\n\n[fixed]", r"^unknown config sections \['DEFAULT'\]$"),
        ("[fixed]", "[DEFAULT]\n[fixed]", r"^unknown config sections \['DEFAULT'\]$"),
        ("correlated_coherence", "concurrence", "^duplicate measures$"),
        ("t = 7.0", "t = 7.0\nfoo = 1", "^unknown fixed parameter 'foo'$"),
        ("count = 3\n", "", r"^\[axis1\] section missing keys \['count'\]$"),
    ],
)
def test_a_bad_config_value_is_refused_naming_its_parameter(tmp_path, old, new, message):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(CONFIG.replace(old, new, 1))
    with pytest.raises(ConfigError, match=message):
        load_config(cfg)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def scalar_measures(point):
    """Every sweep column at one point through the scalar public API."""
    p = ModelParams(point["epsilon"], point["t"], point["bz"], point["bx"])
    state = thermal_state(p, point["T"])
    out = dict(zip(MEASURE_COLUMNS["energies"], analytic_energies(p).tolist()))
    out.update(zip(MEASURE_COLUMNS["populations"], populations(state)))
    out.update(
        C=concurrence(state),
        F=float(state.weights[0]),
        l1=l1_coherence(state.rho),
        Ccc=correlated_coherence(state.rho),
    )
    return out


RANGES = {
    "epsilon": (-50.0, 50.0),
    "t": (0.0, 30.0),
    "bz": (-40.0, 40.0),
    "bx": (-100.0, 100.0),
    "T": (0.05, 100.0),
}


@st.composite
def grids(draw):
    names = draw(st.permutations(PARAM_NAMES))
    axes = []
    for name in names[:2]:
        lo, hi = RANGES[name]
        a = draw(st.floats(lo, hi))
        b = draw(st.floats(lo, hi).filter(lambda x: x != a))
        axes.append(Axis(name, min(a, b), max(a, b), draw(st.integers(2, 5))))
    fixed = {name: draw(st.floats(*RANGES[name])) for name in names[2:]}
    return SweepGrid(fixed=fixed, axis1=axes[0], axis2=axes[1], measures=tuple(MEASURE_COLUMNS))


@settings(max_examples=50, deadline=None)
@given(grids(), st.integers(1, 30))
def test_batched_sweep_equals_scalar_api_bitwise(grid, block):
    points = [grid_point(grid, i) for i in range(grid.axis1.count * grid.axis2.count)]
    with mock.patch.object(sweep, "_BLOCK", block):
        rows = grid_rows(grid)
    assert [params for params, _ in rows] == [{k: d[k] for k in PARAM_NAMES} for d in points]
    for params, values in rows:
        expected = scalar_measures(params)
        assert values == {c: expected[c] for c in grid.columns()}


def _fidelity_column(p, temp):
    """The sweep's F at temperatures temp and 2 temp."""
    fixed = {"epsilon": p.epsilon, "t": p.t, "bz": p.bz, "bx": p.bx}
    grid = SweepGrid(fixed, Axis("T", temp, 2.0 * temp, 2), None, ("fidelity_pure",))
    return evaluate(grid)["F"]


@settings(max_examples=100, deadline=None)
@given(*(st.floats(*RANGES[name]) for name in PARAM_NAMES))
def test_fidelity_is_the_overlap_with_the_ground_vector(eps, t, bz, bx, temp):
    p = ModelParams(eps, t, bz, bx)
    gs = ground_state(p)
    assume(not gs.degenerate)
    for f, temperature in zip(_fidelity_column(p, temp), (temp, 2.0 * temp)):
        assert abs(f - fidelity_pure(gs.vector, thermal_state(p, temperature).rho)) <= 1e-14


@settings(max_examples=50, deadline=None)
@given(st.floats(*RANGES["t"]), st.floats(*RANGES["bx"]), st.floats(*RANGES["T"]),
       st.floats(0.0, 2.0 * np.pi))
def test_fidelity_at_a_degenerate_ground_level_is_its_gibbs_weight(t, bx, temp, angle):
    # eps = bz = 0: the two lowest levels coincide, so w0 = w1 up to the
    # eigensolver's round-off split of the level, and every unit vector of
    # the level has the same overlap with rho
    p = ModelParams(0.0, t, 0.0, bx)
    state = thermal_state(p, temp)
    f = _fidelity_column(p, temp)[0]
    assert f == state.weights[0]
    # w1 = w0 exp(-split)
    split = (1.0 / state.temperature) * (state.energies[1] - state.energies[0])
    assert 0.0 <= split <= 1e-11
    assert abs(state.weights[1] - f) <= split + 1e-16
    psi = np.cos(angle) * state.vectors[:, 0] + np.sin(angle) * state.vectors[:, 1]
    assert abs(fidelity_pure(psi, state.rho) - f) <= split + 1e-15


def _public_peak(epsilon, t, bz, bx):
    """find_coherence_peak's search with every Ccc from the public API."""
    p = ModelParams(epsilon, t, bz, bx)

    def ccc(xs):
        return [correlated_coherence(thermal_state(p, 10.0 ** float(x)).rho) for x in xs]

    grid = np.linspace(np.log10(0.01), np.log10(100.0), 400)
    values = ccc(grid)
    k = int(np.argmax(values))
    best, top = float(grid[k]), values[k]
    lo, hi, h = float(grid[k - 1]), float(grid[k + 1]), 4.0 / 399.0
    xs, (f0, f1, f2) = grid[k - 1:k + 2], values[k - 1:k + 2]
    while h > 1e-7:
        v, curve = float(xs[1]), f0 - 2.0 * f1 + f2
        if curve < 0.0:  # the parabola's vertex
            v += 0.5 * h * (f0 - f2) / curve
        h /= 100.0
        v = min(max(v, lo + h), hi - h)  # the stencil stays between the scan maximum's neighbours
        xs = [v - h, v, v + h]
        values = f0, f1, f2 = ccc(xs)
        j = int(np.argmax(values))
        if values[j] > top:
            best, top = xs[j], values[j]
    return 10.0**best, top


@pytest.mark.parametrize(
    "eps, t, bz, bx", [(1.0, 7.0, 16.0, 100.0), (1.0, 15.4, 24.0, 100.0), (-2.5, 3.0, 5.0, 37.0)]
)
def test_peak_refinement_equals_the_public_route_bitwise(eps, t, bz, bx):
    assert find_coherence_peak(eps, t, bz, bx) == _public_peak(eps, t, bz, bx)


@pytest.mark.parametrize(
    "args, pin",
    [
        ((0.001, 0.01, 0.02, 0.05), (0.01, 0.9708210953407711)),  # the scan's first point
        ((1.0, 700.0, 1600.0, 10000.0), (100.0, 0.967554768490153)),  # its last
    ],
)
def test_a_peak_at_an_end_of_the_scan_is_returned_unrefined(args, pin):
    assert find_coherence_peak(*args) == pin
    assert correlated_coherence(thermal_state(ModelParams(*args), pin[0]).rho) == pin[1]


@pytest.mark.parametrize("args", [(1.0, 7.0, 16.0, 0.0), (-3.0, 2.0, 5.0, 0.0), (0.0, 7.0, 16.0, 0.0)])
def test_a_vanishing_coherence_peaks_at_round_off_inside_the_scan(args):
    # at bx = 0 the Gibbs state is a product state, so Ccc = 0 at every T: the
    # search maximizes round-off, whose parabolas need not be concave
    temperature, ccc = find_coherence_peak(*args)
    assert ccc <= 1e-15
    assert 0.01 <= temperature <= 100.0


def test_a_coherence_zero_at_every_temperature_peaks_at_the_scan_start():
    assert find_coherence_peak(0.0, 0.0, 0.0, 0.0) == (0.01, 0.0)


_PEAK_PARAMETER = st.one_of(
    st.just(0.0),
    st.floats(-100.0, 100.0),
    st.builds(lambda sign, power: sign * 10.0**power, st.sampled_from([-1.0, 1.0]),
              st.floats(-6.0, 6.0)),
)


@settings(max_examples=100, deadline=None)
@given(_PEAK_PARAMETER, _PEAK_PARAMETER.map(abs), _PEAK_PARAMETER, _PEAK_PARAMETER)
@example(0.0, 2.992402118635876e-05, 0.0, -0.019164006923850008)
@example(0.0, 0.00020705523914638422, 0.0, 0.048729683328122865)
def test_a_peak_temperature_lies_in_the_scan_range(eps, t, bz, bx):
    # extreme field ratios and eps = bz = 0, where Ccc is round-off, included;
    # at the two examples, stencils not kept between the scan maximum's
    # neighbours reach T = 6.0e-4 and 8.5e-3
    temperature, _ = find_coherence_peak(eps, t, bz, bx)
    assert 0.01 <= temperature <= 100.0


def test_anticrossing_gap_equals_the_public_levels_bitwise():
    found = find_anticrossing(7, 16, 100, ("E3", "E4"), (50.0, 150.0))
    e = analytic_energies(ModelParams(found.eps, 7, 16, 100))
    assert found.gap == abs(float(e[2]) - float(e[3]))


def test_large_grid_points_equal_single_point_evaluation():
    grid = SweepGrid(
        fixed={"t": 7.0, "bz": 16.0, "epsilon": 1.0},
        axis1=Axis("bx", 1.0, 100.0, 40),
        axis2=Axis("T", 0.01, 100.0, 50, "log"),
        measures=("concurrence", "correlated_coherence", "fidelity_pure"),
    )
    for params, values in grid_rows(grid)[::37]:
        expected = scalar_measures(params)
        assert values == {c: expected[c] for c in grid.columns()}


def refusing(gibbs, bad):
    """gibbs (_gibbs or _gibbs_columns) with one check after its own, refusing the points of bad."""

    def checked(*args):
        state, checks = gibbs(*args)
        return state, checks + [(bad, lambda i: ValidationError("refused point"))]

    return checked


def test_bad_point_error_names_the_first_in_row_major_order(monkeypatch):
    grid = SweepGrid(
        fixed={"epsilon": 0.0, "t": 7.0, "bx": 100.0},
        axis1=Axis("T", 1.0, 2.0, 2),
        axis2=Axis("bz", -1.0, 0.0, 2),
        measures=("correlated_coherence",),
    )
    # the points where bz = 0 are refused: points 1 and 3
    bz = grid_columns(grid)["bz"]
    monkeypatch.setattr(sweep, "_gibbs_columns", refusing(sweep._gibbs_columns, bz == 0.0))
    with pytest.raises(ValidationError, match="refused point") as info:
        evaluate(grid)
    assert str(info.value).endswith(f"at {grid_point(grid, 1)}")


def test_later_check_at_an_earlier_point_wins(monkeypatch):
    # the batch runs the orthonormality check over every point before the
    # check that follows it, yet that later check's refusal at an earlier
    # point wins, where a point-by-point sweep would have stopped
    grid = SweepGrid(
        fixed={"t": 7.0, "bz": 16.0, "bx": 100.0},
        axis1=Axis("T", 1.0, 100.0, 3, "log"),
        axis2=Axis("epsilon", -1.0, 1.0, 2),
        measures=("correlated_coherence",),
    )
    temp = grid_columns(grid)["T"]
    # T is outer, so the six points have six decompositions, in point order;
    # alone, the skewed ones fail at the first point they serve
    skew_eigensolves(monkeypatch, lambda m: temp > 50.0)
    with pytest.raises(NotPositiveSemidefiniteError, match="off orthonormal by") as info:
        evaluate(grid)
    assert str(info.value).endswith(f"at {grid_point(grid, 4)}")
    monkeypatch.setattr(sweep, "_gibbs_columns", refusing(sweep._gibbs_columns, temp > 5.0))
    with pytest.raises(ValidationError, match="refused point") as info:
        evaluate(grid)
    assert not isinstance(info.value, NotPositiveSemidefiniteError)
    assert str(info.value).endswith(f"at {grid_point(grid, 2)}")


def count_eigensolves(monkeypatch):
    """The stack size of each eig_sym call a sweep makes from here on, in order."""
    calls = []

    def counted(m):
        calls.append(len(m))
        return eig_sym(m)

    for module in (thermal, correlations, sweep):
        monkeypatch.setattr(module, "eig_sym", counted)
    return calls


def count_density_matrices(monkeypatch):
    """The stack size of each call of thermal._rho from here on, in order."""
    calls = []
    rho = thermal._rho

    def counted(g):
        calls.append(len(g.index))
        return rho(g)

    for module in (thermal, sweep, validate):
        monkeypatch.setattr(module, "_rho", counted)
    return calls


MAP_FIXED = {"epsilon": 1.0, "t": 7.0, "bz": 16.0}
BX_AXIS = Axis("bx", 1.0, 100.0, 25)
T_AXIS = Axis("T", 0.01, 100.0, 25, "log")
THERMAL_MEASURES = ("populations", "concurrence", "fidelity_pure", "l1", "correlated_coherence")


def test_a_temperature_map_diagonalizes_each_distinct_hamiltonian_once(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    evaluate(SweepGrid(MAP_FIXED, BX_AXIS, T_AXIS, ("concurrence",)))
    assert calls == [25]


def test_a_temperature_curve_diagonalizes_its_hamiltonian_once(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    grid = SweepGrid(dict(MAP_FIXED, bx=100.0), Axis("T", 0.01, 1e4, 400, "log"), None,
                     THERMAL_MEASURES)
    evaluate(grid)
    assert calls == [1]


def test_a_grid_at_fixed_temperature_diagonalizes_every_point(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    grid = SweepGrid({"t": 7.0, "bz": 16.0, "T": 0.2}, Axis("bx", 20.0, 40.0, 21),
                     Axis("epsilon", 3.0, 7.0, 21), ("concurrence",))
    evaluate(grid)
    assert calls == [21 * 21]


@pytest.mark.parametrize("block, stacks", [(7, [1] * 100), (1000, [10] * 10), (4096, [40, 40, 20])])
def test_blocks_of_whole_rows_diagonalize_each_distinct_hamiltonian_once(monkeypatch, block,
                                                                         stacks):
    # a block of whole T rows never splits the run of points sharing one H
    monkeypatch.setattr(sweep, "_BLOCK", block)
    calls = count_eigensolves(monkeypatch)
    evaluate(SweepGrid(MAP_FIXED, Axis("bx", 1.0, 100.0, 100),
                       Axis("T", 0.01, 100.0, 100, "log"), ("concurrence",)))
    assert calls == stacks


def test_temperature_outer_and_inner_grids_give_the_same_bits(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    grid = SweepGrid(MAP_FIXED, BX_AXIS, T_AXIS, THERMAL_MEASURES)
    inner = evaluate(grid)
    outer = evaluate(grid._replace(axis1=T_AXIS, axis2=BX_AXIS))
    assert calls == [25, 25 * 25]
    for name in PARAM_NAMES + grid.columns():
        transposed = outer[name].reshape(25, 25).T.ravel()
        assert np.array_equal(inner[name].view(np.int64), transposed.view(np.int64)), name


@pytest.mark.parametrize("argv", [
    ["concurrence-map", "--t", "7", "--bz", "16", "--bx-min", "1", "--bx-max", "100",
     "--bx-n", "5", "--eps", "1", "--t-min", "0.01", "--t-max", "100", "--t-n", "5", "--log"],
    ["fidelity", "--eps", "0", "--t", "7", "--bz", "16", "--bx", "100",
     "--t-min", "0.01", "--t-max", "1e4", "--n", "5", "--log"],
    ["spectrum", "--t", "7", "--bz", "16", "--bx", "100", "--eps-min", "-5", "--eps-max", "5",
     "--n", "5"],
], ids=["concurrence-map", "fidelity", "spectrum"])
def test_measures_that_read_no_density_matrix_form_none(monkeypatch, tmp_path, argv):
    calls = count_density_matrices(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert calls == []


def test_measures_that_read_rho_form_it_once_per_block(monkeypatch):
    # 625 points in blocks of 4 rows of 25: six of 100 points and one of 25
    monkeypatch.setattr(sweep, "_BLOCK", 100)
    calls = count_density_matrices(monkeypatch)
    evaluate(SweepGrid(MAP_FIXED, BX_AXIS, T_AXIS, THERMAL_MEASURES))
    assert calls == [100] * 6 + [25]


def test_a_signed_zero_gets_its_own_decomposition(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    cols = {"epsilon": np.array([0.0, -0.0, -0.0]), "t": np.full(3, 7.0),
            "bz": np.full(3, 16.0), "bx": np.full(3, 100.0), "T": np.array([1.0, 1.0, 2.0])}
    out = sweep._evaluate(cols, ("concurrence", "correlated_coherence"))
    assert calls == [2]
    for i in range(3):
        alone = sweep._evaluate({k: v[i : i + 1] for k, v in cols.items()},
                                ("concurrence", "correlated_coherence"))
        for name, column in out.items():
            assert column[i : i + 1].view(np.int64) == alone[name].view(np.int64)


def skew_eigensolves(monkeypatch, chosen=lambda m: m[:, 0, 1] == 1.0):
    """Make the sweep's eigenvectors of the Hamiltonians chosen(m) flags off orthonormal.

    By default those of bx = 2, SKEWED_GRID's second Hamiltonian.  They
    come back skewed by 1e-6, unit columns kept.  Returns the stack size
    of each eig_sym call from here on, in order.
    """
    calls = []

    def skewed(m):
        calls.append(len(m))
        dec = eig_sym(m)
        v = dec.vectors.copy()
        bad = chosen(m)
        v[bad, :, 1] += 1e-6 * v[bad, :, 0]
        v[bad, :, 1] /= np.linalg.norm(v[bad, :, 1], axis=1)[:, None]
        return EigenDecomp(dec.values, v)

    monkeypatch.setattr(thermal, "eig_sym", skewed)
    return calls


SKEWED_GRID = SweepGrid(MAP_FIXED, Axis("bx", 1.0, 3.0, 3), Axis("T", 1.0, 100.0, 4, "log"),
                        ("correlated_coherence",))


def test_a_failing_gibbs_check_on_a_shared_hamiltonian_names_its_first_point(monkeypatch):
    # the Gibbs check fails on all four temperatures that share the skewed vectors
    skew_eigensolves(monkeypatch)
    grid = SKEWED_GRID
    with pytest.raises(NotPositiveSemidefiniteError, match="off orthonormal by") as info:
        evaluate(grid)
    assert str(info.value).endswith(f"at {grid_point(grid, 4)}")

    # a later check failing at an earlier point still wins
    temp = grid_columns(grid)["T"]
    monkeypatch.setattr(sweep, "_gibbs_columns", refusing(sweep._gibbs_columns, temp > 5.0))
    with pytest.raises(ValidationError, match="refused point") as info:
        evaluate(grid)
    assert not isinstance(info.value, NotPositiveSemidefiniteError)
    assert str(info.value).endswith(f"at {grid_point(grid, 2)}")


def test_a_failing_sweep_diagonalizes_once(monkeypatch):
    calls = skew_eigensolves(monkeypatch)
    with pytest.raises(NotPositiveSemidefiniteError):
        evaluate(SKEWED_GRID)
    assert calls == [3]


# the eigenvalues of H overflow only at the last row, eps = 1.7e308
OVERFLOW_GRID = SweepGrid({"t": 7.0, "bz": 1.7e308, "bx": 1.7e308},
                          Axis("epsilon", 0.0, 1.7e308, 3), Axis("T", 1.0, 2.0, 2),
                          THERMAL_MEASURES)


def test_an_overflowing_point_warns_of_nothing_while_every_measure_runs():
    # every Gibbs measure still runs on the inf and NaN rows of the last
    # point before the one error is raised
    grid = OVERFLOW_GRID
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="the eigenvalues of H overflow") as info:
            evaluate(grid)
    assert str(info.value).endswith(f"at {grid_point(grid, 4)}")


def test_a_failing_point_in_a_later_block_is_named(monkeypatch):
    # one row per block: the first two blocks pass, the third fails at point 4
    monkeypatch.setattr(sweep, "_BLOCK", 3)
    calls = count_eigensolves(monkeypatch)
    with pytest.raises(OverflowError, match="the eigenvalues of H overflow") as info:
        evaluate(OVERFLOW_GRID)
    assert str(info.value).endswith(f"at {grid_point(OVERFLOW_GRID, 4)}")
    assert calls == [1, 1, 1]


def test_an_earlier_blocks_failure_wins(monkeypatch):
    # E1 is beyond the largest double at every point (about 2e308 at
    # eps = -1.6e308, more at -1.7e308), so the first block, one row, raises
    # and no later block is evaluated.  The grid has no Gibbs measure: where
    # the closed-form levels overflow, so do the eigenvalues of H, and that
    # earlier check would win
    monkeypatch.setattr(sweep, "_BLOCK", 3)
    sizes = []
    energies = sweep._energies
    monkeypatch.setattr(sweep, "_energies", lambda *x: sizes.append(x[0].size) or energies(*x))
    grid = SweepGrid({"t": 7.0, "bz": 1.7e308, "bx": 1.7e308},
                     Axis("epsilon", -1.7e308, -1.6e308, 3), Axis("T", 1.0, 2.0, 2),
                     ("energies",))
    with pytest.raises(OverflowError, match="the closed-form energies overflow") as info:
        evaluate(grid)
    assert str(info.value).endswith(f"at {grid_point(grid, 0)}")
    assert sizes == [2]


def test_an_earlier_gibbs_failure_beats_a_later_closed_form_overflow():
    # 1/T overflows at point 0; the closed-form energies overflow from point 2,
    # where E1 is about 2e308
    grid = SweepGrid({"epsilon": 1.7e308, "t": 7.0, "bx": 1.7e308}, Axis("bz", 1.0, 1.7e308, 2),
                     Axis("T", 1e-320, 1.0, 2), ("populations", "energies"))
    with pytest.raises(OverflowError, match="1/T overflows for temperature 1e-320") as info:
        evaluate(grid)
    assert str(info.value).endswith(f"at {grid_point(grid, 0)}")


def test_the_peak_search_batches_its_objective(monkeypatch):
    # one batch of 400 scan points, then three 3-point stencils about a
    # parabola's vertex, their half-width 1/100 of the last pass's: from the
    # scan step, 4/399, to ~1e-8 in log10(T)
    sizes = []

    def counted(r):
        sizes.append(len(r))
        return correlated(r)

    correlated = sweep._correlated_coherence
    monkeypatch.setattr(sweep, "_correlated_coherence", counted)
    for args, pin in [
        ((1.0, 7.0, 16.0, 100.0), (5.972733610820447, 1.4504459841551953)),
        ((1.0, 15.4, 24.0, 100.0), (9.762491011448612, 1.0853093275902634)),
    ]:
        sizes.clear()
        assert find_coherence_peak(*args) == pin
        assert sizes == [400, 3, 3, 3]


def test_the_peak_search_diagonalizes_once(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    assert find_coherence_peak(1.0, 7.0, 16.0, 100.0) == (5.972733610820447, 1.4504459841551953)
    assert calls == [1]
    calls.clear()
    assert find_coherence_peak(1.0, 15.4, 24.0, 100.0) == (9.762491011448612, 1.0853093275902634)
    assert calls == [1]


def test_a_failing_refinement_pass_names_its_temperature(monkeypatch):
    # the scan passes; the first stencil refuses its last point, v + h
    temps = []
    gibbs = sweep._gibbs

    def refused_on_second_call(dec, index, temperature):
        temps.append(temperature)
        if len(temps) == 2:
            return refusing(gibbs, np.arange(len(temperature)) == 2)(dec, index, temperature)
        return gibbs(dec, index, temperature)

    monkeypatch.setattr(sweep, "_gibbs", refused_on_second_call)
    with pytest.raises(ValidationError, match="refused point") as info:
        find_coherence_peak(1.0, 7.0, 16.0, 100.0)
    assert [len(t) for t in temps] == [400, 3]
    point = {"epsilon": 1.0, "t": 7.0, "bz": 16.0, "bx": 100.0, "T": float(temps[-1][2])}
    assert str(info.value).endswith(f"at {point}")
