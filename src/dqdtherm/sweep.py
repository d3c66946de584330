"""Parameter-grid sweeps with deterministic CSV serialization.

A sweep walks one or two parameter axes, evaluates a set of measures at
every grid point, and emits rows in row-major axis order.  One loop
takes the grid in blocks of whole rows of axis2, about _BLOCK points
each, and builds, evaluates, formats and writes each block before the
next runs, so a sweep holds one block at any grid size.  In a block,
consecutive points with the same (eps, t, bz, bx) share one Hamiltonian,
so thermal._gibbs_columns stacks the distinct Hamiltonians into one
(M, 4, 4) array and one batched eigendecomposition serves every Gibbs
state: a grid whose T axis is innermost diagonalizes each distinct H
once (a one-axis T sweep, once per block), and one with T outer or
fixed, every point.  Each measure then runs once over the block's stack
of states.  That eigensolve is the block's only one: the density-matrix
checks, the concurrence and the fidelity read the shared eigenvectors
and the Gibbs weights, and the block's (N, 4, 4) density matrices are
formed, once, only for the populations, l1 and correlated coherence.
Every check over a block is a (bad, error) pair, and qmatrix.raise_first
raises the error of the block's first failing point in row-major order,
at that point the earliest check's: the Gibbs inputs, then the Gibbs
state, then each measure in the order requested.  The blocks run in
order, so the error names the grid's first failing point.  Each point
gives the same bits alone or inside any grid, so reruns of the same
input on one machine produce byte-identical CSV.  load_config imports
configparser when it reads a file, so a grid built in code never does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .correlations import _correlated_coherence, _gibbs_concurrence, _l1
from .model import LEVEL_LABELS, ModelParams, _energies, _hamiltonians
from .qmatrix import ValidationError, eig_sym, raise_first
from .thermal import _gibbs, _gibbs_columns, _rho

__all__ = [
    "ConfigError",
    "Axis",
    "SweepGrid",
    "load_config",
    "find_coherence_peak",
]

PARAM_NAMES = ("epsilon", "t", "bz", "bx", "T")

MEASURE_COLUMNS = {
    "energies": LEVEL_LABELS,
    "populations": ("rho11", "rho22", "rho33", "rho44"),
    "concurrence": ("C",),
    "fidelity_pure": ("F",),
    "l1": ("l1",),
    "correlated_coherence": ("Ccc",),
}


class ConfigError(ValueError):
    """Invalid sweep specification (grid or config file)."""


def _integer(value, what: str, least: int) -> int:
    """value as an int: an integral value >= least, not a truncated one."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if n < least:
        raise ConfigError(f"{what} must be >= {least}, got {n}")
    return n


class Axis(NamedTuple("Axis", [("name", str), ("lo", float), ("hi", float), ("count", int),
                               ("scale", str)])):
    """One swept parameter: name, closed interval, point count, and scale."""

    __slots__ = ()

    def __new__(cls, name, lo, hi, count, scale="linear"):
        if name not in PARAM_NAMES:
            raise ConfigError(f"unknown axis parameter {name!r}")
        try:
            low, high = float(lo), float(hi)
        except (TypeError, ValueError, OverflowError):
            low = high = math.nan
        if not (math.isfinite(low) and math.isfinite(high)) or low >= high:
            raise ConfigError(f"axis {name}: need finite lo < hi, got {[lo, hi]}")
        count = _integer(count, f"axis {name}: count", 2)
        if count > np.iinfo(np.intp).max // 8:  # numpy's largest array of doubles
            raise ConfigError(f"axis {name}: count {count} is too large to compute with")
        if scale not in ("linear", "log"):
            raise ConfigError(f"axis {name}: scale must be linear or log")
        if scale == "log" and low <= 0.0:
            raise ConfigError(f"axis {name}: log scale requires lo > 0")
        # the step np.linspace takes, or the top value np.logspace makes
        with np.errstate(over="ignore"):
            reach = high - low if scale == "linear" else np.power(10.0, math.log10(high))
        if not math.isfinite(reach):
            raise ConfigError(f"axis {name}: values overflow a float on [{low}, {high}]")
        return super().__new__(cls, name, low, high, count, scale)

    @classmethod
    def _make(cls, values):  # so _replace checks its values too
        return cls(*values)

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count)
        return np.linspace(self.lo, self.hi, self.count)


class SweepGrid(NamedTuple("SweepGrid", [("fixed", dict), ("axis1", Axis), ("axis2", Axis | None),
                                         ("measures", tuple[str, ...])])):
    """Fixed parameter values plus one or two axes and the measures to emit.

    Every grid point is a valid input: each parameter is finite, t >= 0
    and T > 0.  The axes ascend, so testing each parameter at its fixed
    value or its axis's lo tests every point; a bad one raises ConfigError.
    """

    __slots__ = ()

    def __new__(cls, fixed, axis1, axis2, measures):
        try:  # a str would read as one-letter names, so it is refused whole
            names = tuple(None if isinstance(measures, str) else measures)
        except TypeError:
            names = (None,)
        if not all(isinstance(m, str) for m in names):
            raise ConfigError(
                f"measures must be a sequence of measure names, got {measures!r}"
            )
        if not names:
            raise ConfigError("at least one measure is required")
        for m in names:
            if m not in MEASURE_COLUMNS:
                raise ConfigError(f"unknown measure {m!r}")
        if len(set(names)) != len(names):
            raise ConfigError("duplicate measures")
        axis_names = {axis1.name}
        if axis2 is not None:
            if axis2.name == axis1.name:
                raise ConfigError("axis1 and axis2 sweep the same parameter")
            axis_names.add(axis2.name)
        values = {}
        for k, v in dict(fixed).items():
            if k not in PARAM_NAMES:
                raise ConfigError(f"unknown fixed parameter {k!r}")
            if k in axis_names:
                raise ConfigError(f"parameter {k!r} is both fixed and swept")
            try:
                values[k] = float(v)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{k} must be a real number, got {v!r}")
        missing = set(PARAM_NAMES) - axis_names - set(values)
        if missing:
            raise ConfigError(f"parameters not specified: {sorted(missing)}")
        probe = dict(values)
        for ax in (axis1, axis2):
            if ax is not None:
                probe[ax.name] = ax.lo
        try:
            ModelParams(probe["epsilon"], probe["t"], probe["bz"], probe["bx"])
        except ValidationError as exc:
            raise ConfigError(str(exc))
        if not (math.isfinite(probe["T"]) and probe["T"] > 0.0):
            raise ConfigError(f"temperature must be positive, got {probe['T']}")
        return super().__new__(cls, values, axis1, axis2, names)

    @classmethod
    def _make(cls, values):  # so _replace checks its values too
        return cls(*values)

    def columns(self) -> tuple[str, ...]:
        return tuple(c for m in self.measures for c in MEASURE_COLUMNS[m])


def _lookup(cols: dict):
    """where(i) over parameter columns: point i as a dict, in the columns' key order."""
    return lambda i: {k: float(v[i]) for k, v in cols.items()}


def _evaluate(cols: dict, measures) -> dict:
    """Every requested measure over parameter columns: one array per column.

    Raises the error of the first failing point, named in the message
    (see the module docstring).
    """
    model = (cols["epsilon"], cols["t"], cols["bz"], cols["bx"])
    out, checks = {}, []
    if any(m != "energies" for m in measures):
        state, checks = _gibbs_columns(cols)
    if {"populations", "l1", "correlated_coherence"} & set(measures):  # the ones reading rho
        rho = _rho(state)
    for m in measures:
        if m == "energies":
            levels, more = _energies(*model)
            out.update(zip(MEASURE_COLUMNS[m], levels.T))
            checks += more
        elif m == "populations":
            out.update(zip(MEASURE_COLUMNS[m], np.diagonal(rho, axis1=1, axis2=2).T))
        elif m == "concurrence":
            out["C"] = _gibbs_concurrence(state.dec.vectors, state.weights, state.index)
        elif m == "fidelity_pure":
            # <psi|rho|psi> for every psi of the ground level, as rho is diagonal
            # in H's eigenbasis: so F is defined at a degenerate level too
            out["F"] = state.weights[:, 0]
        elif m == "l1":
            out["l1"] = _l1(rho)
        else:  # correlated_coherence
            out["Ccc"], more = _correlated_coherence(rho)
            checks += more
    raise_first(checks, _lookup(cols))
    return out


# grid points evaluated, formatted and written together: what a sweep holds
_BLOCK = 4096


def sweep_columns(grid: SweepGrid):
    """Evaluate the grid block by block: yield each block's parameter and measure columns.

    A block is whole rows of axis2, at most _BLOCK points unless one row
    is longer, its parameters built from its row range and the axis values
    (fixed values first, then axis1, then axis2, as error messages show
    them).  Each block is evaluated when asked for, so the first failing
    block raises, naming the first failing point in row-major order.
    """
    run = grid.axis2.count if grid.axis2 is not None else 1
    step = max(1, _BLOCK // run)  # whole runs of axis2 per block
    v1 = grid.axis1.values()
    for start in range(0, v1.size, step):
        outer = v1[start : start + step]
        cols = {k: np.full(outer.size * run, v) for k, v in grid.fixed.items()}
        cols[grid.axis1.name] = np.repeat(outer, run)
        if grid.axis2 is not None:
            cols[grid.axis2.name] = np.tile(grid.axis2.values(), outer.size)
        yield {**cols, **_evaluate(cols, grid.measures)}


def _text(value) -> str:
    """A parameter value as CSV text: 12 significant digits, -0 as 0."""
    return "%.12g" % (value + 0.0)


def write_table(stream, grid: SweepGrid, header) -> None:
    """Evaluate the grid and write the header and the columns it names as CSV lines.

    Each label of header is a parameter or measure column of the grid, or
    eps for epsilon.  Each value prints with 12 significant digits and -0
    as 0.  A parameter that repeats is formatted once per value: a fixed
    value once, and each axis value of a two-axis grid once.  Rows come in
    runs of axis2.count rows that share one axis1 value u, so a run's row
    template is u.join(pieces), where the pieces hold the text between the
    run's axis1 cells: axis2's and the fixed values' text, and a "%.12g"
    field for each value that differs per row (the measures, and the axis
    of a one-axis grid).  Each block of sweep_columns(grid) is one
    %-operation over those fields, written before the next is evaluated.
    """
    names = ["epsilon" if h == "eps" else h for h in header]
    stream.write(",".join(header) + "\n")
    run = grid.axis2.count if grid.axis2 is not None else 1
    # each column's cell in row j of a run; "\0" marks where the run's axis1 text goes
    cells = {k: [_text(v)] * run for k, v in grid.fixed.items() if k in names}
    if grid.axis2 is not None:
        cells[grid.axis2.name] = [_text(v) for v in grid.axis2.values()]
        cells[grid.axis1.name] = ["\0"] * run
    fields = [n for n in names if n not in cells]
    cells.update((n, ["%.12g"] * run) for n in fields)
    pieces = "".join(",".join(cells[n][j] for n in names) + "\n" for j in range(run)).split("\0")
    for block in sweep_columns(grid):
        if grid.axis2 is None:  # a one-axis grid: one template for every row
            template = pieces[0] * len(block["T"])
        else:
            template = "".join([_text(u).join(pieces) for u in block[grid.axis1.name][::run]])
        values = np.array([block[f] for f in fields]).T + 0.0
        stream.write(template % tuple(values.ravel().tolist()))


# each section's required and optional keys; SweepGrid checks the keys of [fixed]
_AXIS_KEYS = ({"name", "min", "max", "count"}, {"scale"})
_SECTION_KEYS = {"axis1": _AXIS_KEYS, "axis2": _AXIS_KEYS, "output": ({"measures"}, {"path"})}


def load_config(path):
    """Parse a sweep config file, read as UTF-8, into (SweepGrid, output path or None).

    Format: INI-style sections [fixed], [axis1], optional [axis2], and
    [output] with a comma-separated `measures` key and optional `path`.
    Each value goes as text to Axis and SweepGrid, which convert and
    check it, bar an axis count, read here with int().
    """
    import configparser  # only a config file needs it

    parser = configparser.ConfigParser(default_section="")  # so [DEFAULT] is an unknown section
    # keys stay case sensitive: t (tunneling) and T (temperature) differ
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as stream:
            parser.read_file(stream)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {' '.join(str(exc).split())}")
    unknown = set(sections) - {"fixed", *_SECTION_KEYS}
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}")
    for name in ("fixed", "axis1", "output"):
        if name not in sections:
            raise ConfigError(f"config missing [{name}] section")
    axes = {}
    for name, (required, optional) in _SECTION_KEYS.items():
        keys = set(sections.get(name, required))  # an absent [axis2] lacks no key
        if keys - required - optional:
            raise ConfigError(f"unknown [{name}] keys {sorted(keys - required - optional)}")
        if required - keys:
            raise ConfigError(f"[{name}] section missing keys {sorted(required - keys)}")
        if name in sections and name != "output":
            s = sections[name]
            try:
                count = int(s["count"])
            except ValueError:
                raise ConfigError(f"axis {s['name']}: count must be an integer, got {s['count']!r}")
            axes[name] = Axis(s["name"], s["min"], s["max"], count, s.get("scale", "linear"))
    measures = sections["output"]["measures"].split(",")
    grid = SweepGrid(sections["fixed"], axes["axis1"], axes.get("axis2"),
                     tuple(m.strip() for m in measures if m.strip()))
    return grid, sections["output"].get("path")


# the peak search's scan: 400 points of log10(T) on [-2, 2], T in [0.01, 100]
_PEAK_GRID = np.linspace(-2.0, 2.0, 400)


def find_coherence_peak(epsilon: float, t: float, bz: float, bx: float):
    """Temperature maximizing correlated coherence, with the peak value.

    One loop of passes over log10(T), each one batch on the one
    eigendecomposition of H.  The first scans _PEAK_GRID's 400 points, a
    step h = 4/399 apart, and returns a maximum at an end of the scan as it
    is.  Each later pass evaluates the stencil v - h, v, v + h, its h a
    hundredth of the last pass's.  v is the vertex of the parabola through
    three points of the last pass: the scan's maximum (the first on a tie)
    and its two neighbours, or a stencil's three points; where that
    parabola is not concave, v is the middle point.  Each stencil is kept
    between the scan maximum's neighbours, so T stays in [0.01, 100].  The
    pass whose h is at most 1e-7 is the last: 4 passes, 409 points.  Each
    pass makes thermal_state's checks, its error naming the point as a
    sweep does.  Returns the best temperature evaluated and its own Ccc.
    """
    p = ModelParams(epsilon, t, bz, bx)
    point = p._asdict()
    dec = eig_sym(_hamiltonians(p.epsilon, p.t, p.bz, p.bx))
    log_t, h, best, top = _PEAK_GRID, 4.0 / 399.0, 0.0, -math.inf
    while True:
        temp = np.array([10.0 ** float(x) for x in log_t])  # libm pow, not numpy's
        state, checks = _gibbs(dec, np.zeros(temp.size, dtype=np.intp), temp)
        ccc, more = _correlated_coherence(_rho(state))
        raise_first(checks + more, lambda i: {**point, "T": float(temp[i])})
        j, last = int(np.argmax(ccc)), temp.size - 1
        if ccc[j] > top:  # every Ccc that passed the checks is finite
            best, top = float(log_t[j]), float(ccc[j])
        if h <= 1e-7 or (log_t is _PEAK_GRID and j in (0, last)):
            return 10.0**best, top
        if log_t is _PEAK_GRID:  # a peak of the scan lies between j's neighbours
            lo, hi = float(log_t[j - 1]), float(log_t[j + 1])
        k = min(max(j, 1), last - 1)
        f0, f1, f2 = (float(f) for f in ccc[k - 1:k + 2])
        v, curve = float(log_t[k]), f0 - 2.0 * f1 + f2
        if curve < 0.0:
            v += 0.5 * h * (f0 - f2) / curve
        h /= 100.0
        v = min(max(v, lo + h), hi - h)
        log_t = np.array([v - h, v, v + h])
