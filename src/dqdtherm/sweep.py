"""Parameter-grid sweeps with deterministic CSV serialization.

A sweep walks one or two parameter axes, evaluates a set of measures at
every grid point, and emits rows in row-major axis order.  The grid is
held as columns, one float array per parameter, and evaluated in blocks
of whole rows of axis2, about _BLOCK points each, keeping only the
output columns.  In a block, consecutive points with the same (eps, t,
bz, bx) share one Hamiltonian, so thermal._gibbs_columns stacks the
distinct Hamiltonians into one (M, 4, 4) array and one batched
eigendecomposition serves every Gibbs state: a grid whose T axis is
innermost diagonalizes each distinct H once (a one-axis T sweep, once
per block), and one with T outer or fixed, every point.  Each measure
then runs once over the block's stack of states.  That eigensolve is the
block's only one: the density-matrix checks, the concurrence and the
fidelity read the shared eigenvectors and the Gibbs weights, and the
block's (N, 4, 4) density matrices are formed, once, only for the
populations, l1 and correlated coherence.  Every check over a
block is a (bad, error) pair, and qmatrix.raise_first raises the error
of the block's first failing point in row-major order, at that point the
earliest check's: the Gibbs inputs, then the Gibbs state, then each
measure in the order requested.  The blocks run in order, so the error
names the grid's first failing point.  write_table prints the columns as
CSV in blocks of _BLOCK rows, each formatted by one %-operation.  Each
point gives the same bits alone or inside any grid, so reruns of the
same input on one machine produce byte-identical CSV.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .correlations import _correlated_coherence, _gibbs_concurrence, _l1
from .model import ModelParams, _energies, golden_section_min
from .qmatrix import ValidationError, raise_first
from .thermal import _gibbs, _gibbs_columns, _rho

__all__ = [
    "PARAM_NAMES",
    "MEASURE_COLUMNS",
    "ConfigError",
    "Axis",
    "SweepGrid",
    "sweep_columns",
    "write_table",
    "load_config",
    "find_coherence_peak",
]

PARAM_NAMES = ("epsilon", "t", "bz", "bx", "T")

MEASURE_COLUMNS = {
    "energies": ("E1", "E2", "E3", "E4"),
    "populations": ("rho11", "rho22", "rho33", "rho44"),
    "concurrence": ("C",),
    "fidelity_pure": ("F",),
    "l1": ("l1",),
    "correlated_coherence": ("Ccc",),
}


class ConfigError(ValueError):
    """Invalid sweep specification (grid or config file)."""


def _point_count(count, what: str) -> int:
    """count as an int: an integral value >= 2, not a truncated one."""
    try:
        n = int(count)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != count:
        raise ConfigError(f"{what} must be an integer, got {count!r}")
    if n < 2:
        raise ConfigError(f"{what} must be >= 2")
    return n


@dataclass(frozen=True)
class Axis:
    """One swept parameter: name, closed interval, point count, and scale."""

    name: str
    lo: float
    hi: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in PARAM_NAMES:
            raise ConfigError(f"unknown axis parameter {self.name!r}")
        try:
            lo, hi = float(self.lo), float(self.hi)
        except (TypeError, ValueError, OverflowError):
            lo = hi = math.nan
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ConfigError(f"axis {self.name}: need finite lo < hi, got {[self.lo, self.hi]}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "count", _point_count(self.count, f"axis {self.name}: count"))
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"axis {self.name}: scale must be linear or log")
        if self.scale == "log" and lo <= 0.0:
            raise ConfigError(f"axis {self.name}: log scale requires lo > 0")
        # the step np.linspace takes, or the top value np.logspace makes
        with np.errstate(over="ignore"):
            reach = hi - lo if self.scale == "linear" else np.power(10.0, math.log10(hi))
        if not math.isfinite(reach):
            raise ConfigError(f"axis {self.name}: values overflow a float on [{lo}, {hi}]")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepGrid:
    """Fixed parameter values plus one or two axes and the measures to emit.

    Every grid point is a valid input: each parameter is finite, t >= 0
    and T > 0.  The axes ascend, so testing each parameter at its fixed
    value or its axis's lo tests every point; a bad one raises ConfigError.
    """

    fixed: dict
    axis1: Axis
    axis2: Axis | None
    measures: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "measures", tuple(self.measures))
        if not self.measures:
            raise ConfigError("at least one measure is required")
        for m in self.measures:
            if m not in MEASURE_COLUMNS:
                raise ConfigError(f"unknown measure {m!r}")
        if len(set(self.measures)) != len(self.measures):
            raise ConfigError("duplicate measures")
        axis_names = {self.axis1.name}
        if self.axis2 is not None:
            if self.axis2.name == self.axis1.name:
                raise ConfigError("axis1 and axis2 sweep the same parameter")
            axis_names.add(self.axis2.name)
        fixed = {str(k): float(v) for k, v in dict(self.fixed).items()}
        object.__setattr__(self, "fixed", fixed)
        for k in fixed:
            if k not in PARAM_NAMES:
                raise ConfigError(f"unknown fixed parameter {k!r}")
            if k in axis_names:
                raise ConfigError(f"parameter {k!r} is both fixed and swept")
        missing = set(PARAM_NAMES) - axis_names - set(fixed)
        if missing:
            raise ConfigError(f"parameters not specified: {sorted(missing)}")
        probe = dict(fixed)
        for ax in (self.axis1, self.axis2):
            if ax is not None:
                probe[ax.name] = ax.lo
        try:
            ModelParams(probe["epsilon"], probe["t"], probe["bz"], probe["bx"])
        except ValidationError as exc:
            raise ConfigError(str(exc))
        if not (math.isfinite(probe["T"]) and probe["T"] > 0.0):
            raise ConfigError(f"temperature must be positive, got {probe['T']}")

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


def _grid_columns(grid: SweepGrid) -> dict:
    """The grid's parameters as float arrays in row-major order.

    Keys come fixed values first, then axis1, then axis2, the order of
    the point dicts that error messages show.
    """
    v1 = grid.axis1.values()
    v2 = grid.axis2.values() if grid.axis2 is not None else None
    n = v1.size if v2 is None else v1.size * v2.size
    cols = {k: np.full(n, v) for k, v in grid.fixed.items()}
    if v2 is None:
        cols[grid.axis1.name] = v1
    else:
        cols[grid.axis1.name] = np.repeat(v1, v2.size)
        cols[grid.axis2.name] = np.tile(v2, v1.size)
    return cols


# grid points evaluated, and table rows formatted, per block: bounds the
# memory of any grid
_BLOCK = 4096


def sweep_columns(grid: SweepGrid) -> dict:
    """Evaluate the grid: each parameter and measure column as one array, row-major.

    The points are evaluated in blocks of whole rows of axis2, at most
    _BLOCK points each unless one row is longer, and each block's output
    columns are copied out before the next block runs.  The first failing
    block raises, naming the first failing point in row-major order.
    """
    cols = _grid_columns(grid)
    n = len(cols["T"])
    row = grid.axis2.count if grid.axis2 is not None else 1
    step = max(1, _BLOCK // row) * row
    out = {c: np.empty(n) for c in grid.columns()}
    for start in range(0, n, step):
        block = _evaluate({k: v[start : start + step] for k, v in cols.items()}, grid.measures)
        for c, column in out.items():
            column[start : start + step] = block[c]
    return {**cols, **out}


def write_table(stream, header, columns) -> None:
    """Write a header and equal-length float columns as comma-separated lines.

    Each value prints with 12 significant digits and -0 as 0: adding 0.0
    turns -0 into 0, and each block of rows is one %-operation on a
    "%.12g" template.
    """
    stream.write(",".join(header) + "\n")
    table = np.column_stack(columns) + 0.0
    template = ",".join(["%.12g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), _BLOCK):
        block = table[start : start + _BLOCK]
        stream.write(template * len(block) % tuple(block.ravel().tolist()))


def _axis_from_section(section) -> Axis:
    required = {"name", "min", "max", "count"}
    keys = set(section.keys())
    unknown = keys - required - {"scale"}
    if unknown:
        raise ConfigError(f"unknown axis keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"axis section missing keys {sorted(missing)}")
    try:
        return Axis(
            name=section["name"].strip(),
            lo=float(section["min"]),
            hi=float(section["max"]),
            count=int(section["count"]),
            scale=section.get("scale", "linear").strip(),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad axis value: {exc}")


def load_config(path):
    """Parse a sweep config file into (SweepGrid, output path or None).

    Format: INI-style sections [fixed], [axis1], optional [axis2], and
    [output] with a comma-separated `measures` key and optional `path`.
    """
    parser = configparser.ConfigParser()
    # keys stay case sensitive: t (tunneling) and T (temperature) differ
    parser.optionxform = str
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}")
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    known = {"fixed", "axis1", "axis2", "output"}
    sections = set(parser.sections())
    unknown = sections - known
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}")
    for name in ("fixed", "axis1", "output"):
        if name not in sections:
            raise ConfigError(f"config missing [{name}] section")
    try:
        fixed = {k: float(v) for k, v in parser["fixed"].items()}
    except ValueError as exc:
        raise ConfigError(f"bad [fixed] value: {exc}")
    axis1 = _axis_from_section(parser["axis1"])
    axis2 = _axis_from_section(parser["axis2"]) if "axis2" in sections else None
    out_section = parser["output"]
    unknown = set(out_section.keys()) - {"measures", "path"}
    if unknown:
        raise ConfigError(f"unknown [output] keys {sorted(unknown)}")
    if "measures" not in out_section:
        raise ConfigError("[output] section needs a measures key")
    measures = tuple(
        m.strip() for m in out_section["measures"].split(",") if m.strip()
    )
    grid = SweepGrid(fixed=fixed, axis1=axis1, axis2=axis2, measures=measures)
    return grid, out_section.get("path")


def find_coherence_peak(
    epsilon: float,
    t: float,
    bz: float,
    bx: float,
    t_lo: float = 0.01,
    t_hi: float = 100.0,
    count: int = 400,
):
    """Temperature maximizing correlated coherence, with the peak value.

    Scans a logarithmic temperature grid of count <= _BLOCK points as one
    batch, then golden-section refines around the grid maximum in log10(T)
    through the same kernels and the scan's one eigendecomposition of H,
    each objective call a batch of the search's next probes.
    """
    scan = Axis("T", t_lo, t_hi, count, "log")
    if scan.count > _BLOCK:
        raise ConfigError(f"count must be <= {_BLOCK}, one sweep block, got {count}")
    p = ModelParams(epsilon, t, bz, bx)
    grid = np.linspace(math.log10(scan.lo), math.log10(scan.hi), scan.count)
    scan = {k: np.full(grid.size, getattr(p, k)) for k in ("epsilon", "t", "bz", "bx")}
    scan["T"] = np.array([10.0 ** float(x) for x in grid])  # libm pow, not numpy's
    state, checks = _gibbs_columns(scan)
    values, more = _correlated_coherence(_rho(state))
    raise_first(checks + more, _lookup(scan))

    def neg_ccc(log_t: np.ndarray) -> np.ndarray:
        # the kernels of correlated_coherence(thermal_state(p, T).rho), without
        # the density-matrix checks, on the scan's one eigendecomposition
        temps = np.array([10.0 ** float(x) for x in log_t])
        g = _gibbs(state.dec, np.zeros(temps.size, dtype=np.intp), temps)
        ccc, more = _correlated_coherence(_rho(g))
        raise_first(g.checks + more)
        return -ccc

    k = int(np.argmax(values))
    if k == 0 or k == len(grid) - 1:
        return float(10.0 ** grid[k]), float(values[k])
    x, neg = golden_section_min(neg_ccc, float(grid[k - 1]), float(grid[k + 1]), tol=1e-6)
    return float(10.0**x), float(-neg)
