"""Workload definitions: the `scripts/make_datasets.py` invocations as operations.

Each workload is a list of operations. A CLI operation is one `dqdtherm`
subcommand (its `--out` path is added when it runs); an API operation is
one call of `find_anticrossing` or `find_coherence_peak`. The default
seed gives exactly the dataset invocations. Any other seed scales every
fixed model parameter (eps, t, bz, bx) by a factor in [0.98, 1.02] and
moves `validate --seed`, so zeros stay zeros and every point count stays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
VALIDATE_SEED = 42
VALIDATE_SAMPLES = 200
JITTER = 0.02

SPECTRUM_N = 801
CURVE_N = 400
# the dataset map's ranges at a quarter of its resolution (100x100 there),
# so a run holds tens of passes of the map
MAP_BX_N = 25
MAP_T_N = 25

# find_anticrossing and find_coherence_peak as make_datasets.py calls them
ANTICROSSING = {"t": "7", "bz": "16", "bx": "100", "pair": ("E3", "E4"), "eps_range": (50.0, 150.0)}
ANTICROSSING_STEP = 0.1
ANTICROSSING_TOL = 1e-6
PEAKS = ({"eps": "1", "t": "7", "bz": "16", "bx": "100"},
         {"eps": "1", "t": "15.4", "bz": "24", "bx": "100"})
PEAK_T_RANGE = (0.01, 100.0)
PEAK_SCAN_N = 400
PEAK_TOL = 1e-6

WHY = {
    "maps": "one 25x25 concurrence-map: 625 grid points of one measure, the throughput-bound grid path",
    "curves": "the ten 1-D CLI curves: many short invocations, so fixed per-call cost and correlated coherence show",
    "oracle": "validate, find_anticrossing and find_coherence_peak: sequential per-point API calls no batching can help",
}


@dataclass(frozen=True)
class Op:
    """One operation: a CLI subcommand or an API call, with its fixed parameters."""

    name: str
    kind: str  # CLI subcommand, "anticrossing" or "peak"
    params: dict  # fixed model parameters as floats: eps, t, bz, bx
    argv: tuple = ()  # CLI arguments without --out
    points: int = 0  # grid points, samples or objective evaluations


def golden_evaluations(width: float, tol: float) -> int:
    """Objective evaluations of a golden-section search over `width` to `tol`.

    Two initial probes, one per interval shrink, one at the midpoint.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    shrinks = 0
    while width > tol:
        width *= invphi
        shrinks += 1
    return 3 + shrinks


# counts of the set-up call: the fewest each flag accepts
SETUP_COUNTS = {"--n": "2", "--bx-n": "2", "--t-n": "2", "--samples": "1"}


class _Jitter:
    """Seeded, consistent perturbation of fixed parameter values."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.memo = {}

    def __call__(self, key: str, text: str) -> str:
        if self.seed == DEFAULT_SEED:
            return text
        if (key, text) not in self.memo:
            factor = 1.0 + self.rng.uniform(-JITTER, JITTER)
            self.memo[(key, text)] = repr(float(text) * factor)
        return self.memo[(key, text)]


def _cli(name, jit, sub, fixed, grid, points) -> Op:
    fixed = {k: jit(k, v) for k, v in fixed.items()}
    argv = [sub]
    for k, v in fixed.items():
        argv += [f"--{k}", v]
    return Op(name, sub, {k: float(v) for k, v in fixed.items()}, tuple(argv + grid), points)


def _maps(jit):
    grid = ["--bx-min", "1", "--bx-max", "100", "--bx-n", str(MAP_BX_N),
            "--t-min", "0.01", "--t-max", "100", "--t-n", str(MAP_T_N), "--log"]
    return [_cli(f"concurrence_map_t7_bz16_{MAP_BX_N}x{MAP_T_N}", jit, "concurrence-map",
                 {"t": "7", "bz": "16", "eps": "1"}, grid, MAP_BX_N * MAP_T_N)]


def _curves(jit):
    ops = []
    for name, t, bz, bx in (("spectrum_t7_bz16_bx100", "7", "16", "100"),
                            ("spectrum_t7_bz16_bx0", "7", "16", "0"),
                            ("spectrum_t15p4_bz24_bx10", "15.4", "24", "10"),
                            ("spectrum_t15p4_bz24_bx0", "15.4", "24", "0")):
        ops.append(_cli(name, jit, "spectrum", {"t": t, "bz": bz, "bx": bx},
                        ["--eps-min", "-200", "--eps-max", "200", "--n", str(SPECTRUM_N)],
                        SPECTRUM_N))
    hot = ["--t-min", "0.01", "--t-max", "1e4", "--n", str(CURVE_N), "--log"]
    cold = ["--t-min", "0.01", "--t-max", "100", "--n", str(CURVE_N), "--log"]
    base = {"t": "7", "bz": "16", "bx": "100"}
    for eps in ("0.5", "2"):
        ops.append(_cli(f"populations_eps{eps.replace('.', 'p')}", jit, "populations",
                        {"eps": eps, **base}, hot, CURVE_N))
    for eps in ("0", "10"):
        ops.append(_cli(f"fidelity_eps{eps}", jit, "fidelity", {"eps": eps, **base}, hot, CURVE_N))
    ops.append(_cli("coherence_t7_bz16", jit, "coherence", {"eps": "1", **base}, cold, CURVE_N))
    ops.append(_cli("coherence_t15p4_bz24", jit, "coherence",
                    {"eps": "1", "t": "15.4", "bz": "24", "bx": "100"}, cold, CURVE_N))
    return ops


def _oracle(jit, seed):
    vseed = VALIDATE_SEED + seed - DEFAULT_SEED
    ops = [Op("validation_report", "validate", {},
              ("validate", "--samples", str(VALIDATE_SAMPLES), "--seed", str(vseed)),
              VALIDATE_SAMPLES)]
    lo, hi = ANTICROSSING["eps_range"]
    coarse = max(3, int(math.ceil((hi - lo) / ANTICROSSING_STEP)) + 1)
    bracket = 2.0 * (hi - lo) / (coarse - 1)
    params = {k: float(jit(k, ANTICROSSING[k])) for k in ("t", "bz", "bx")}
    ops.append(Op("anticrossing_E3_E4", "anticrossing", params,
                  points=coarse + golden_evaluations(bracket, ANTICROSSING_TOL)))
    t_lo, t_hi = PEAK_T_RANGE
    bracket = 2.0 * (math.log10(t_hi) - math.log10(t_lo)) / (PEAK_SCAN_N - 1)
    for fixed in PEAKS:
        params = {k: float(jit(k, v)) for k, v in fixed.items()}
        ops.append(Op(f"coherence_peak_t{fixed['t'].replace('.', 'p')}", "peak", params,
                      points=PEAK_SCAN_N + golden_evaluations(bracket, PEAK_TOL)))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of `workload` for `seed`."""
    jit = _Jitter(seed)
    if workload == "maps":
        return _maps(jit)
    if workload == "curves":
        return _curves(jit)
    if workload == "oracle":
        return _oracle(jit, seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WHY)}")


def setup_argv(workload: str, seed: int) -> list[str]:
    """The workload's first operation cut to its smallest size: one short CLI call."""
    argv = list(build(workload, seed)[0].argv)
    for i, flag in enumerate(argv[:-1]):
        if flag in SETUP_COUNTS:
            argv[i + 1] = SETUP_COUNTS[flag]
    return argv
