"""Time the dataset invocations of make_datasets.py and write BENCH_<label>.json.

For each package source tree (default: this repository's src/), a worker
interpreter runs every `scripts/make_datasets.py` CLI invocation and its
anticrossing and peak searches in process, after one untimed call each,
then times each sweep kernel alone (KERNELS) on the first N points of
the 100x100 concurrence map of make_datasets.py, for each N in
KERNEL_SIZES, the Gibbs stage with the eigensolve it makes in that
tree's sweep; a kernel the tree lacks is recorded as null. The streaming
sweep.write_table, which evaluates the grid block by block itself, is
timed on the whole map only (N = 10^4; null at other N), with its
evaluation replaced by the map's precomputed C column: its time is the
block loop's own, building each block's parameters, then formatting and
writing it. A fresh interpreter then runs the whole
script, and each case of RSS_CASES runs in a fresh interpreter of its own
that reports its peak resident set size. Trees
take turns over several rounds, the first tree leading in odd rounds, so
host drift reaches every tree alike. After the rounds come the cold-start
cases (COLD_START_*): each probe is a fresh interpreter, with byte code
cached, that imports dqdtherm.cli and makes the smallest call of a
perfbench workload's first operation (perfbench/workloads.py's
setup_argv), or only imports numpy, the floor under every call. Probe
by probe the trees take turns, the first tree leading in even probes,
so drift between neighbouring probes reaches every tree alike. Then the
tier-1 test suite next to each tree (DIR/../tests) runs once, timed.
Uses only the standard library and numpy:

    python3 scripts/bench_cli.py --label after
    python3 scripts/bench_cli.py --label cmp --src parent=../old/src --src change=src

The JSON holds, per tree and invocation, the median and quartiles in ms
over ROUNDS * REPEATS in-process runs, per tree, kernel and N the median
and quartiles in us per call over as many samples, the fresh-interpreter script
times, a digest of the script's CSVs and stdout, the peak RSS in MiB of each
RSS_CASES run, per cold-start case the fastest time, median and quartiles
in ms over COLD_START_PROBES probes, the line count of the tree's
dqdtherm/*.py, the tier-1 wall
time with pytest's exit code and summary line (the suite has one test that
fails by design, so exit code 1 is recorded, not raised), and the host,
Python, numpy and BLAS-thread settings.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

SCRIPTS = pathlib.Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
ROUNDS = 5
REPEATS = 5  # in-process runs per invocation and round: ROUNDS * REPEATS >= 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KERNEL_SIZES = (1, 10_000)
KERNEL_CALLS = 20_000  # points per timed sample: N = 1 repeats a kernel this many times
KERNELS = (
    "model._energies",
    "model._hamiltonians",
    "thermal._gibbs",
    "thermal._rho",
    "correlations._concurrence",
    "correlations._gibbs_concurrence",
    "correlations._correlated_coherence",
    "sweep.write_table",
)
# the README's sweep config, with its epsilon count left open
README_CONFIG = """[fixed]
t = 7.0
bz = 16.0
bx = 100.0

[axis1]
name = epsilon
min = -5
max = 5
count = {count}

[axis2]
name = T
min = 0.01
max = 100
count = 101
scale = log

[output]
measures = concurrence, correlated_coherence
"""
# CLI runs whose peak RSS is recorded: a sweep config's epsilon count, or validate's argv
RSS_CASES = {
    "sweep README config 201x101": 201,
    "sweep README config 801x101": 801,
    "sweep README config 3201x101": 3201,
    "sweep README config 6401x101": 6401,
    "validate --samples 4096": ["validate", "--samples", "4096", "--seed", "42"],
    "validate --samples 200000": ["validate", "--samples", "200000", "--seed", "42"],
}
# run in a fresh interpreter: the CLI on argv, then this process's own peak RSS in KiB
RSS_PROBE = """import resource, sys
from dqdtherm.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""

# a fresh interpreter's first call: perfbench's set-up probe, the CLI on argv
COLD_START_CODE = "import sys, dqdtherm.cli; sys.exit(dqdtherm.cli.main(sys.argv[1:]))"
COLD_START_FLOOR = "import numpy"
COLD_START_WORKLOADS = ("maps", "curves", "oracle")
COLD_START_PROBES = 40


def _operations(out_dir: pathlib.Path) -> dict:
    """Every make_datasets.py step as a zero-argument call, by name."""
    import make_datasets
    from dqdtherm.cli import main as cli

    def run_cli(name, argv):
        def call():
            if cli(argv + ["--out", str(out_dir / name)]) != 0:
                raise SystemExit(f"{name}: exit code not 0")

        return call

    ops = {name: run_cli(name, argv) for name, argv in make_datasets.invocations()}
    ops["find_anticrossing"] = lambda: make_datasets.find_anticrossing(*make_datasets.ANTICROSSING)
    for label, t, bz in make_datasets.PEAKS:
        ops[f"find_coherence_peak {label}"] = (
            lambda t=t, bz=bz: make_datasets.find_coherence_peak(1.0, t, bz, 100.0)
        )
    return ops


def _kernels(n: int) -> dict:
    """Each name of KERNELS as a zero-argument call over n map points; None if missing.

    The Gibbs-state kernels are called as the tree's sweep calls them:
    the 100 bx values of the map are the distinct Hamiltonians, and the
    timed thermal._gibbs call includes their eigensolve and every check
    the tree's _gibbs makes: here 1/T and eigenvalue overflow and the
    orthonormality test, as thermal_state and SweepGrid test T itself.
    """
    import importlib

    import numpy as np

    modules = {m: importlib.import_module(f"dqdtherm.{m}") for m in
               ("model", "thermal", "correlations", "qmatrix", "sweep")}
    model, thermal, qmatrix = modules["model"], modules["thermal"], modules["qmatrix"]
    # make_datasets.py's first concurrence map: bx in [1, 100] x log T in [0.01, 100]
    bx = np.repeat(np.linspace(1.0, 100.0, 100), 100)[:n]
    temp = np.tile(np.logspace(-2.0, 2.0, 100), 100)[:n]
    eps, t, bz = np.full(n, 1.0), np.full(n, 7.0), np.full(n, 16.0)
    h = model._hamiltonians(eps, t, bz, bx)
    first = np.r_[True, bx[1:] != bx[:-1]]
    index, h_distinct = np.cumsum(first) - 1, h[first]

    def gibbs():
        return thermal._gibbs(qmatrix.eig_sym(h_distinct), index, temp)

    g, _ = gibbs()
    rho = thermal._rho(g)
    vectors = np.linalg.eigh(h)[1]
    roots = np.sqrt(g.weights)
    args = {
        "model._energies": (eps, t, bz, bx),
        "model._hamiltonians": (eps, t, bz, bx),
        "thermal._rho": (g,),
        "correlations._concurrence": (vectors, roots),
        "correlations._gibbs_concurrence": (g.dec.vectors, g.weights, index),
        "correlations._correlated_coherence": (rho,),
    }
    calls = {}
    for name in KERNELS:
        module, attr = name.split(".")
        fn = getattr(modules[module], attr, None)
        if fn is None or (name == "sweep.write_table" and n != 10_000):
            calls[name] = None
        elif name == "thermal._gibbs":
            calls[name] = gibbs
        elif name == "sweep.write_table":  # on the whole map, as it evaluates the grid itself
            sweep = modules["sweep"]
            grid = sweep.SweepGrid(
                fixed={"epsilon": 1.0, "t": 7.0, "bz": 16.0},
                axis1=sweep.Axis("bx", 1.0, 100.0, 100),
                axis2=sweep.Axis("T", 0.01, 100.0, 100, "log"),
                measures=("concurrence",),
            )
            calls[name] = lambda fn=fn, g=grid: _streamed(fn, sweep, g, roots[:, 0])
        else:
            calls[name] = lambda fn=fn, a=args[name]: fn(*a)
    return calls


def _streamed(write_table, sweep, grid, values) -> None:
    """write_table(stream, grid, header) with each block's C taken from values, in order."""
    rows = [0]

    def evaluate(cols, measures):
        rows[0] += len(cols["T"])
        return {"C": values[rows[0] - len(cols["T"]) : rows[0]]}

    real, sweep._evaluate = sweep._evaluate, evaluate
    try:
        write_table(io.StringIO(), grid, ("bx", "T", "C"))
    finally:
        sweep._evaluate = real


def worker() -> int:
    """Time every step and kernel REPEATS times, interleaved; print the times as JSON.

    A kernel sample is the mean time per call over KERNEL_CALLS / N calls.
    """
    sys.path.insert(0, str(SCRIPTS))
    with tempfile.TemporaryDirectory() as tmp:
        ops = _operations(pathlib.Path(tmp))
        for call in ops.values():
            call()  # untimed, so no timed call is the first
        times = {name: [] for name in ops}
        for _ in range(REPEATS):
            for name, call in ops.items():
                start = time.perf_counter()
                call()
                times[name].append(time.perf_counter() - start)
    kernels = {}
    for n in KERNEL_SIZES:
        calls = _kernels(n)
        for call in filter(None, calls.values()):
            call()
        reps = max(1, KERNEL_CALLS // n)
        for name, call in calls.items():
            samples = kernels.setdefault(name, {})[str(n)] = []
            for _ in range(REPEATS if call else 0):
                start = time.perf_counter()
                for _ in range(reps):
                    call()
                samples.append((time.perf_counter() - start) / reps)
    print(json.dumps({"ops": times, "kernels": kernels}))
    return 0


def _env(src: pathlib.Path, **extra) -> dict:
    """A child interpreter's environment: this one's, importing dqdtherm from src.

    PYTHONDONTWRITEBYTECODE is dropped, so that byte code is cached and no
    timed run but the first compiles the package's source.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return dict(env, PYTHONPATH=str(src), **extra)


def _run_script(src: pathlib.Path) -> tuple[float, str]:
    """Wall time of make_datasets.py in a fresh interpreter, and a digest of its output."""
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "make_datasets.py"), "--out-dir", "datasets"],
            cwd=tmp, env=_env(src), capture_output=True, check=True,
        )
        wall = time.perf_counter() - start
        digest = hashlib.sha256(done.stdout + done.stderr)
        for path in sorted(pathlib.Path(tmp, "datasets").iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
    return wall, digest.hexdigest()


def _peak_rss_mib(src: pathlib.Path, case) -> float:
    """Peak RSS of one RSS_CASES run in a fresh interpreter, in MiB; its output is discarded."""
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(case, int):
            config = pathlib.Path(tmp, "sweep.ini")
            config.write_text(README_CONFIG.format(count=case), encoding="utf-8")
            case = ["sweep", "--config", str(config)]
        done = subprocess.run(
            [sys.executable, "-c", RSS_PROBE, *case, "--out", str(pathlib.Path(tmp, "out.csv"))],
            env=_env(src), capture_output=True, check=True, text=True,
        )
    return int(done.stdout.split()[-1]) / 1024.0


def _cold_start(trees: dict) -> dict:
    """Seconds of each cold-start case per tree: one list of COLD_START_PROBES per case.

    A case is "import numpy" or a perfbench workload's set-up call. Each
    probe's byte code comes from a cache made by one untimed probe per
    tree and case.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        cache = str(pathlib.Path(tmp, "pycache"))
        out = ["--out", str(pathlib.Path(tmp, "out.csv"))]
        cases = {"import numpy": [sys.executable, "-c", COLD_START_FLOOR]}
        for name in COLD_START_WORKLOADS:
            argv = workloads.setup_argv(name, 0)
            cases[name] = [sys.executable, "-c", COLD_START_CODE, *argv, *out]
        times = {tree: {case: [] for case in cases} for tree in trees}

        def probe(tree, case):
            start = time.perf_counter()
            subprocess.run(cases[case], env=_env(trees[tree], PYTHONPYCACHEPREFIX=cache),
                           cwd=tmp, capture_output=True, check=True)
            return time.perf_counter() - start

        for tree in trees:
            for case in cases:
                probe(tree, case)  # untimed: writes the byte code cache
        for i in range(COLD_START_PROBES):
            for case in cases:
                for tree in list(trees) if i % 2 == 0 else list(trees)[::-1]:
                    times[tree][case].append(probe(tree, case))
    return times


def _src_lines(src: pathlib.Path) -> int:
    """Lines of the tree's dqdtherm/*.py, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in pathlib.Path(src, "dqdtherm").glob("*.py"))


def _run_tier1(src: pathlib.Path) -> dict | None:
    """Wall time, exit code and summary line of one tier-1 run of the tests beside src."""
    root = src.parent
    if not (root / "tests").is_dir():
        return None
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, env=_env(src), capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {
        "wall_s": wall,
        "exit_code": done.returncode,
        "summary": lines[-1] if lines else "",
        "failed": [line.split()[1] for line in lines if line.startswith("FAILED ")],
    }


def _stats(seconds: list, unit: str = "ms") -> dict:
    scale = {"ms": 1e3, "us": 1e6}[unit]
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {
        "n": len(seconds),
        f"median_{unit}": median * scale,
        f"q1_{unit}": q1 * scale,
        f"q3_{unit}": q3 * scale,
    }


def _host() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: v for k, v in blas.items() if "directory" not in k}
    except (TypeError, KeyError):
        blas = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="names the output file BENCH_<label>.json")
    parser.add_argument(
        "--src", action="append", metavar="NAME=DIR",
        help="a package source tree to time, repeatable (default: src=<repo>/src)",
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker()
    if not args.label:
        parser.error("--label is required")
    trees = {}
    for spec in args.src or [f"src={ROOT / 'src'}"]:
        name, sep, path = spec.partition("=")
        if not sep or not name or not pathlib.Path(path, "dqdtherm").is_dir():
            parser.error(f"--src needs NAME=DIR with DIR/dqdtherm, got {spec!r}")
        trees[name] = pathlib.Path(path).resolve()

    samples = {name: {} for name in trees}
    kernels = {name: {} for name in trees}
    fresh = {name: [] for name in trees}
    rss = {name: {case: [] for case in RSS_CASES} for name in trees}
    digests = {name: set() for name in trees}
    for round_ in range(ROUNDS):
        order = list(trees) if round_ % 2 == 0 else list(trees)[::-1]
        for name in order:
            done = subprocess.run(
                [sys.executable, __file__, "--worker"],
                env=_env(trees[name]), capture_output=True, check=True, text=True,
            )
            report = json.loads(done.stdout)
            for op, times in report["ops"].items():
                samples[name].setdefault(op, []).extend(times)
            for kernel, by_size in report["kernels"].items():
                for n, times in by_size.items():
                    kernels[name].setdefault(kernel, {}).setdefault(n, []).extend(times)
            wall, digest = _run_script(trees[name])
            fresh[name].append(wall)
            digests[name].add(digest)
            for case, spec in RSS_CASES.items():
                rss[name][case].append(_peak_rss_mib(trees[name], spec))
            print(f"round {round_ + 1}/{ROUNDS} {name}: make_datasets.py {wall:.3f} s, "
                  f"peak RSS {[r[-1] for r in rss[name].values()]} MiB", file=sys.stderr)
    cold = _cold_start(trees)
    for name in trees:
        fastest = {case: round(min(times) * 1e3, 1) for case, times in cold[name].items()}
        print(f"cold start {name}: fastest {fastest} ms", file=sys.stderr)
    tier1 = {}
    for name, src in trees.items():
        tier1[name] = _run_tier1(src)
        print(f"tier-1 {name}: {tier1[name] and tier1[name]['summary']}", file=sys.stderr)

    result = {
        "label": args.label,
        "host": _host(),
        "method": (
            f"{ROUNDS} rounds, trees alternating first; per round and tree one worker "
            f"interpreter runs each step {REPEATS} times in process after one untimed "
            f"call, then times each kernel {REPEATS} times at each N in {KERNEL_SIZES} "
            f"(one sample: the mean over {KERNEL_CALLS} / N calls, after one untimed "
            "call), then one fresh interpreter runs the whole make_datasets.py, then "
            "one fresh interpreter per RSS_CASES run reads its own ru_maxrss; "
            f"then {COLD_START_PROBES} cold-start probes per case and tree, trees "
            "alternating probe by probe, with byte code cached; "
            "then the tier-1 suite of each tree runs once"
        ),
        "trees": {
            name: {
                "in_process": {op: _stats(times) for op, times in samples[name].items()},
                "kernels_us_per_call": {
                    kernel: {n: _stats(times, "us") if times else None
                             for n, times in by_size.items()}
                    for kernel, by_size in kernels[name].items()
                },
                "make_datasets_fresh_s": {
                    "runs": fresh[name], "median": statistics.median(fresh[name]),
                },
                "output_sha256": sorted(digests[name]),
                "peak_rss_mib": {
                    case: {"runs": runs, "median": statistics.median(runs)}
                    for case, runs in rss[name].items()
                },
                "cold_start_ms": {
                    case: {"fastest_ms": min(times) * 1e3, **_stats(times)}
                    for case, times in cold[name].items()
                },
                "src_lines": _src_lines(trees[name]),
                "tier1": tier1[name],
            }
            for name in trees
        },
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
