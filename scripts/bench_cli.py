"""Time the dataset invocations of make_datasets.py and write BENCH_<label>.json.

For each package source tree (default: this repository's src/), a worker
interpreter runs every `scripts/make_datasets.py` CLI invocation and its
anticrossing and peak searches in process, after one untimed call each,
then times each sweep kernel alone (KERNELS) on the first N points of
the 100x100 concurrence map of make_datasets.py, for each N in
KERNEL_SIZES, the Gibbs stage with the eigensolve it makes in that
tree's sweep; a kernel the tree lacks under its name and under its
former name (FORMER_NAMES) is recorded as null. A fresh interpreter
then runs the whole script, and each case of RSS_CASES runs in a fresh
interpreter of its own that reports its peak resident set size. Trees
take turns over several rounds, the first tree leading in odd rounds, so
host drift reaches every tree alike. After the rounds, the tier-1 test
suite next to each tree (DIR/../tests) runs once, timed. Uses only the
standard library and numpy:

    python3 scripts/bench_cli.py --label after
    python3 scripts/bench_cli.py --label cmp --src parent=../old/src --src change=src

The JSON holds, per tree and invocation, the median and quartiles in ms
over ROUNDS * REPEATS in-process runs, per tree, kernel and N the median
and quartiles in us per call over as many samples, the fresh-interpreter script
times, a digest of the script's CSVs and stdout, the peak RSS in MiB of each
RSS_CASES run, the line count of the tree's dqdtherm/*.py, the tier-1 wall
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
    "qmatrix.gibbs_stack_checks",
    "correlations._correlated_coherence",
    "sweep.write_table",
)
# a kernel's name in older trees, so that a comparison times it in both
FORMER_NAMES = {"qmatrix.gibbs_stack_checks": "check_gibbs_stack"}
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
    timed thermal._gibbs call includes their eigensolve.  In a tree whose
    _gibbs forms rho, the kernels read that rho, and the Gibbs-stack
    check takes it first; in the others thermal._rho forms it.
    """
    import importlib
    import inspect

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

    g = gibbs()
    rho = g.rho if hasattr(g, "rho") else thermal._rho(g)
    shared = (g.dec.vectors, g.weights, index)
    vectors = np.linalg.eigh(h)[1]
    roots = np.sqrt(g.weights)
    args = {
        "model._energies": (eps, t, bz, bx),
        "model._hamiltonians": (eps, t, bz, bx),
        "thermal._rho": (g,),
        "correlations._concurrence": (vectors, roots),
        "correlations._gibbs_concurrence": shared,
        "qmatrix.gibbs_stack_checks": shared,
        "correlations._correlated_coherence": (rho,),
    }
    calls = {}
    for name in KERNELS:
        module, attr = name.split(".")
        fn = getattr(modules[module], attr, None) or getattr(
            modules[module], FORMER_NAMES.get(name, ""), None)
        if fn is None:
            calls[name] = None
            continue
        if name == "qmatrix.gibbs_stack_checks" and "rho" in inspect.signature(fn).parameters:
            args[name] = (rho, *args[name])
        if name == "thermal._gibbs":
            calls[name] = gibbs
        elif name == "sweep.write_table":
            cols = [bx, temp, roots[:, 0]]
            calls[name] = lambda fn=fn, cols=cols: fn(io.StringIO(), ("bx", "T", "C"), cols)
        else:
            calls[name] = lambda fn=fn, a=args[name]: fn(*a)
    return calls


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


def _run_script(src: pathlib.Path) -> tuple[float, str]:
    """Wall time of make_datasets.py in a fresh interpreter, and a digest of its output."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=str(src))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "make_datasets.py"), "--out-dir", "datasets"],
            cwd=tmp, env=env, capture_output=True, check=True,
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
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, check=True, text=True,
        )
    return int(done.stdout.split()[-1]) / 1024.0


def _src_lines(src: pathlib.Path) -> int:
    """Lines of the tree's dqdtherm/*.py, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in pathlib.Path(src, "dqdtherm").glob("*.py"))


def _run_tier1(src: pathlib.Path) -> dict | None:
    """Wall time, exit code and summary line of one tier-1 run of the tests beside src."""
    root = src.parent
    if not (root / "tests").is_dir():
        return None
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True,
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
            env = dict(os.environ, PYTHONPATH=str(trees[name]))
            done = subprocess.run(
                [sys.executable, __file__, "--worker"],
                env=env, capture_output=True, check=True, text=True,
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
