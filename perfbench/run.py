"""dqdtherm benchmark: end-to-end and per-layer costs of the dataset workloads.

Run from the repository root:

    python3 perfbench/run.py --workload maps --seed 0 --seconds 40 --trace 0

Workloads (see workloads.py): `maps`, `curves` and `oracle`; together they
are the invocations of `scripts/make_datasets.py` except the second
100x100 map and the 21x21 map window. Seed 0 reproduces those invocations
and is checked against the stored reference outputs; other seeds perturb
the fixed model parameters by up to 2% and are checked against physics
invariants. Every seed is spot-checked against an `np.linalg.eigh` oracle.

The package is imported from `src/` with its byte code cached under
`.bench_build/`. Each run starts fresh interpreters only: one worker that
runs passes of the workload for `--seconds` (see worker.py), and around it
twenty that import `dqdtherm.cli`, make the workload's first call at its
smallest size and stop (the set-up time). The worker times every
operation back to back with `dqdtherm_frozen`, a copy of the package as
it was when the benchmark was added, and the time metrics are ratios to
that copy, because the shared machine's speed drifts by tens of percent
from second to second and a ratio of neighbouring timings cancels most
of it. `DQD_THREADS` is removed from the children's environment, so the
sweep pool runs at its shipped default. With `--trace 0` the last stdout line holds the
end-to-end metrics, with `--trace 1` the per-layer metrics (tracer.py).
The run's environment is written to `.bench_build/perfbench/environment.json`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
REFERENCE = HERE / "reference" / "seed0.json.gz"
SETUP_PROBES = 20
# a fresh interpreter that imports the CLI and makes one call
SETUP_CODE = "import sys, dqdtherm.cli; sys.exit(dqdtherm.cli.main(sys.argv[1:]))"
WORKER_GRACE_S = 120.0  # keeps a hung worker within 180 s at --seconds 40

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import FUNCTIONS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.pop("DQD_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def build(env, setup_argv):
    """Byte-compile the package and warm the cache with one set-up call."""
    if not (SRC / "dqdtherm" / "cli.py").is_file():
        raise SystemExit(f"no dqdtherm sources under {SRC}; run from the repository root")
    BUILD.mkdir(exist_ok=True)
    sys.pycache_prefix = env["PYTHONPYCACHEPREFIX"]
    for package in (SRC / "dqdtherm", HERE / "dqdtherm_frozen"):
        if not compileall.compile_dir(str(package), quiet=1):
            raise SystemExit(f"{package.name} sources do not compile")
    setup_probe(env, setup_argv)


def setup_probe(env, argv):
    """Seconds from starting an interpreter until `dqdtherm.cli.main(argv)` has returned.

    The interpreter's start, the imports, the argument parsing, the sweep
    pool and the CSV writing are the fixed cost of every CLI invocation.
    """
    out = BUILD / "perfbench" / "setup.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *argv, "--out", str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"set-up call {argv} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed


def run_worker(env, args, seconds):
    out_dir = BUILD / "perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--reference", str(REFERENCE)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"worker exited {proc.returncode} without a result:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def fastest(passes, key):
    """Seconds of a pass with each operation at its fastest over the passes.

    Other tenants of the machine only ever add time, so the fastest of many
    repeats is the steadiest estimate of an operation's cost (the rule
    `timeit` uses). Repeating each operation, not only whole passes, gives
    the short operations of a pass many more repeats.
    """
    return sum(min(times) for times in zip(*(p[key] for p in passes)))


def relative(res, key):
    """The program's time over the frozen copy's, summed over all passes.

    Each operation of the program ran back to back with the same operation
    of the frozen copy, so load from other tenants that slows both sides of
    a pair cancels out of the ratio; summing the pairs averages what does
    not.
    """
    return (sum(sum(p[key]) for p in res["untraced"])
            / sum(sum(p[key]) for p in res["frozen"]))


def end_to_end(res, setup):
    return {
        "wall_ratio": metric(relative(res, "wall_s"), "x"),
        "cpu_ratio": metric(relative(res, "cpu_s"), "x"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MiB"),
        "setup_s": metric(min(setup), "s"),
    }


def per_layer(res):
    traced = res["traced"]
    out = {}
    for name in FUNCTIONS:
        calls = traced[0]["layers"][name][0]
        self_s = statistics.median(p["layers"][name][1] for p in traced)
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.self_s"] = metric(self_s, "s")
        out[f"{name}.us_per_call"] = metric(1e6 * self_s / calls if calls else 0.0, "us")
    for name in ("qmatrix.eig_sym", "qmatrix.check_density_matrix"):
        out[f"{name}.per_point"] = metric(out[f"{name}.calls"]["value"] / res["points"],
                                          "calls/point")
    out["sweep.csv_rows_changed"] = metric(res["rows_changed"], "rows")
    out["validate.log_lines"] = metric(res["log_lines"], "lines")
    out["trace.overhead_s"] = metric(
        fastest(traced, "wall_s") - fastest(res["untraced"], "wall_s"), "s")
    return out


def repeatable(res):
    """Traced passes must make the same calls; a mismatch is a failed check."""
    first = {k: v[0] for k, v in res["traced"][0]["layers"].items()}
    return [i for i, p in enumerate(res["traced"][1:], 1)
            if {k: v[0] for k, v in p["layers"].items()} != first]


def cpu_facts():
    facts = {"model": platform.processor() or None, "caches": {}}
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            facts["caches"][f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return facts


def environment(args, res):
    import numpy
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        nproc = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "sweep_workers": res["sweep_workers"],
        # the caller's value, if any; the children always run without it
        "dqd_threads": os.environ.get("DQD_THREADS"),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_facts(),
        "passes": {k: len(res[k]) for k in ("untraced", "traced", "frozen")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = child_env()
    setup_argv = workloads.setup_argv(args.workload, args.seed)
    build(env, setup_argv)
    if not REFERENCE.is_file():
        raise SystemExit(f"missing reference outputs {REFERENCE}")

    # Half of the set-ups run before the worker and half after, so they span
    # the run; setup_s is the fastest of them, by the rule of fastest().
    # They share the run's --seconds with the worker.
    probes = 0 if args.trace else SETUP_PROBES
    t0 = time.perf_counter()
    setup = [setup_probe(env, setup_argv) for _ in range(probes // 2)]
    worker_s = max(args.seconds / 2, args.seconds - 2 * (time.perf_counter() - t0))
    res = run_worker(env, args, worker_s)
    setup += [setup_probe(env, setup_argv) for _ in range(probes - len(setup))]
    failed = res["failed"]
    mismatched = repeatable(res) if args.trace else []
    if mismatched:
        failed += 1
        res["errors"].append(f"traced passes {mismatched} made other calls than the first")
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)

    env_facts = environment(args, res)
    (BUILD / "perfbench").mkdir(parents=True, exist_ok=True)
    (BUILD / "perfbench" / "environment.json").write_text(json.dumps(env_facts, indent=2) + "\n")
    metrics = per_layer(res) if args.trace else end_to_end(res, setup)
    # the program's own times on this machine, for reading next to the ratios
    walls = [sum(p["wall_s"]) for p in res["untraced"]]
    wall = fastest(res["untraced"], "wall_s")
    print(json.dumps({"environment": env_facts, "fail_frac": failed / res["attempted"],
                      "wall_s": wall, "points_per_s": res["points"] / wall,
                      "frozen_wall_s": fastest(res["frozen"], "wall_s") if res["frozen"] else None,
                      "pass_wall_s": {"n": len(walls), "min": min(walls),
                                      "median": statistics.median(walls)}}), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
