"""One benchmark run in a fresh interpreter: timed passes over a workload.

Started by run.py with `src/` on PYTHONPATH. Runs passes of the workload
until `--seconds` have gone by, checks every output of the package under
test, and prints one JSON object on stdout.

With `--trace 0` every operation is run twice in a pass, once by the
package under test and once by the frozen copy `dqdtherm_frozen` (the
package as it was when the benchmark was added), back to back and in
alternating order, so both see the same load from the machine's other
tenants. The first pass runs the package under test alone and its peak
memory is read before the frozen copy is imported. With `--trace 1` the
passes alternate between untraced and traced, so the tracing overhead is
measured in the same process.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import pathlib
import resource
import sys
import time
import traceback

import checks
import workloads
from tracer import PACKAGE, Tracer

FROZEN = "dqdtherm_frozen"


def run_op(op, out_dir, stderr, package=PACKAGE):
    """Run one operation; return (result or exception, wall s, cpu s, stderr lines)."""
    cli = sys.modules[f"{package}.cli"]
    model = sys.modules[f"{package}.model"]
    sweep = sys.modules[f"{package}.sweep"]
    p = op.params
    out = out_dir / f"{'' if package == PACKAGE else package + '-'}{op.name}.csv"
    stderr.seek(0)
    stderr.truncate()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if op.kind == "anticrossing":
            a = model.find_anticrossing(p["t"], p["bz"], p["bx"], workloads.ANTICROSSING["pair"],
                                        workloads.ANTICROSSING["eps_range"])
            result = (a.eps, a.gap)
        elif op.kind == "peak":
            result = sweep.find_coherence_peak(p["eps"], p["t"], p["bz"], p["bx"])
        else:
            result = cli.main([*op.argv, "--out", str(out)])
    except Exception as exc:  # the operation failed; the run goes on to report it
        result = exc
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return result, wall, cpu, len(stderr.getvalue().splitlines())


def run_frozen(op, out_dir, stderr, times):
    """Time one operation of the frozen copy into `times`; its outputs are not checked."""
    result, wall, cpu, _ = run_op(op, out_dir, stderr, FROZEN)
    api = op.kind in ("anticrossing", "peak")
    if isinstance(result, Exception) or not api and result != 0:
        raise SystemExit(f"frozen copy failed on {op.name}: {result!r}")
    times["wall_s"].append(wall)
    times["cpu_s"].append(cpu)


def run_pass(ops, seed, index, out_dir, stderr, reference, counters, frozen=None):
    """Time one pass over the operations and check every output.

    With `frozen` ({"wall_s": [], "cpu_s": []}), each operation also runs in
    the frozen copy, right after it on even passes and right before it on
    odd ones, and the output check follows both, so each side follows a
    check equally often. Returns the wall and CPU seconds of each operation.
    """
    wall, cpu = [], []
    for op in ops:
        counters["attempted"] += 1
        if frozen is not None and index % 2:
            run_frozen(op, out_dir, stderr, frozen)
        result, dt, dc, log_lines = run_op(op, out_dir, stderr)
        wall.append(dt)
        cpu.append(dc)
        if op.kind == "validate":
            counters["log_lines"] = log_lines
        if frozen is not None and not index % 2:
            run_frozen(op, out_dir, stderr, frozen)
        try:
            if isinstance(result, Exception):
                raise result
            ref = reference.get(op.name) if reference else None
            if op.kind in ("anticrossing", "peak"):
                checks.check_api(op, result, ref)
            else:
                if result != 0:
                    raise checks.CheckFailed(f"exit code {result}")
                text = (out_dir / f"{op.name}.csv").read_text(encoding="utf-8")
                counters["rows_changed"] += checks.check_cli(
                    op, text, ref, checks.spot_rng(seed, index, op.name))
        except Exception as exc:  # every failure counts against the run
            counters["failed"] += 1
            counters["errors"].append(f"{op.name}: {type(exc).__name__}: {exc}")
    return wall, cpu


def warm_up(package, setup_argv, out_dir):
    """One untimed call at the smallest size, so no timed call is the first."""
    cli = importlib.import_module(f"{package}.cli")
    if cli.main([*setup_argv, "--out", str(out_dir / f"warm-up-{package}.csv")]) != 0:
        raise SystemExit(f"{package}: warm-up call {setup_argv} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=pathlib.Path, required=True)
    parser.add_argument("--reference", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    import dqdtherm.cli  # loads every layer the tracer wraps
    src = pathlib.Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if src not in pathlib.Path(dqdtherm.cli.__file__).resolve().parents:
        raise SystemExit(f"imported {dqdtherm.cli.__file__}, not the package under {src}")

    ops = workloads.build(args.workload, args.seed)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    default = args.seed == workloads.DEFAULT_SEED
    reference = checks.load_reference(args.reference, [op.name for op in ops]) if default else None

    # The CLI binds its log handler to sys.stderr on first use, so the
    # capture stream is installed before any call and reused throughout.
    real_stdout = sys.stdout
    stderr = sys.stderr = io.StringIO()
    sys.stdout = io.StringIO()
    counters = {"attempted": 0, "failed": 0, "errors": [], "log_lines": 0,
                "rows_changed": 0}
    tracer = Tracer() if args.trace else None
    untraced, traced, frozen = [], [], []
    setup_argv = workloads.setup_argv(args.workload, args.seed)
    warm_up(PACKAGE, setup_argv, args.out_dir)
    start = time.perf_counter()
    last = 0.0
    peak_rss = None
    # Stop before a pass that would overrun --seconds, once the metrics
    # have the passes they need.
    while (time.perf_counter() + last - start <= args.seconds
           or len(untraced) < 2 or (tracer and not traced)):
        index = len(untraced) + len(traced)
        began = time.perf_counter()
        if tracer and index % 2:
            with tracer:
                wall, cpu = run_pass(ops, args.seed, index, args.out_dir, stderr,
                                     reference, counters)
            traced.append({"wall_s": wall, "layers": tracer.summary()})
        elif tracer:
            wall, cpu = run_pass(ops, args.seed, index, args.out_dir, stderr, reference, counters)
            untraced.append({"wall_s": wall, "cpu_s": cpu})
        else:
            pair = {"wall_s": [], "cpu_s": []}
            if index == 0:
                # the program alone first, so its peak memory is its own
                wall, cpu = run_pass(ops, args.seed, index, args.out_dir, stderr,
                                     reference, counters)
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                warm_up(FROZEN, setup_argv, args.out_dir)
                for op in ops:
                    run_frozen(op, args.out_dir, stderr, pair)
            else:
                wall, cpu = run_pass(ops, args.seed, index, args.out_dir, stderr,
                                     reference, counters, pair)
            untraced.append({"wall_s": wall, "cpu_s": cpu})
            frozen.append(pair)
        if counters["failed"] and untraced and (traced or not tracer):
            break  # a failing program is reported, not timed
        last = time.perf_counter() - began
        sys.stdout.seek(0)
        sys.stdout.truncate()
    passes = len(untraced) + len(traced)
    sweep = sys.modules[f"{PACKAGE}.sweep"]
    pool = getattr(sweep, "_worker_count", None)
    result = {
        "attempted": counters["attempted"],
        "failed": counters["failed"],
        "errors": counters["errors"][:20],
        "points": sum(op.points for op in ops),
        "untraced": untraced,
        "traced": traced,
        "frozen": frozen,
        "rows_changed": counters["rows_changed"] // passes,
        "log_lines": counters["log_lines"],
        "peak_rss_mb": peak_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sweep_workers": pool(max(op.points for op in ops)) if pool else 1,
    }
    real_stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc(file=sys.__stderr__)
        sys.exit(3)
