"""Command-line front end: figure datasets, free-form sweeps, validation.

Exit codes: 0 success, 1 invariant failure during computation or a hard
validation failure, 2 bad flags/config or inputs too large to compute with.
Only validate imports logging, to send its report's warnings to stderr,
and only sweep --config imports configparser (in sweep.load_config).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys

from .qmatrix import ValidationError
from .sweep import (
    PARAM_NAMES,
    Axis,
    ConfigError,
    SweepGrid,
    load_config,
    write_table,
)
from .validate import run_validation

__all__ = ["main"]


@contextlib.contextmanager
def _output(path):
    """A text stream whose text reaches path, or stdout, only if the run completes.

    A regular file, or none, at path is replaced by a new file made beside it;
    stdout and other paths (a device, a pipe) get a spool file, copied out.
    """
    if path and (os.path.isfile(path) or not os.path.exists(path)):
        spool = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            stream = open(spool, "x", encoding="utf-8", newline="")
        except OSError as exc:  # name the output, not the file made beside it
            raise OSError(exc.errno, exc.strerror, path) from None
        try:
            with stream:
                yield stream
            os.replace(spool, path)
        except BaseException:
            os.unlink(spool)
            raise
        return
    import shutil  # tempfile imports it too
    import tempfile

    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        yield spool
        spool.seek(0)
        with (open(path, "w", encoding="utf-8", newline="") if path
              else contextlib.nullcontext(sys.stdout)) as sink:
            shutil.copyfileobj(spool, sink)


def _write_sweep(path, grid: SweepGrid, header) -> int:
    """Evaluate the grid and write the columns the header names (eps is epsilon)."""
    with _output(path) as stream:
        write_table(stream, grid, header)
    return 0


def _cmd_spectrum(args) -> int:
    grid = SweepGrid(
        fixed={"t": args.t, "bz": args.bz, "bx": args.bx, "T": 1.0},
        axis1=Axis("epsilon", args.eps_min, args.eps_max, args.n),
        axis2=None,
        measures=("energies",),
    )
    return _write_sweep(args.out, grid, ("eps", *grid.columns()))


def _cmd_curve(args) -> int:
    """The measures against temperature: populations, fidelity or coherence."""
    grid = SweepGrid(
        fixed={"epsilon": args.eps, "t": args.t, "bz": args.bz, "bx": args.bx},
        axis1=Axis("T", args.t_min, args.t_max, args.n, "log" if args.log else "linear"),
        axis2=None,
        measures=args.measures,
    )
    return _write_sweep(args.out, grid, ("T", *grid.columns()))


# each concurrence-map mode, by its flag: the fixed parameter, the second axis and its flags
_MAP_MODES = {"eps": ("epsilon", "T", ("t_min", "t_max", "t_n", "log")),
              "temp": ("T", "epsilon", ("eps_min", "eps_max", "eps_n"))}


def _cmd_concurrence_map(args) -> int:
    if (args.eps is None) == (args.temp is None):
        raise ConfigError(
            "give exactly one of --eps (temperature on the second axis) "
            "or --temp (detuning on the second axis)"
        )
    mode = "eps" if args.eps is not None else "temp"
    bx_axis = Axis("bx", args.bx_min, args.bx_max, args.bx_n)
    for name, (*_, flags) in _MAP_MODES.items():
        for flag in flags:
            option, given = "--" + flag.replace("_", "-"), getattr(args, flag) is not None
            if given and name != mode:
                raise ConfigError(f"{option} is not used with --{mode}")
            if not given and name == mode and flag != "log":
                raise ConfigError(f"{option} is required with --{mode}")
    fixed, param, (lo, hi, n, *_) = _MAP_MODES[mode]
    axis2 = Axis(param, getattr(args, lo), getattr(args, hi), getattr(args, n),
                 "log" if args.log else "linear")
    grid = SweepGrid(fixed={"t": args.t, "bz": args.bz, fixed: getattr(args, mode)},
                     axis1=bx_axis, axis2=axis2, measures=("concurrence",))
    return _write_sweep(args.out, grid, ("bx", "eps" if mode == "temp" else "T", "C"))


def _cmd_validate(args) -> int:
    import logging  # the validation report is the package's only logging

    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
        )
    results = run_validation(samples=args.samples, seed=args.seed)
    with _output(args.out) as stream:
        stream.write("check,samples,flagged,max_residual,tolerance,hard,status,worst_point\n")
        for r in results:
            stream.write(
                f"{r.name},{r.samples},{r.flagged},{r.max_residual:.12g},{r.tolerance:.12g},"
                f"{int(r.hard)},{'fail' if r.failed else 'ok'},{r.worst_point}\n"
            )
    return 1 if any(r.failed for r in results) else 0


def _cmd_sweep(args) -> int:
    grid, config_out = load_config(args.config)
    return _write_sweep(args.out or config_out, grid, PARAM_NAMES + grid.columns())


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that also reads -2e2 and -1.5E-3 as negative numbers.

    argparse's own pattern takes only forms like -200 and -.5 for numbers,
    so --eps-min -2e2 would read -2e2 as an option.  Subparsers are made
    of the parser's own class, so each of them reads numbers alike.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dqdtherm",
        description="Thermal quantum correlations of a single-electron double quantum dot",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def model_flags(sp, with_eps: bool = True):
        sp.add_argument("--t", type=float, required=True, help="tunneling amplitude")
        sp.add_argument("--bz", type=float, required=True, help="longitudinal field")
        sp.add_argument("--bx", type=float, required=True, help="transverse field gradient")
        if with_eps:
            sp.add_argument("--eps", type=float, required=True, help="detuning")
        sp.add_argument("--out", help="output CSV path (default: stdout)")

    def temp_axis_flags(sp):
        sp.add_argument("--t-min", type=float, required=True, help="lowest temperature")
        sp.add_argument("--t-max", type=float, required=True, help="highest temperature")
        sp.add_argument("--n", type=int, required=True, help="grid point count")
        sp.add_argument("--log", action="store_true", help="logarithmic temperature grid")

    sp = sub.add_parser("spectrum", help="energy levels vs detuning")
    model_flags(sp, with_eps=False)
    sp.add_argument("--eps-min", type=float, required=True)
    sp.add_argument("--eps-max", type=float, required=True)
    sp.add_argument("--n", type=int, required=True, help="grid point count")
    sp.set_defaults(handler=_cmd_spectrum)

    for name, help_text, measures in (
        ("populations", "level occupations vs temperature", ("populations",)),
        ("fidelity", "ground-state fidelity vs temperature", ("fidelity_pure",)),
        (
            "coherence",
            "concurrence and correlated coherence vs temperature",
            ("concurrence", "correlated_coherence"),
        ),
    ):
        sp = sub.add_parser(name, help=help_text)
        model_flags(sp)
        temp_axis_flags(sp)
        sp.set_defaults(handler=_cmd_curve, measures=measures)

    sp = sub.add_parser(
        "concurrence-map",
        help="concurrence over a bx grid crossed with temperature or detuning",
    )
    sp.add_argument("--t", type=float, required=True, help="tunneling amplitude")
    sp.add_argument("--bz", type=float, required=True, help="longitudinal field")
    sp.add_argument("--bx-min", type=float, required=True)
    sp.add_argument("--bx-max", type=float, required=True)
    sp.add_argument("--bx-n", type=int, required=True)
    sp.add_argument("--eps", type=float, help="fixed detuning (sweeps temperature)")
    sp.add_argument("--temp", type=float, help="fixed temperature (sweeps detuning)")
    sp.add_argument("--t-min", type=float, help="lowest temperature (with --eps)")
    sp.add_argument("--t-max", type=float, help="highest temperature (with --eps)")
    sp.add_argument("--t-n", type=int, help="temperature point count (with --eps)")
    sp.add_argument("--log", action="store_true", default=None, help="logarithmic temperature grid")
    sp.add_argument("--eps-min", type=float, help="lowest detuning (with --temp)")
    sp.add_argument("--eps-max", type=float, help="highest detuning (with --temp)")
    sp.add_argument("--eps-n", type=int, help="detuning point count (with --temp)")
    sp.add_argument("--out", help="output CSV path (default: stdout)")
    sp.set_defaults(handler=_cmd_concurrence_map)

    sp = sub.add_parser("validate", help="oracle-equivalence and invariant report")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out", help="output CSV path (default: stdout)")
    sp.set_defaults(handler=_cmd_validate)

    sp = sub.add_parser("sweep", help="free-form sweep from a config file")
    sp.add_argument("--config", required=True, help="sweep config file path")
    sp.add_argument("--out", help="output CSV path (overrides config)")
    sp.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # parser.exit: 0 after --help, 2 on a usage error
        return exc.code
    try:
        return args.handler(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: inputs out of floating-point range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: inputs too large to compute with: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
