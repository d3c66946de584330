import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dqdtherm
from dqdtherm import cli, sweep, validate
from dqdtherm.cli import main
from dqdtherm.qmatrix import EigenDecomp, eig_sym
from dqdtherm.sweep import PARAM_NAMES, Axis, SweepGrid, sweep_columns

from csv_oracle import format_csv_value

SPECTRUM = [
    "spectrum", "--t", "7", "--bz", "16", "--bx", "100",
    "--eps-min", "-200", "--eps-max", "200", "--n", "41",
]

COHERENCE = [
    "coherence", "--eps", "1", "--t", "7", "--bz", "16", "--bx", "100",
    "--t-min", "0.1", "--t-max", "100", "--n", "25", "--log",
]


def run_to_file(tmp_path, argv, name="out.csv"):
    path = tmp_path / name
    rc = main(argv + ["--out", str(path)])
    return rc, path.read_bytes()


def test_spectrum_file_output(tmp_path):
    rc, data = run_to_file(tmp_path, SPECTRUM)
    assert rc == 0
    lines = data.decode().split("\n")
    assert lines[0] == "eps,E1,E2,E3,E4"
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 41
    for row in rows:
        assert float(row[2]) == -float(row[1])
        assert float(row[1]) >= float(row[3]) >= 0.0


def test_spectrum_reruns_byte_identical(tmp_path):
    _, first = run_to_file(tmp_path, SPECTRUM, "a.csv")
    _, second = run_to_file(tmp_path, SPECTRUM, "b.csv")
    assert first == second
    assert b"\r" not in first


def test_coherence_stdout(capsys):
    assert main(COHERENCE) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "T,C,Ccc"
    assert len(lines) == 26
    temps = [float(line.split(",")[0]) for line in lines[1:]]
    assert temps[0] == pytest.approx(0.1) and temps[-1] == pytest.approx(100.0)
    for line in lines[1:]:
        _, c, ccc = (float(x) for x in line.split(","))
        assert ccc >= c - 1e-10


def test_populations_header_and_normalization(capsys):
    rc = main(
        [
            "populations", "--eps", "0.5", "--t", "7", "--bz", "16", "--bx", "100",
            "--t-min", "0.01", "--t-max", "100", "--n", "10", "--log",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "T,rho11,rho22,rho33,rho44"
    for line in lines[1:]:
        vals = [float(x) for x in line.split(",")]
        assert sum(vals[1:]) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_monotone_down(capsys):
    rc = main(
        [
            "fidelity", "--eps", "10", "--t", "7", "--bz", "16", "--bx", "100",
            "--t-min", "0.1", "--t-max", "1e4", "--n", "30", "--log",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "T,F"
    f = [float(line.split(",")[1]) for line in lines[1:]]
    assert f[0] > 0.99
    assert all(b <= a + 1e-12 for a, b in zip(f, f[1:]))


def test_fidelity_to_a_degenerate_ground_state_is_refused(capsys):
    # eps = bz = 0 leaves the ground level doubly degenerate; it is not refused:
    # F is the level's Gibbs weight, the overlap of rho with any of its vectors,
    # which tends to 1/2 in the cold limit
    rc = main(
        [
            "fidelity", "--eps", "0", "--t", "7", "--bz", "0", "--bx", "100",
            "--t-min", "0.01", "--t-max", "1e4", "--n", "5", "--log",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    lines = captured.out.strip().split("\n")
    assert lines[:2] == ["T,F", "0.01,0.5"]
    assert len(lines) == 6


def test_map_temperature_mode(capsys):
    rc = main(
        [
            "concurrence-map", "--t", "7", "--bz", "16",
            "--bx-min", "20", "--bx-max", "40", "--bx-n", "3",
            "--eps", "1", "--t-min", "0.1", "--t-max", "10", "--t-n", "4", "--log",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "bx,T,C"
    assert len(lines) == 1 + 3 * 4


def test_map_detuning_mode(capsys):
    rc = main(
        [
            "concurrence-map", "--t", "7", "--bz", "16",
            "--bx-min", "20", "--bx-max", "40", "--bx-n", "21",
            "--temp", "0.2", "--eps-min", "3", "--eps-max", "7", "--eps-n", "21",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "bx,eps,C"
    best = max(float(line.split(",")[2]) for line in lines[1:])
    assert best == pytest.approx(0.68, abs=0.02)


def test_map_requires_exactly_one_mode(capsys):
    args = [
        "concurrence-map", "--t", "7", "--bz", "16",
        "--bx-min", "20", "--bx-max", "40", "--bx-n", "3",
    ]
    assert main(args) == 2  # neither
    assert main(args + ["--eps", "1", "--temp", "0.2"]) == 2  # both
    assert main(args + ["--eps", "1"]) == 2  # missing temperature grid
    capsys.readouterr()
    # a flag of the other mode is refused, not dropped
    temp = ["--temp", "0.2", "--eps-min", "3", "--eps-max", "7", "--eps-n", "2"]
    for extra, flag in ((["--log"], "--log"), (["--t-min", "5"], "--t-min"),
                        (["--t-n", "9"], "--t-n"), (["--t-max", "9"], "--t-max")):
        assert main(args + temp + extra) == 2
        assert capsys.readouterr() == ("", f"error: {flag} is not used with --temp\n")
    assert main(args + temp + ["--log", "--t-min", "5", "--t-n", "9"]) == 2
    assert capsys.readouterr().err == "error: --t-min is not used with --temp\n"
    eps = ["--eps", "1", "--t-min", "0.1", "--t-max", "1", "--t-n", "2"]
    for flag in ("--eps-min", "--eps-max", "--eps-n"):
        assert main(args + eps + [flag, "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} is not used with --eps\n")
    # a zero bound is a given flag, not a missing one
    assert main(args + ["--temp", "0.2", "--eps-min", "0", "--eps-max", "7", "--eps-n", "2"]) == 0


def test_validate_report(capsys):
    rc = main(["validate", "--samples", "40", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "check" and "flagged" in header and "status" in header
    assert len(lines) == 9  # eight checks
    hard = [line for line in lines[1:] if ",hard," in line or line.split(",")[5] == "True"]
    for line in hard:
        assert int(line.split(",")[2]) == 0


def test_validate_stops_at_a_gibbs_state_that_fails_the_density_check(monkeypatch, capsys):
    # the eigenvectors of sample 2 of 5 come back skewed by 1e-6, so its
    # Gibbs state fails the orthonormality check: the run stops before its report
    eps = []

    def skewed(m):
        eps.append(m[2, 0, 0] + m[2, 1, 1])  # H11 + H22 = eps
        dec = eig_sym(m)
        v = dec.vectors.copy()
        v[2, :, 1] += 1e-6 * v[2, :, 0]
        v[2, :, 1] /= np.linalg.norm(v[2, :, 1])
        return EigenDecomp(dec.values, v)

    monkeypatch.setattr(validate, "eig_sym", skewed)
    assert main(["validate", "--samples", "5", "--seed", "7"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant failure: density matrix has eigenvectors off orthonormal by")
    assert f" at eps={eps[0]:.6g};" in err


def test_sweep_config_and_out_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    out_in_config = tmp_path / "from_config.csv"
    cfg.write_text(
        "[fixed]\nt = 7\nbz = 16\nbx = 100\nT = 1.0\n"
        "[axis1]\nname = epsilon\nmin = -2\nmax = 2\ncount = 5\n"
        f"[output]\nmeasures = concurrence, l1\npath = {out_in_config}\n"
    )
    rc = main(["sweep", "--config", str(cfg)])
    assert rc == 0
    lines = out_in_config.read_text().strip().split("\n")
    assert lines[0] == "epsilon,t,bz,bx,T,C,l1"
    assert len(lines) == 6

    override = tmp_path / "override.csv"
    rc = main(["sweep", "--config", str(cfg), "--out", str(override)])
    assert rc == 0
    assert override.read_text() == out_in_config.read_text()


def test_exit_code_two_for_bad_usage(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["spectrum", "--t", "7"]) == 2  # missing required flags
    assert main(
        [
            "spectrum", "--t", "-3", "--bz", "16", "--bx", "100",
            "--eps-min", "-5", "--eps-max", "5", "--n", "3",
        ]
    ) == 2  # negative tunneling is a usage error, not an invariant failure
    assert main(["sweep", "--config", str(tmp_path / "missing.ini")]) == 2
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("[fixed]\nt = 7\n")
    assert main(["sweep", "--config", str(bad_cfg)]) == 2


def test_a_config_that_is_not_utf8_is_one_line_of_usage_error(tmp_path, capsys):
    cfg = tmp_path / "latin.ini"
    cfg.write_bytes(
        b"# \xff\xfe\n[fixed]\nt = 7\nbz = 16\nbx = 100\nT = 1\n"
        b"[axis1]\nname = epsilon\nmin = -2\nmax = 2\ncount = 5\n[output]\nmeasures = l1\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read config file {str(cfg)!r}: ")
    assert err.count("\n") == 1


def test_a_directory_as_config_is_usage_error(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read config file")
    assert err.count("\n") == 1


def test_negative_seed_is_usage_error(capsys):
    assert main(["validate", "--samples", "5", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "spectrum" in capsys.readouterr().out
    assert main(["spectrum", "--help"]) == 0
    assert "--bx" in capsys.readouterr().out


def test_unwritable_output_is_usage_error(tmp_path):
    target = tmp_path / "nope" / "out.csv"
    assert main(COHERENCE + ["--out", str(target)]) == 2


def test_overflowing_inputs_are_usage_error(capsys):
    # E1 is about 2e308 here, beyond the largest double; the CLI must refuse cleanly
    big = ["--t", "1.7e308", "--bz", "1.7e308", "--bx", "1.7e308"]
    argv = ["spectrum", *big, "--eps-min", "1.6e308", "--eps-max", "1.7e308", "--n", "3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "error: inputs out of floating-point range: the closed-form energies overflow at "
    )
    assert "Traceback" not in err


def spectrum_rows(capsys, scale):
    """The rows of a small spectrum whose parameters are (1, 7, 16, 100) times scale."""
    argv = [
        "spectrum", "--t", repr(7 * scale), "--bz", repr(16 * scale),
        "--bx", repr(100 * scale), f"--eps-min={-scale!r}", f"--eps-max={scale!r}", "--n", "3",
    ]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
def test_levels_are_printed_at_every_scale_where_they_are_doubles(capsys, scale):
    # the squares of these parameters leave the double range, the levels do not
    want = spectrum_rows(capsys, 1.0) * scale
    got = spectrum_rows(capsys, scale)
    assert np.all(np.abs(got[:, 1:]) > 0.0)
    assert np.allclose(got, want, rtol=1e-11, atol=0.0)


def test_squares_beyond_the_double_range_are_no_error(capsys):
    argv = [
        "spectrum", "--t", "1", "--bz", "1", "--bx", "1",
        "--eps-min", "1e199", "--eps-max", "1e200", "--n", "3",
    ]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
    # E1 and E3 are |eps| / 2 to far more digits than are printed
    assert np.array_equal(rows[:, 1:], rows[:, :1] / 2 * [1, -1, 1, -1])


def test_temperature_whose_inverse_overflows_is_usage_error(capsys):
    argv = [
        "populations", "--eps", "0.5", "--t", "7", "--bz", "16", "--bx", "100",
        "--t-min", "1e-320", "--t-max", "1", "--n", "3",
    ]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: inputs out of floating-point range: 1/T overflows")
    assert "'T': 1e-320}" in err


def test_a_hamiltonian_whose_eigensolve_overflows_is_usage_error(capsys):
    big = ["--eps", "1.7e308", "--t", "1.7e308", "--bz", "1.7e308", "--bx", "1.7e308"]
    argv = ["coherence", *big, "--t-min", "1", "--t-max", "2", "--n", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: inputs out of floating-point range: the eigenvalues of H overflow")
    assert "'T': 1.0}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["concurrence-map", "--t", "7", "--bz", "16", "--bx-min=-1e308", "--bx-max", "1e308",
          "--bx-n", "3", "--temp", "1", "--eps-min", "0", "--eps-max", "1", "--eps-n", "2"],
         "axis bx: values overflow a float on [-1e+308, 1e+308]"),
        (["spectrum", "--t", "7", "--bz", "16", "--bx", "100", "--eps-min=-1e308",
          "--eps-max", "1e308", "--n", "3"],
         "axis epsilon: values overflow a float on [-1e+308, 1e+308]"),
        (["populations", "--eps", "0.5", "--t", "7", "--bz", "16", "--bx", "100",
          "--t-min", "1", "--t-max", "1.7976931348623157e308", "--n", "3", "--log"],
         "axis T: values overflow a float on [1.0, 1.7976931348623157e+308]"),
    ],
    ids=["linear-map", "linear-spectrum", "log"],
)
def test_an_axis_whose_values_overflow_is_usage_error(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("count", [10**17, 10**20])
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_a_count_too_large_to_compute_with_is_usage_error(tmp_path, capsys, count, to_file):
    # no address space holds either axis, so each fails before allocating:
    # 10**17 doubles as a MemoryError, 10**20 beyond numpy's largest array
    argv = ["spectrum", "--t", "7", "--bz", "16", "--bx", "100", "--eps-min", "-1",
            "--eps-max", "1", "--n", str(count)]
    assert main(argv + (["--out", str(tmp_path / "out.csv")] if to_file else [])) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_negative_numbers_in_scientific_notation_are_values(tmp_path):
    rc, plain = run_to_file(tmp_path, SPECTRUM, "plain.csv")
    assert rc == 0
    sci = ["-2e2" if a == "-200" else a for a in SPECTRUM]
    assert run_to_file(tmp_path, sci, "sci.csv") == (0, plain)
    rc, data = run_to_file(
        tmp_path, SPECTRUM[:7] + ["--eps-min", "-1.5E-3", "--eps-max", "1", "--n", "2"]
    )
    assert (rc, data.splitlines()[1][:8]) == (0, b"-0.0015,")
    # every subparser reads them alike
    bx = ["concurrence-map", "--t", "7", "--bz", "16", "--bx-min", "-10", "--bx-max", "10",
          "--bx-n", "3", "--temp", "1", "--eps-min", "-1", "--eps-max", "1", "--eps-n", "2"]
    rc, plain = run_to_file(tmp_path, bx, "map.csv")
    assert rc == 0
    sci = [{"-10": "-1e1", "-1": "-1.0E+0"}.get(a, a) for a in bx]
    assert run_to_file(tmp_path, sci, "map_sci.csv") == (0, plain)


def per_value_csv(grid, header):
    """The CSV of a grid's evaluated blocks, formatted row by row, one value at a time."""
    names = ["epsilon" if h == "eps" else h for h in header]
    lines = [",".join(header)]
    for block in sweep_columns(grid):
        for i in range(len(block["T"])):
            lines.append(",".join(format_csv_value(block[k][i]) for k in names))
    return "".join(line + "\n" for line in lines)


MODEL = {"t": 7.0, "bz": 16.0, "bx": 100.0}
TEMPS = Axis("T", 0.01, 1e4, 9, "log")
ORACLE_CASES = {
    "spectrum": (
        # the detuning axis ends at -0, which prints as 0
        ["spectrum", "--t", "7", "--bz", "16", "--bx", "0",
         "--eps-min", "-200", "--eps-max", "-0", "--n", "9"],
        SweepGrid(dict(MODEL, bx=0.0, T=1.0), Axis("epsilon", -200.0, -0.0, 9), None,
                  ("energies",)),
        ("eps", "E1", "E2", "E3", "E4"),
    ),
    "populations": (
        ["populations", "--eps", "0.5", "--t", "7", "--bz", "16", "--bx", "100",
         "--t-min", "0.01", "--t-max", "1e4", "--n", "9", "--log"],
        SweepGrid(dict(MODEL, epsilon=0.5), TEMPS, None, ("populations",)),
        ("T", "rho11", "rho22", "rho33", "rho44"),
    ),
    "fidelity": (
        ["fidelity", "--eps", "10", "--t", "7", "--bz", "16", "--bx", "100",
         "--t-min", "0.01", "--t-max", "1e4", "--n", "9", "--log"],
        SweepGrid(dict(MODEL, epsilon=10.0), TEMPS, None, ("fidelity_pure",)),
        ("T", "F"),
    ),
    "coherence": (
        ["coherence", "--eps", "1", "--t", "7", "--bz", "16", "--bx", "100",
         "--t-min", "0.01", "--t-max", "100", "--n", "7"],
        SweepGrid(dict(MODEL, epsilon=1.0), Axis("T", 0.01, 100.0, 7), None,
                  ("concurrence", "correlated_coherence")),
        ("T", "C", "Ccc"),
    ),
    "map-eps": (
        ["concurrence-map", "--t", "7", "--bz", "16", "--bx-min", "0", "--bx-max", "100",
         "--bx-n", "4", "--eps", "1", "--t-min", "0.01", "--t-max", "100", "--t-n", "5",
         "--log"],
        SweepGrid({"t": 7.0, "bz": 16.0, "epsilon": 1.0}, Axis("bx", 0.0, 100.0, 4),
                  Axis("T", 0.01, 100.0, 5, "log"), ("concurrence",)),
        ("bx", "T", "C"),
    ),
    "map-temp": (
        ["concurrence-map", "--t", "7", "--bz", "16", "--bx-min", "20", "--bx-max", "40",
         "--bx-n", "3", "--temp", "0.2", "--eps-min", "-3", "--eps-max", "3", "--eps-n", "5"],
        SweepGrid({"t": 7.0, "bz": 16.0, "T": 0.2}, Axis("bx", 20.0, 40.0, 3),
                  Axis("epsilon", -3.0, 3.0, 5), ("concurrence",)),
        ("bx", "eps", "C"),
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_cli_csv_equals_per_value_formatting(tmp_path, case):
    argv, grid, header = ORACLE_CASES[case]
    rc, data = run_to_file(tmp_path, argv)
    assert rc == 0
    assert data.decode() == per_value_csv(grid, header)


SWEEP_CONFIG = (
    "[fixed]\nepsilon = 0\nt = 7\nbz = 16\n"
    "[axis1]\nname = bx\nmin = -50\nmax = 50\ncount = 5\n"
    "[axis2]\nname = T\nmin = 0.01\nmax = 100\ncount = 3\nscale = log\n"
    "[output]\nmeasures = energies, populations, concurrence, fidelity_pure, l1, "
    "correlated_coherence\n"
)


def test_sweep_config_csv_equals_per_value_formatting(tmp_path):
    cfg = tmp_path / "all.ini"
    cfg.write_text(SWEEP_CONFIG)
    rc, data = run_to_file(tmp_path, ["sweep", "--config", str(cfg)])
    assert rc == 0
    grid = SweepGrid(
        {"epsilon": 0.0, "t": 7.0, "bz": 16.0},
        Axis("bx", -50.0, 50.0, 5),
        Axis("T", 0.01, 100.0, 3, "log"),
        ("energies", "populations", "concurrence", "fidelity_pure", "l1",
         "correlated_coherence"),
    )
    assert data.decode() == per_value_csv(grid, PARAM_NAMES + grid.columns())


# the eigenvalues of H overflow only at the last point, eps = 1.7e308
OVERFLOW_CONFIG = (
    "[fixed]\nt = 7\nbz = 1.7e308\nbx = 1.7e308\nT = 1\n"
    "[axis1]\nname = epsilon\nmin = 0\nmax = 1.7e308\ncount = 3\n"
    "[output]\nmeasures = concurrence, fidelity_pure\n"
)
OVERFLOW_ERROR = (
    "error: inputs out of floating-point range: the eigenvalues of H overflow "
    "at {'t': 7.0, 'bz': 1.7e+308, 'bx': 1.7e+308, 'T': 1.0, 'epsilon': 1.7e+308}\n"
)


def test_bad_grid_point_keeps_its_exit_code_and_message(tmp_path, capsys):
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(OVERFLOW_CONFIG)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == OVERFLOW_ERROR
    assert not out.exists()
    assert list(tmp_path.iterdir()) == [cfg]  # no temporary file left either


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_a_sweep_failing_after_written_blocks_writes_nothing(tmp_path, capsys, monkeypatch,
                                                              to_file):
    # one point per block: two blocks are written before the third fails
    monkeypatch.setattr(sweep, "_BLOCK", 1)
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(OVERFLOW_CONFIG)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg)] + (["--out", str(out)] if to_file else [])) == 2
    assert capsys.readouterr() == ("", OVERFLOW_ERROR)
    assert list(tmp_path.iterdir()) == [cfg]


def test_a_failing_run_leaves_an_existing_output_untouched(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweep, "_BLOCK", 1)
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(OVERFLOW_CONFIG)
    out = tmp_path / "out.csv"
    out.write_bytes(b"old bytes\n")
    before = os.stat(out)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert out.read_bytes() == b"old bytes\n"
    assert os.stat(out).st_ino == before.st_ino
    assert sorted(tmp_path.iterdir()) == [out, cfg]

    def failing_validation(samples, seed):
        raise cli.ValidationError("a failing check")

    monkeypatch.setattr(cli, "run_validation", failing_validation)
    assert main(["validate", "--out", str(out)]) == 1
    assert out.read_bytes() == b"old bytes\n"
    assert os.stat(out).st_ino == before.st_ino
    assert sorted(tmp_path.iterdir()) == [out, cfg]


def test_a_completed_run_replaces_the_output_and_any_symlink_there(tmp_path):
    rc, expected = run_to_file(tmp_path, SPECTRUM, "expected.csv")
    assert rc == 0
    out, other = tmp_path / "out.csv", tmp_path / "other.csv"
    out.write_bytes(b"old bytes\n")
    inode = os.stat(out).st_ino
    old_umask = os.umask(0o027)
    try:
        assert main(SPECTRUM + ["--out", str(out)]) == 0
    finally:
        os.umask(old_umask)
    assert out.read_bytes() == expected
    assert os.stat(out).st_ino != inode  # a new file, renamed onto the old one
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
    # a symlink at the target is replaced by the output, its target kept
    other.write_bytes(b"other bytes\n")
    out.unlink()
    out.symlink_to(other)
    assert main(SPECTRUM + ["--out", str(out)]) == 0
    assert not out.is_symlink() and out.read_bytes() == expected
    assert other.read_bytes() == b"other bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.csv", "other.csv", "out.csv"]


def test_a_fifo_target_is_written_through_not_replaced(tmp_path):
    rc, expected = run_to_file(tmp_path, SPECTRUM, "expected.csv")
    assert rc == 0
    fifo = tmp_path / "out.csv"
    os.mkfifo(fifo)
    # a reader open first, so the CLI's open of the FIFO does not wait; the
    # output fits in the pipe's buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(SPECTRUM + ["--out", str(fifo)]) == 0
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert data == expected
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    out = tmp_path / "out.csv"
    calls = (["spectrum", "--t", "7"], ["--help"], SPECTRUM + ["--out", str(out)])

    def call(argv):
        rc = main(argv)
        data = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return rc, capsys.readouterr(), data

    cli._build_parser.cache_clear()
    shared = [call(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert [rc for rc, _, _ in shared] == [2, 0, 0]
    assert shared[2][2] is not None
    for argv, result in zip(calls, shared):
        cli._build_parser.cache_clear()  # the same call, first in a fresh parser
        assert call(argv) == result


# a fresh interpreter: numpy, then the CLI on argv[2:]; prints which modules
# of argv[1], a comma-separated list, the CLI imported
FRESH = """import sys
import numpy
before = set(sys.modules)
from dqdtherm.cli import main
code = main(sys.argv[2:])
print(sorted(set(sys.argv[1].split(",")) & (set(sys.modules) - before)))
sys.exit(code)
"""
NOT_AT_START = "dataclasses,configparser,logging"


def fresh_cli(argv, cwd):
    """Run argv through the CLI in a new interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(dqdtherm.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", FRESH, NOT_AT_START, *argv],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=60)


def test_a_sweep_process_imports_no_dataclasses_configparser_or_logging(tmp_path):
    out = tmp_path / "map.csv"
    argv = ["concurrence-map", "--t", "7", "--bz", "16", "--bx-min", "1", "--bx-max", "100",
            "--bx-n", "2", "--eps", "1", "--t-min", "0.01", "--t-max", "100", "--t-n", "2",
            "--log", "--out", str(out)]
    done = fresh_cli(argv, tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
    assert out.read_bytes() == run_to_file(tmp_path, argv[:-2], "in_process.csv")[1]


def test_a_fresh_sweep_reads_its_config(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[fixed]\nt = 7\nbz = 16\nbx = 100\n"
        "[axis1]\nname = epsilon\nmin = -2\nmax = 2\ncount = 3\n"
        "[axis2]\nname = T\nmin = 0.5\nmax = 2\ncount = 2\n"
        "[output]\nmeasures = concurrence, correlated_coherence\npath = fresh.csv\n"
    )
    done = fresh_cli(["sweep", "--config", str(cfg)], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "['configparser']\n", "")
    rc, want = run_to_file(tmp_path, ["sweep", "--config", str(cfg)])
    assert rc == 0 and (tmp_path / "fresh.csv").read_bytes() == want


def test_a_fresh_validate_logs_one_warning_line_per_flagged_check(tmp_path):
    done = fresh_cli(["validate", "--samples", "200", "--seed", "42", "--out", "report.csv"],
                     tmp_path)
    assert (done.returncode, done.stdout) == (0, "['logging']\n")
    assert done.stderr == (
        "WARNING dqdtherm.validate: concurrence_closed_form: flagged 152/200, max residual "
        "8.169e-01 (tol 1e-08) at eps=1.27321;t=12.9892;bz=-37.1326;bx=91.9549;T=0.109392\n"
    )
