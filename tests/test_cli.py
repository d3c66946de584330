import warnings

import numpy as np
import pytest

from dqdtherm import cli
from dqdtherm.cli import main
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


def test_negative_seed_is_usage_error(capsys):
    assert main(["validate", "--samples", "5", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "spectrum" in capsys.readouterr().out


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
    """The CSV of a grid's evaluated columns, formatted row by row, one value at a time."""
    columns = sweep_columns(grid)
    names = ["epsilon" if h == "eps" else h for h in header]
    lines = [",".join(header)]
    for i in range(len(columns["T"])):
        lines.append(",".join(format_csv_value(columns[k][i]) for k in names))
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


def test_bad_grid_point_keeps_its_exit_code_and_message(tmp_path, capsys):
    # the eigenvalues of H overflow only at the last point, eps = 1.7e308
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(
        "[fixed]\nt = 7\nbz = 1.7e308\nbx = 1.7e308\nT = 1\n"
        "[axis1]\nname = epsilon\nmin = 0\nmax = 1.7e308\ncount = 3\n"
        "[output]\nmeasures = concurrence, fidelity_pure\n"
    )
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: inputs out of floating-point range: the eigenvalues of H overflow "
        "at {'t': 7.0, 'bz': 1.7e+308, 'bx': 1.7e+308, 'T': 1.0, 'epsilon': 1.7e+308}\n"
    )
    assert not out.exists()


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
