"""Regenerate the figure datasets shipped with the model.

Every dataset is produced through the command-line interface so the CSVs
here are byte-identical to what a user gets from the same invocations.
Run from anywhere:

    python3 scripts/make_datasets.py --out-dir datasets
"""

import argparse
import pathlib
import sys

from dqdtherm.cli import main as cli
from dqdtherm.model import find_anticrossing
from dqdtherm.sweep import find_coherence_peak

SPECTRUM_GRIDS = [
    ("spectrum_t7_bz16_bx100.csv", ["--t", "7", "--bz", "16", "--bx", "100"]),
    ("spectrum_t7_bz16_bx0.csv", ["--t", "7", "--bz", "16", "--bx", "0"]),
    ("spectrum_t15p4_bz24_bx10.csv", ["--t", "15.4", "--bz", "24", "--bx", "10"]),
    ("spectrum_t15p4_bz24_bx0.csv", ["--t", "15.4", "--bz", "24", "--bx", "0"]),
]

TEMP_GRID = ["--t-min", "0.01", "--t-max", "1e4", "--n", "400", "--log"]
COLD_TEMP_GRID = ["--t-min", "0.01", "--t-max", "100", "--n", "400", "--log"]


ANTICROSSING = (7.0, 16.0, 100.0, ("E3", "E4"), (50.0, 150.0))
PEAKS = (("t=7, bz=16", 7.0, 16.0), ("t=15.4, bz=24", 15.4, 24.0))


def invocations() -> list:
    """(file name, CLI arguments without --out) of every dataset, in writing order."""
    runs = [
        (name, ["spectrum", *fields, "--eps-min", "-200", "--eps-max", "200", "--n", "801"])
        for name, fields in SPECTRUM_GRIDS
    ]
    base = ["--t", "7", "--bz", "16", "--bx", "100"]
    for eps in ("0.5", "2"):
        runs.append(
            (
                f"populations_eps{eps.replace('.', 'p')}.csv",
                ["populations", "--eps", eps, *base, *TEMP_GRID],
            )
        )
    runs.append(
        (
            "concurrence_map_t7_bz16.csv",
            [
                "concurrence-map", "--t", "7", "--bz", "16",
                "--bx-min", "1", "--bx-max", "100", "--bx-n", "100",
                "--eps", "1", "--t-min", "0.01", "--t-max", "100", "--t-n", "100", "--log",
            ],
        )
    )
    runs.append(
        (
            "concurrence_map_t15p4_bz24.csv",
            [
                "concurrence-map", "--t", "15.4", "--bz", "24",
                "--bx-min", "1", "--bx-max", "100", "--bx-n", "100",
                "--eps", "1", "--t-min", "0.01", "--t-max", "100", "--t-n", "100", "--log",
            ],
        )
    )
    runs.append(
        (
            "concurrence_window_t0p2.csv",
            [
                "concurrence-map", "--t", "7", "--bz", "16",
                "--bx-min", "20", "--bx-max", "40", "--bx-n", "21",
                "--temp", "0.2", "--eps-min", "3", "--eps-max", "7", "--eps-n", "21",
            ],
        )
    )
    for eps in ("0", "10"):
        runs.append((f"fidelity_eps{eps}.csv", ["fidelity", "--eps", eps, *base, *TEMP_GRID]))
    runs.append(("coherence_t7_bz16.csv", ["coherence", "--eps", "1", *base, *COLD_TEMP_GRID]))
    runs.append(
        (
            "coherence_t15p4_bz24.csv",
            [
                "coherence", "--eps", "1", "--t", "15.4", "--bz", "24", "--bx", "100",
                *COLD_TEMP_GRID,
            ],
        )
    )
    runs.append(("validation_report.csv", ["validate", "--samples", "200", "--seed", "42"]))
    return runs


def build_all(out_dir: pathlib.Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in invocations():
        path = out_dir / name
        rc = cli(argv + ["--out", str(path)])
        if rc != 0:
            raise SystemExit(f"generation failed for {name} (exit {rc})")
        print(f"wrote {path}")

    crossing = find_anticrossing(*ANTICROSSING)
    print(f"inner-pair anticrossing: eps = {crossing.eps:.6f}, gap = {crossing.gap:.6f}")
    for label, t, bz in PEAKS:
        peak, value = find_coherence_peak(1.0, t, bz, 100.0)
        print(f"correlated-coherence peak ({label}): T = {peak:.4f}, Ccc = {value:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=pathlib.Path("datasets"),
        help="directory for the generated CSV files (default: datasets/)",
    )
    args = parser.parse_args(argv)
    build_all(args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
