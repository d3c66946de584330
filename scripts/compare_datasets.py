"""Compare two directories written by scripts/make_datasets.py.

Prints, for each CSV file whose bytes differ, every changed line (the
header is line 1) with the largest deviation of a numeric field on it,
as an absolute value and as a share of the tolerance
1e-12 + 1e-10 * |old value|.  Exits 1 if a deviation exceeds that
tolerance, a non-numeric field differs, a file is missing from either
side or the line counts differ; exits 0 otherwise.

    python3 scripts/compare_datasets.py OLD_DIR NEW_DIR
"""

import argparse
import math
import pathlib
import sys

ABS_TOL = 1e-12
REL_TOL = 1e-10


def _number(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def compare_line(old: str, new: str):
    """(largest deviation, largest share of tolerance) of one changed line.

    A line whose fields cannot be paired as numbers gets an infinite share.
    """
    a, b = old.split(","), new.split(",")
    if len(a) != len(b):
        return math.inf, math.inf
    dev = share = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        u, v = _number(x), _number(y)
        if u is None or v is None or not (math.isfinite(u) and math.isfinite(v)):
            return math.inf, math.inf
        d = abs(v - u)
        dev = max(dev, d)
        share = max(share, d / (ABS_TOL + REL_TOL * abs(u)))
    return dev, share


def compare_file(old: pathlib.Path, new: pathlib.Path) -> bool:
    """Print the changed lines of one file; True if all are within tolerance."""
    a = old.read_text(encoding="utf-8").splitlines()
    b = new.read_text(encoding="utf-8").splitlines()
    if len(a) != len(b):
        print(f"{old.name}: {len(a)} lines against {len(b)}")
        return False
    changed = [
        (n, *compare_line(x, y)) for n, (x, y) in enumerate(zip(a, b), start=1) if x != y
    ]
    if not changed:
        return True
    worst = max(share for _, _, share in changed)
    print(f"{old.name}: {len(changed)} lines changed, worst {worst:.2g} of tolerance")
    for n, dev, share in changed:
        print(f"  line {n}: deviation {dev:.2g} ({share:.2g} of tolerance)")
    return worst <= 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=pathlib.Path, help="directory of the reference run")
    parser.add_argument("new", type=pathlib.Path, help="directory of the run to check")
    args = parser.parse_args(argv)
    old = {p.name for p in args.old.glob("*.csv")}
    new = {p.name for p in args.new.glob("*.csv")}
    ok = bool(old) and old == new
    for name in sorted(old ^ new):
        print(f"{name}: only in {args.old if name in old else args.new}")
    for name in sorted(old & new):
        ok = compare_file(args.old / name, args.new / name) and ok
    print("within tolerance" if ok else "outside tolerance")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
