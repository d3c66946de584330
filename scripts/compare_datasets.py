"""Compare two directories written by scripts/make_datasets.py.

Prints, for each CSV file whose bytes differ, every changed line (the
header is line 1) with the largest deviation of a numeric field on it,
as an absolute value and as a share of the tolerance
1e-12 + 1e-10 * |old value|.  A changed field of a LISTED column (the
point where validation_report.csv found its largest residual) is printed
with its old and new text, and fails nothing by itself.  Exits 1 if a
deviation exceeds that tolerance, any other non-numeric field or the
header differs, a file is missing from either side or the line counts
differ; exits 0 otherwise.

    python3 scripts/compare_datasets.py OLD_DIR NEW_DIR
"""

import argparse
import math
import pathlib
import sys

ABS_TOL = 1e-12
REL_TOL = 1e-10
# text columns that only say where a number was found
LISTED = {"worst_point"}


def _number(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def compare_line(old: str, new: str, header=()):
    """(largest deviation, largest share of tolerance, listed changes) of one changed line.

    header names the line's columns; a changed field of a LISTED column is
    returned as (column, old text, new text) among the listed changes and
    scores nothing.  A line with any other field that cannot be paired as
    numbers gets an infinite share.
    """
    a, b = old.split(","), new.split(",")
    if len(a) != len(b):
        return math.inf, math.inf, []
    dev = share = 0.0
    listed = []
    names = header if len(header) == len(a) else [""] * len(a)
    for name, x, y in zip(names, a, b):
        if x == y:
            continue
        if name in LISTED:
            listed.append((name, x, y))
            continue
        u, v = _number(x), _number(y)
        if u is None or v is None or not (math.isfinite(u) and math.isfinite(v)):
            return math.inf, math.inf, listed
        d = abs(v - u)
        dev = max(dev, d)
        share = max(share, d / (ABS_TOL + REL_TOL * abs(u)))
    return dev, share, listed


def compare_file(old: pathlib.Path, new: pathlib.Path) -> bool:
    """Print the changed lines of one file; True if all are within tolerance."""
    a = old.read_text(encoding="utf-8").splitlines()
    b = new.read_text(encoding="utf-8").splitlines()
    if len(a) != len(b):
        print(f"{old.name}: {len(a)} lines against {len(b)}")
        return False
    # columns are named only under a header both sides share; a changed header fails
    header = a[0].split(",") if a and a[0] == b[0] else ()
    changed = [
        (n, *compare_line(x, y, header)) for n, (x, y) in enumerate(zip(a, b), start=1) if x != y
    ]
    if not changed:
        return True
    worst = max(share for _, _, share, _ in changed)
    print(f"{old.name}: {len(changed)} lines changed, worst {worst:.2g} of tolerance")
    for n, dev, share, listed in changed:
        print(f"  line {n}: deviation {dev:.2g} ({share:.2g} of tolerance)")
        for name, x, y in listed:
            print(f"    {name}: {x} -> {y}")
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
