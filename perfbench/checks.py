"""Correctness checks on the outputs of one pass.

Three kinds of check decide whether an operation counts as failed:

* with the default seed, every CSV value and API result is compared with
  the stored reference within a tolerance; byte-level row changes are
  counted separately and are not failures;
* with any other seed, the physics invariants hold: populations sum to 1,
  0 <= C <= 1, C <= Ccc, the spectrum is +- symmetric, validate's hard
  checks pass;
* with any seed, a seeded sample of rows is recomputed here from the
  Hamiltonian with `np.linalg.eigh` and the Wootters formula.
"""

from __future__ import annotations

import gzip
import json
import random

import numpy as np

from workloads import ANTICROSSING, PEAK_T_RANGE

# CSV values carry 12 significant digits, and the parameters the oracle
# reads back from a row are rounded the same way.
RTOL = 1e-9
ATOL = 1e-10
ORACLE_TOL = 1e-7
LOCATION_RTOL = 1e-5  # golden-section minimisers stop at 1e-6
SPOT_ROWS = 8

_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))

COLUMNS = {
    "spectrum": ("eps", "E1", "E2", "E3", "E4"),
    "populations": ("T", "rho11", "rho22", "rho33", "rho44"),
    "fidelity": ("T", "F"),
    "coherence": ("T", "C", "Ccc"),
    "concurrence-map": ("bx", "T", "C"),
}


class CheckFailed(Exception):
    """An output disagrees with the reference, an invariant or the oracle."""


# -- independent oracle ------------------------------------------------------

def hamiltonian(eps, t, bz, bx):
    e, z, x = 0.5 * eps, 0.5 * bz, 0.5 * bx
    return np.array([[e + z, x, t, 0.0], [x, e - z, 0.0, t],
                     [t, 0.0, -e + z, -x], [0.0, t, -x, -e - z]])


def gibbs(h, temp):
    w, v = np.linalg.eigh(h)
    p = np.exp(-(w - w[0]) / temp)
    return (v * (p / p.sum())) @ v.T


def wootters(rho):
    w, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    s = np.sort(np.abs(np.linalg.eigvalsh(sq @ _SPIN_FLIP @ sq)))[::-1]
    return max(0.0, 2.0 * s[0] - s.sum())


def _reductions(r):
    ra = np.array([[r[0, 0] + r[1, 1], r[0, 2] + r[1, 3]], [r[0, 2] + r[1, 3], r[2, 2] + r[3, 3]]])
    rb = np.array([[r[0, 0] + r[2, 2], r[0, 1] + r[2, 3]], [r[0, 1] + r[2, 3], r[1, 1] + r[3, 3]]])
    return ra, rb


def correlated_coherence(rho):
    ra, rb = _reductions(rho)
    u = np.kron(np.linalg.eigh(ra)[1], np.linalg.eigh(rb)[1])
    rot = u.T @ rho @ u
    return float(np.abs(rot).sum() - np.abs(np.diag(rot)).sum())


def oracle_row(kind, params, row):
    """The row's measured columns recomputed from its parameters."""
    p = {"eps": 0.0, **params, **dict(zip(COLUMNS[kind], row))}
    h = hamiltonian(p["eps"], p["t"], p["bz"], p["bx"])
    if kind == "spectrum":
        return np.linalg.eigvalsh(h), np.sort(row[1:])
    rho = gibbs(h, p["T"])
    if kind == "populations":
        return np.diag(rho), row[1:]
    if kind == "fidelity":
        g = np.linalg.eigh(h)[1][:, 0]
        return np.array([g @ rho @ g]), row[1:]
    if kind == "coherence":
        return np.array([wootters(rho), correlated_coherence(rho)]), row[1:]
    return np.array([wootters(rho)]), row[2:]


# -- per-kind checks ---------------------------------------------------------

def _close(got, want, rtol=RTOL, atol=ATOL):
    return np.all(np.abs(np.asarray(got) - np.asarray(want)) <= atol + rtol * np.abs(want))


def _parse_csv(kind, text):
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != COLUMNS[kind]:
        raise CheckFailed(f"header {lines[:1]} is not {COLUMNS[kind]}")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if data.ndim != 2 or data.shape[1] != len(COLUMNS[kind]) or not np.all(np.isfinite(data)):
        raise CheckFailed("rows are not finite numbers of the header's width")
    return data


def _invariants(kind, data, points):
    if len(data) != points:
        raise CheckFailed(f"{len(data)} rows, expected {points}")
    tol = 1e-9
    if kind == "spectrum":
        e = np.sort(data[:, 1:], axis=1)
        scale = np.maximum(1.0, np.abs(e).max(axis=1))
        if np.any(np.abs(e + e[:, ::-1]).max(axis=1) > tol * scale):
            raise CheckFailed("spectrum is not +- symmetric")
    elif kind == "populations":
        pops = data[:, 1:]
        if np.any(pops < -tol) or np.any(np.abs(pops.sum(axis=1) - 1.0) > tol):
            raise CheckFailed("populations are negative or do not sum to 1")
    else:
        # F and C lie in [0, 1]; correlated coherence only needs C <= Ccc
        values = data[:, 2 if kind == "concurrence-map" else 1]
        if np.any(values < -tol) or np.any(values > 1.0 + tol):
            raise CheckFailed("a measure left [0, 1]")
        if kind == "coherence" and np.any(data[:, 1] > data[:, 2] + tol):
            raise CheckFailed("concurrence exceeds correlated coherence")


def _spot_check(op, data, rng):
    for i in rng.sample(range(len(data)), min(SPOT_ROWS, len(data))):
        want, got = oracle_row(op.kind, op.params, data[i])
        if not _close(got, want, ORACLE_TOL, ORACLE_TOL):
            raise CheckFailed(f"row {i} is {list(got)}, eigh oracle gives {list(want)}")


def _check_validate(op, text, reference):
    rows = [ln.split(",") for ln in text.splitlines()]
    if not rows or rows[0][:3] != ["check", "samples", "flagged"]:
        raise CheckFailed("validation report has no header")
    samples = int(op.argv[op.argv.index("--samples") + 1])
    for r in rows[1:]:
        if int(r[1]) != samples or (r[5] == "1" and r[6] != "ok"):
            raise CheckFailed(f"validation row {r[:7]}")
    if reference is None:
        return
    ref = [ln.split(",") for ln in reference.splitlines()]
    if [r[0] for r in rows] != [r[0] for r in ref]:
        raise CheckFailed("validation checks differ from the reference")
    for got, want in zip(rows[1:], ref[1:]):
        tol = float(want[4])
        if got[1:3] != want[1:3] or got[4:7] != want[4:7]:
            raise CheckFailed(f"validation row {got[:7]}, reference {want[:7]}")
        if float(want[3]) > tol:
            if not _close(float(got[3]), float(want[3]), 1e-6, 0.0) or got[7] != want[7]:
                raise CheckFailed(f"validation residual {got[3]}, reference {want[3]}")
        elif float(got[3]) > tol:
            raise CheckFailed(f"validation residual {got[3]} above tolerance {tol}")


def rows_changed(text, reference):
    """CSV lines whose bytes differ from the reference."""
    got, want = text.splitlines(), reference.splitlines()
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


def check_cli(op, text, reference, rng):
    """Check one CLI output; return the rows whose bytes differ from the reference."""
    if op.kind == "validate":
        _check_validate(op, text, reference)
    else:
        data = _parse_csv(op.kind, text)
        _invariants(op.kind, data, op.points)
        _spot_check(op, data, rng)
        if reference is not None:
            want = _parse_csv(op.kind, reference)
            if want.shape != data.shape or not _close(data, want):
                raise CheckFailed("values differ from the reference beyond tolerance")
    return rows_changed(text, reference) if reference is not None else 0


def check_api(op, result, reference):
    """Check a find_anticrossing (eps, gap) or find_coherence_peak (T, Ccc) result."""
    x, value = result
    p = op.params
    if op.kind == "anticrossing":
        lo, hi = ANTICROSSING["eps_range"]
        if not lo < x < hi:
            raise CheckFailed(f"anticrossing at eps={x} outside ({lo}, {hi})")

        def objective(eps):
            w = np.linalg.eigvalsh(hamiltonian(eps, p["t"], p["bz"], p["bx"]))
            return w[2] - w[1]  # E3 - E4, the gap of the inner pair
        best = value
    else:
        lo, hi = PEAK_T_RANGE
        if not lo <= x <= hi:
            raise CheckFailed(f"coherence peak at T={x} outside [{lo}, {hi}]")

        def objective(temp):
            h = hamiltonian(p["eps"], p["t"], p["bz"], p["bx"])
            return -correlated_coherence(gibbs(h, temp))
        best = -value
    if not _close(objective(x), best, ORACLE_TOL, ORACLE_TOL):
        raise CheckFailed(f"extremum value {value} disagrees with the eigh oracle")
    step = 1e-3 * max(1.0, abs(x))
    if min(objective(x - step), objective(x + step)) < best - ORACLE_TOL:
        raise CheckFailed(f"{x} is not a local extremum")
    if reference is not None:
        if not (_close(x, reference[0], LOCATION_RTOL, 0.0) and _close(value, reference[1])):
            raise CheckFailed(f"result {result} differs from reference {reference}")


def load_reference(path, names=None):
    """The stored seed-0 outputs, only those of the operations in `names` if given."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        outputs = json.load(fh)
    return outputs if names is None else {n: outputs[n] for n in names}


def spot_rng(seed, pass_index, op_name):
    return random.Random(f"{seed}/{pass_index}/{op_name}")
