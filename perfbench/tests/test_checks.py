"""The output checks accept the stored reference and reject altered outputs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import pathlib
import random
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

REFERENCE = checks.load_reference(HERE / "reference" / "seed0.json.gz")
OPS = {op.name: op for w in workloads.WHY for op in workloads.build(w, workloads.DEFAULT_SEED)}


def test_reference_covers_every_operation():
    assert set(REFERENCE) == set(OPS)


@pytest.mark.parametrize("name", sorted(n for n, op in OPS.items() if op.argv))
def test_reference_passes_and_matches_itself(name):
    text = REFERENCE[name]
    assert checks.check_cli(OPS[name], text, text, random.Random(name)) == 0


@pytest.mark.parametrize("name", ["coherence_t7_bz16", "fidelity_eps10", "spectrum_t7_bz16_bx100"])
def test_every_row_agrees_with_the_eigh_oracle(name):
    op = OPS[name]
    data = checks._parse_csv(op.kind, REFERENCE[name])
    for row in data:
        want, got = checks.oracle_row(op.kind, op.params, row)
        assert np.allclose(got, want, rtol=checks.ORACLE_TOL, atol=checks.ORACLE_TOL)


def _edit_row(text, row, col, new):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = new(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_last_digit_change_is_counted_not_failed():
    op, ref = OPS["coherence_t7_bz16"], REFERENCE["coherence_t7_bz16"]
    text = _edit_row(ref, 200, 2, lambda c: c[:-1] + str((int(c[-1]) + 1) % 10))
    assert checks.check_cli(op, text, ref, random.Random(0)) == 1


def test_wrong_value_fails():
    op, ref = OPS["coherence_t7_bz16"], REFERENCE["coherence_t7_bz16"]
    text = _edit_row(ref, 200, 2, lambda c: repr(float(c) * (1 + 1e-6)))
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(op, text, ref, random.Random(0))


def test_broken_invariant_fails_without_reference():
    op, ref = OPS["populations_eps2"], REFERENCE["populations_eps2"]
    text = _edit_row(ref, 10, 1, lambda c: repr(float(c) + 1e-3))
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(op, text, None, random.Random(0))


def test_api_results():
    for name in ("anticrossing_E3_E4", "coherence_peak_t7", "coherence_peak_t15p4"):
        op, (x, value) = OPS[name], REFERENCE[name]
        checks.check_api(op, (x, value), REFERENCE[name])
        checks.check_api(op, (x, value), None)
        with pytest.raises(checks.CheckFailed):
            checks.check_api(op, (x * 1.01, value), None)


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_setup_call_is_the_first_operation_at_its_smallest_size(workload):
    first = workloads.build(workload, workloads.DEFAULT_SEED)[0].argv
    argv = workloads.setup_argv(workload, workloads.DEFAULT_SEED)
    assert len(argv) == len(first) and argv[0] == first[0]
    counts = [argv[i + 1] for i, flag in enumerate(argv) if flag in workloads.SETUP_COUNTS]
    assert counts and set(counts) <= {"1", "2"}
