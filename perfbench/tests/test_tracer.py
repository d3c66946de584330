"""Tracer properties: repeatable call counts, self time bounded by wall time.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import io
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dqdtherm.cli  # noqa: E402
import dqdtherm.sweep  # noqa: E402
from tracer import Tracer  # noqa: E402

# a small sweep on the thread pool: two workers regardless of the machine
ARGV = ["coherence", "--eps", "1", "--t", "7", "--bz", "16", "--bx", "100",
        "--t-min", "0.01", "--t-max", "100", "--n", "24", "--log"]


def traced_pass(tracer, tmp_path, monkeypatch):
    monkeypatch.setenv("DQD_THREADS", "2")
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    t0 = time.perf_counter()
    with tracer:
        assert dqdtherm.cli.main([*ARGV, "--out", str(tmp_path / "c.csv")]) == 0
    return time.perf_counter() - t0, tracer.summary()


def test_call_counts_repeat_and_self_time_fits_wall(tmp_path, monkeypatch):
    tracer = Tracer()
    wall1, first = traced_pass(tracer, tmp_path, monkeypatch)
    wall2, second = traced_pass(tracer, tmp_path, monkeypatch)
    assert {k: v[0] for k, v in first.items()} == {k: v[0] for k, v in second.items()}
    # names imported by value (`from .qmatrix import eig_sym`) are traced too
    assert first["qmatrix.eig_sym"][0] > 0
    assert first["sweep.evaluate_point"][0] == 24
    assert first["cli.main"][0] == 1
    for wall, summary in ((wall1, first), (wall2, second)):
        assert sum(s for _, s in summary.values()) <= wall


def test_tracer_restores_the_package():
    original = dqdtherm.sweep.evaluate_point
    submit = dqdtherm.sweep.ThreadPoolExecutor.submit
    with Tracer():
        assert dqdtherm.sweep.evaluate_point is not original
    assert dqdtherm.sweep.evaluate_point is original
    assert dqdtherm.sweep.ThreadPoolExecutor.submit is submit


def test_missing_function_reports_zero_calls(tmp_path, monkeypatch):
    tracer = Tracer(("qmatrix.eig_sym", "qmatrix.removed_helper", "gone.main"))
    _, summary = traced_pass(tracer, tmp_path, monkeypatch)
    assert summary["qmatrix.removed_helper"] == (0, 0.0)
    assert summary["gone.main"] == (0, 0.0)
    assert summary["qmatrix.eig_sym"][0] > 0
