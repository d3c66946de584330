"""The end-to-end metrics and the frozen copy they are measured against.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE)]

import checks  # noqa: E402
import dqdtherm_frozen.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE = checks.load_reference(HERE / "reference" / "seed0.json.gz")


def test_ratios_are_ratios_of_summed_times():
    res = {"untraced": [{"wall_s": [1.0, 3.0]}, {"wall_s": [2.0, 2.0]}],
           "frozen": [{"wall_s": [2.0, 4.0]}, {"wall_s": [4.0, 6.0]}]}
    assert run.relative(res, "wall_s") == pytest.approx(8.0 / 16.0)


def test_end_to_end_metrics_are_those_of_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    res = {"untraced": [{"wall_s": [1.0], "cpu_s": [1.0]}],
           "frozen": [{"wall_s": [1.0], "cpu_s": [1.0]}], "peak_rss_mb": 40.0}
    got = run.end_to_end(res, [0.2, 0.1])
    assert {name: m["unit"] for name, m in got.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("name", ["spectrum_t7_bz16_bx0", "concurrence_map_t7_bz16_25x25"])
def test_frozen_copy_reproduces_the_reference(name, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    op = {o.name: o for w in workloads.WHY for o in workloads.build(w, 0)}[name]
    out = tmp_path / "out.csv"
    assert dqdtherm_frozen.cli.main([*op.argv, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == REFERENCE[name]
