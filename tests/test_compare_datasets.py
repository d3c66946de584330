import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_datasets.py"
_spec = importlib.util.spec_from_file_location("compare_datasets", SCRIPT)
compare_datasets = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_datasets)

OLD = "T,C,Ccc\n0.01,0.5,0.75\n0.02,0.25,0.125\n"


def _dirs(tmp_path, new_text, name="curve.csv"):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "curve.csv").write_text(OLD)
    (new / name).write_text(new_text)
    return str(old), str(new)


def test_identical_runs_pass_silently(tmp_path, capsys):
    assert compare_datasets.main(_dirs(tmp_path, OLD)) == 0
    assert capsys.readouterr().out == "within tolerance\n"


def test_last_digit_change_is_listed_and_passes(tmp_path, capsys):
    new = OLD.replace("0.125", "0.125000000001")
    assert compare_datasets.main(_dirs(tmp_path, new)) == 0
    out = capsys.readouterr().out
    assert "curve.csv: 1 lines changed" in out
    assert "line 3: deviation 1e-12" in out


@pytest.mark.parametrize(
    "new, name",
    [
        (OLD.replace("0.125", "0.1251"), "curve.csv"),  # beyond 1e-12 + 1e-10 |v|
        (OLD.replace("Ccc", "ccc"), "curve.csv"),  # non-numeric field differs
        (OLD + "0.03,0,0\n", "curve.csv"),  # line counts differ
        (OLD, "other.csv"),  # file missing on one side
    ],
)
def test_changes_outside_tolerance_fail(tmp_path, capsys, new, name):
    assert compare_datasets.main(_dirs(tmp_path, new, name)) == 1
    assert capsys.readouterr().out.endswith("outside tolerance\n")


REPORT = (
    "check,samples,flagged,max_residual,tolerance,hard,status,worst_point\n"
    "trace,20,0,6.66133814775e-16,1e-12,1,ok,eps=-28.5415;t=12.2559\n"
)


def _report_dirs(tmp_path, new_text):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "validation_report.csv").write_text(REPORT)
    (new / "validation_report.csv").write_text(new_text)
    return str(old), str(new)


def test_a_moved_worst_point_is_listed_and_passes(tmp_path, capsys):
    new = REPORT.replace("6.66133814775e-16,", "6.66133814776e-16,").replace(
        "eps=-28.5415;t=12.2559", "eps=3.5;t=1.25")
    assert compare_datasets.main(_report_dirs(tmp_path, new)) == 0
    out = capsys.readouterr().out
    assert "validation_report.csv: 1 lines changed" in out
    assert "    worst_point: eps=-28.5415;t=12.2559 -> eps=3.5;t=1.25\n" in out
    assert out.endswith("within tolerance\n")


@pytest.mark.parametrize(
    "new",
    [
        REPORT.replace(",ok,", ",fail,"),  # status
        REPORT.replace("trace,", "traces,"),  # check name
        REPORT.replace("worst_point", "worst"),  # header, on the listed column
        REPORT.replace(",ok,eps=-28.5415", ",fail,eps=3.5"),  # status beside a moved point
    ],
    ids=["status", "check", "header", "status-and-point"],
)
def test_other_changed_text_in_a_report_fails(tmp_path, capsys, new):
    assert compare_datasets.main(_report_dirs(tmp_path, new)) == 1
    assert capsys.readouterr().out.endswith("outside tolerance\n")
