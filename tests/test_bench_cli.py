import ast
import importlib.util
import os
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_cli.py"
_spec = importlib.util.spec_from_file_location("bench_cli", SCRIPT)
bench_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_cli)


def test_child_environment_imports_the_tree_and_caches_byte_code(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    env = bench_cli._env(pathlib.Path("tree", "src"))
    assert env["PYTHONPATH"] == str(pathlib.Path("tree", "src"))
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["OMP_NUM_THREADS"] == "1"
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"  # this interpreter's is kept


def test_child_environment_takes_extra_variables(monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    env = bench_cli._env(pathlib.Path("src"), PYTHONPYCACHEPREFIX="cache")
    assert (env["PYTHONPATH"], env["PYTHONPYCACHEPREFIX"]) == ("src", "cache")
    assert "PYTHONDONTWRITEBYTECODE" not in env


def test_every_child_interpreter_gets_its_environment_from_one_helper():
    runs = [
        node for node in ast.walk(ast.parse(SCRIPT.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "subprocess.run"
    ]
    assert len(runs) == 5
    for run in runs:
        env = [k.value for k in run.keywords if k.arg == "env"]
        assert len(env) == 1 and ast.unparse(env[0].func) == "_env", ast.unparse(run)
