import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dqdtherm
from dqdtherm import correlations, model, validate

MODULES = sorted(m.name for m in pkgutil.iter_modules(dqdtherm.__path__))
SOURCES = sorted(Path(dqdtherm.__file__).parent.glob("*.py"))


def test_every_module_is_listed():
    assert MODULES == ["cli", "correlations", "model", "qmatrix", "sweep", "thermal", "validate"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_of_every_module_resolves(name):
    module = importlib.import_module(f"dqdtherm.{name}")
    namespace = {}
    exec(f"from dqdtherm.{name} import *", namespace)  # raises for a stale __all__ entry
    assert set(module.__all__) <= set(namespace)
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_package_export_resolves():
    assert len(set(dqdtherm.__all__)) == len(dqdtherm.__all__)
    for name in dqdtherm.__all__:
        assert getattr(dqdtherm, name) is not None
    namespace = {}
    exec("from dqdtherm import *", namespace)
    assert set(dqdtherm.__all__) <= set(namespace)


def test_package_exports_the_union_of_its_library_modules_exports():
    library = [importlib.import_module(f"dqdtherm.{m}") for m in MODULES if m != "cli"]
    names = [name for module in library for name in module.__all__]
    assert len(set(names)) == len(names)  # no name is public in two modules
    assert sorted(dqdtherm.__all__) == sorted(names)


# the paper's printed closed forms: their former public wrappers and records,
# and the private kernels that validate keeps as oracles
PRINTED_FORMS = ["RSpectrum", "LocalBasisAngles", "AnalyticCoeffs", "AnalyticUnavailable",
                 "concurrence_closed_form", "local_angles", "analytic_coeffs"]
PRINTED_HELPERS = ["_closed_form", "_local_angles", "_diagonalizing_angles", "_denominators",
                   "_coeffs_singular", "_coeffs"]


def test_the_printed_closed_forms_are_private_oracles_in_validate():
    assert validate.__all__ == ["CheckResult", "run_validation"]
    assert len(dqdtherm.__all__) == 33
    for module in [dqdtherm] + [importlib.import_module(f"dqdtherm.{m}") for m in MODULES]:
        assert not set(PRINTED_FORMS) & set(vars(module)), module.__name__
    for module in (correlations, model):
        assert not set(PRINTED_HELPERS) & set(vars(module)), module.__name__


def _unused_imports(path: Path) -> list[str]:
    """Names that the module at path imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []
