import importlib
import pkgutil

import pytest

import dqdtherm

MODULES = sorted(m.name for m in pkgutil.iter_modules(dqdtherm.__path__))


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
