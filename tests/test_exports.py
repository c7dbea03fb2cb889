import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cnmfg

MODULES = sorted(f"cnmfg.{m.name}" for m in pkgutil.iter_modules(cnmfg.__path__))


def test_every_module_is_covered():
    assert {"cnmfg.flows", "cnmfg.equilibrium", "cnmfg.sde", "cnmfg.bsde"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(cnmfg.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert name in importlib.import_module(f"cnmfg.{module}").__all__, (module, name)
        assert getattr(cnmfg, name) is getattr(importlib.import_module(f"cnmfg.{module}"), name)
