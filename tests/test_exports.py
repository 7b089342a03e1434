"""Every exported name resolves: the `__all__` list of each compactwave
module and the names the package re-exports from its modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import compactwave

MODULES = sorted(info.name for info in pkgutil.iter_modules(compactwave.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"compactwave.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(compactwave.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        source = importlib.import_module(f"compactwave.{node.module}") if node.module else None
        for alias in node.names:
            name = alias.asname or alias.name
            assert hasattr(compactwave, name), name
            if source is not None:
                assert getattr(compactwave, name) is getattr(source, alias.name), name
