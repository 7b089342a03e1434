"""Every exported name resolves and has a caller: the `__all__` list of
each compactwave module and the names the package re-exports from its
modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import compactwave

MODULES = sorted(info.name for info in pkgutil.iter_modules(compactwave.__path__))
ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "compactwave" / "__init__.py"


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


def _used_names() -> set[str]:
    """Names read, attributes taken and names imported anywhere in the
    library, the demos and the benchmark; a name's own definition (an
    assignment, a def or a class) and the package re-exports are no use."""
    used = set()
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == PACKAGE_INIT:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
    return used


def test_every_exported_name_has_a_caller():
    # an export only the tests call belongs in the tests (tests/oracles.py)
    used = _used_names()
    unused = [
        f"{name}.{export}"
        for name in MODULES
        for export in getattr(importlib.import_module(f"compactwave.{name}"), "__all__", [])
        if export not in used
    ]
    assert unused == []
