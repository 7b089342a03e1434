"""The benchmark's tracer wraps compactwave callables by name, and its
workloads call them; every layer it times and every attribute a workload
reads must still resolve, so that renaming one fails here and not only as a
missing layer or a failed run in a benchmark pass."""

import ast
import importlib
import pathlib
import types

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


def _load_tracer() -> types.ModuleType:
    # compiled from the source text: nothing is written next to the file
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_layer_resolves():
    tracer = _load_tracer()
    targets = [(module, path) for module, path, _, _ in tracer.TRACE_TARGETS]
    targets += [("compactwave.problems", name) for name in tracer.PROBLEM_FACTORIES]
    missing = [f"{module}.{path}" for module, path in targets if tracer._resolve(module, path)[2] is None]
    assert len(targets) > len(tracer.PROBLEM_FACTORIES)
    assert missing == []


def test_every_attribute_the_workloads_read_resolves():
    # the pass bodies import compactwave's modules inside functions; the
    # source is parsed, not run, as the tracer's is compiled
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    modules = {
        alias.asname or alias.name: f"compactwave.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "compactwave"
        for alias in node.names
    }
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    missing = [
        f"{modules[name]}.{attr}"
        for name, attr in sorted(reads)
        if not hasattr(importlib.import_module(modules[name]), attr)
    ]
    assert {name for name, _ in reads} == set(modules)
    assert missing == []
