"""The benchmark's tracer wraps compactwave callables by name, and its
workloads call them; every layer it times and every attribute a workload
reads must still resolve, so that renaming one fails here and not only as a
missing layer or a failed run in a benchmark pass.  A traced pass of each
measured workload must also run and pass its checks, so that a change the
tracer's wrappers cannot take fails here and not only in a traced run."""

import ast
import importlib
import pathlib
import time
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


def _load(path: pathlib.Path) -> types.ModuleType:
    # compiled from the source text: nothing is written next to the file
    module = types.ModuleType(f"bench_{path.stem}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["uniform-study", "nd-small", "characteristic"])
def test_a_traced_smoke_pass_passes_its_checks(tmp_path, workload):
    # the in-process form of a traced pass (bench/worker.py): every span
    # wrapped, the exact solutions of the problem factories keyed per call
    workloads, tracer = _load(WORKLOADS), _load(TRACER).Tracer(full=True, clock=time.perf_counter)
    job = workloads.plan(workload, "smoke", 1, tmp_path / "inputs")
    tracer.install()
    try:
        outputs = workloads.execute(job)
    finally:
        tracer.uninstall()
    verdicts = workloads.check(job, outputs)
    assert [run for run, _, _ in verdicts] == job["runs"]
    assert [(run, why) for run, ok, why in verdicts if not ok] == []
    assert tracer.missing == []


def test_every_traced_layer_resolves():
    tracer = _load(TRACER)
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
