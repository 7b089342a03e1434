"""The benchmark's tracer wraps compactwave callables by name; every layer it
times must still resolve, so that renaming one fails here and not only as a
missing layer in a traced benchmark pass."""

import pathlib
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
