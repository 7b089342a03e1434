"""Spans around the public callables of compactwave, recorded from outside.

`Tracer.install` replaces each target attribute (a module function or a
class method) with a wrapper that records one span per call: name, start,
end, parent span and run id.  Spans live in flat arrays in memory and are
written out by `save` after the pass.  A target that the program no longer
has is listed in `missing` instead of raising, so a refactor that renames a
layer shows up as a missing layer, not as a crashed benchmark.

The untraced pass installs only `SETUP_TARGETS` (a handful of calls per
run): scheme construction, which `setup_s` counts, and the explicit
characteristic runner, whose levels `updates_per_s` counts.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from array import array

# (module, attribute path, span name, starts a new run)
SETUP_TARGETS = (
    ("compactwave.schemes", "Scheme.__init__", "schemes.assemble", True),
    ("compactwave.schemes", "run_explicit_characteristic", "schemes.characteristic", True),
)

TRACE_TARGETS = SETUP_TARGETS + (
    ("compactwave.schemes", "Scheme.run", "schemes.run", False),
    ("compactwave.schemes", "Scheme.initial_level", "schemes.initial_level", False),
    ("compactwave.schemes", "Scheme.first_step", "schemes.first_step", False),
    ("compactwave.schemes", "Scheme.time_step", "schemes.time_step", False),
    ("compactwave.schemes", "Scheme.apply_a_interior", "schemes.apply_a", False),
    ("compactwave.schemes", "Scheme.apply_step_operator_interior", "schemes.apply_step", False),
    ("compactwave.schemes", "Scheme.boundary_values", "schemes.boundary_values", False),
    ("compactwave.schemes", "Scheme.solve_step", "schemes.solve_step", False),
    ("compactwave.operators", "RhsTable.__call__", "operators.rhs_level", False),
    ("compactwave.solvers", "TriSolver.solve", "solvers.TriSolver.solve", False),
    ("compactwave.solvers", "SpectralHandle.solve", "solvers.SpectralHandle.solve", False),
    ("compactwave.solvers", "SplittingHandle.solve", "solvers.SplittingHandle.solve", False),
    ("compactwave.analysis", "ErrorObserver.observe", "analysis.observe", False),
    # __call__ is an alias of the unwrapped observe, so the two never nest
    ("compactwave.analysis", "ErrorObserver.__call__", "analysis.observe", False),
    ("compactwave.stability", "check_cfl", "stability.check_cfl", False),
    ("compactwave.stability", "verify_energy_bound", "stability.verify_energy_bound", False),
)

# factories whose returned specs get timed exact / f_fn callables
PROBLEM_FACTORIES = ("make_example", "make_smooth_nonuniform_problem", "make_sine_mode_problem")

STEP_SPANS = ("schemes.first_step", "schemes.time_step")
SOLVER_SPANS = (
    "solvers.TriSolver.solve",
    "solvers.SpectralHandle.solve",
    "solvers.SplittingHandle.solve",
)


class Tracer:
    """Span recorder; `full=False` keeps only the set-up targets.  Spans are
    timed with `clock`."""

    def __init__(self, full: bool, clock):
        self.full = full
        self.clock = clock
        self.targets = TRACE_TARGETS if full else SETUP_TARGETS
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.run_id = 0
        # run id -> [interior unknowns, planned levels]
        self.run_work: dict[int, list[int]] = {}
        self.explicit_runs: set[int] = set()
        self.exact_keys: set = set()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, path, span, starts_run in self.targets:
            owner, attr, original = _resolve(module_name, path)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            after = _AFTER.get(span)
            wrapped = self._wrap(original, span, starts_run, after)
            self._patch(owner, attr, original, wrapped)
        if self.full:
            problems = importlib.import_module("compactwave.problems")
            for name in PROBLEM_FACTORIES:
                factory = getattr(problems, name, None)
                if factory is None:
                    self.missing.append(f"compactwave.problems.{name}")
                    continue
                self._patch(problems, name, factory, self._wrap_factory(factory))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span: str, starts_run: bool, after=None):
        nid = self._name_id(span)
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = self.clock
        tracer = self

        def timed(*args, **kwargs):
            if starts_run:
                tracer.run_id += 1
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                try:
                    after(tracer, args, result)
                except (AttributeError, TypeError, ValueError):
                    # the program changed shape under the hook: report, go on
                    if f"{span} run size" not in tracer.missing:
                        tracer.missing.append(f"{span} run size")
            return result

        timed.__name__ = getattr(fn, "__name__", span)
        timed.__doc__ = getattr(fn, "__doc__", None)
        return timed

    def _wrap_factory(self, factory):
        tracer = self

        def make(*args, **kwargs):
            spec = factory(*args, **kwargs)
            changes = {}
            if spec.exact is not None:
                changes["exact"] = tracer._wrap(
                    _keyed(spec.exact, spec.name, tracer.exact_keys), "problems.exact", False
                )
            if spec.f_fn is not None:
                changes["f_fn"] = tracer._wrap(spec.f_fn, "problems.f_fn", False)
            return dataclasses.replace(spec, **changes) if changes else spec

        make.__name__ = factory.__name__
        make.__doc__ = factory.__doc__
        return make

    # -- results ------------------------------------------------------------

    def durations(self, span: str) -> list[float]:
        nid = self._ids.get(span)
        if nid is None:
            return []
        return [
            e - s
            for n, s, e in zip(self.span_name, self.span_start, self.span_end)
            if n == nid
        ]

    def work(self) -> tuple[int, int]:
        """(levels, node updates) planned by every run that was set up."""
        levels = sum(lv for _, lv in self.run_work.values())
        updates = sum(n * lv for n, lv in self.run_work.values())
        return levels, updates

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            run=np.frombuffer(self.span_run, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer busy and self times, counts and ratios of the pass.

        A span's self time is its duration minus the durations of its direct
        child spans; `cli.self_s` is the pass wall outside every top-level
        span.  `trace.unattributed_ratio` compares the pass wall with
        cli.self_s plus the self time of every span: it is zero when every
        span nests inside its parent, and grows when spans are lost,
        overlap or leak out of their callers.
        """
        import numpy as np

        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        run = np.frombuffer(self.span_run, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        n = dur.size
        nested = parent >= 0
        child_sum = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_t = dur - child_sum

        def mask(*spans: str) -> np.ndarray:
            ids = [self._ids[s] for s in spans if s in self._ids]
            return np.isin(name, ids)

        def calls(span: str) -> float:
            return float(np.count_nonzero(mask(span)))

        def busy(span: str) -> float:
            return float(dur[mask(span)].sum())

        def self_time(span: str) -> float:
            return float(self_t[mask(span)].sum())

        # solve_step minus its solver and boundary-trace children: the lift
        lifted = mask(*SOLVER_SPANS, "schemes.boundary_values") & nested
        lift_children = np.bincount(parent[lifted], weights=dur[lifted], minlength=n)
        solve_step = mask("schemes.solve_step")
        lift = float((dur[solve_step] - lift_children[solve_step]).sum())

        top = float(dur[~nested].sum())
        cli_self = wall - top
        steps = mask(*STEP_SPANS)
        step_runs = np.bincount(run[steps], minlength=max(self.run_work, default=0) + 1)
        levels = int(steps.sum())
        updates = 0
        for rid, (interior, planned) in self.run_work.items():
            if rid in self.explicit_runs:
                levels += planned
                updates += interior * planned
            elif rid < step_runs.size:
                updates += interior * int(step_runs[rid])
        exact_calls = calls("problems.exact")
        return {
            "cli.self_s": cli_self,
            "schemes.assemble.calls": calls("schemes.assemble"),
            "schemes.assemble.busy_s": busy("schemes.assemble"),
            "schemes.time_step.calls": calls("schemes.time_step"),
            "schemes.time_step.self_s": self_time("schemes.time_step"),
            "schemes.first_step.busy_s": busy("schemes.first_step"),
            "schemes.apply_a.busy_s": busy("schemes.apply_a"),
            "schemes.apply_step.busy_s": busy("schemes.apply_step"),
            "schemes.boundary_values.busy_s": busy("schemes.boundary_values"),
            "schemes.solve_step.self_s": lift,
            "schemes.characteristic.self_s": self_time("schemes.characteristic"),
            "solvers.TriSolver.solve.calls": calls("solvers.TriSolver.solve"),
            "solvers.TriSolver.solve.busy_s": busy("solvers.TriSolver.solve"),
            "solvers.SpectralHandle.solve.busy_s": busy("solvers.SpectralHandle.solve"),
            "solvers.SplittingHandle.solve.self_s": self_time("solvers.SplittingHandle.solve"),
            "operators.rhs_level.calls": calls("operators.rhs_level"),
            "operators.rhs_level.busy_s": busy("operators.rhs_level"),
            "problems.exact.calls": exact_calls,
            "problems.exact.busy_s": busy("problems.exact"),
            "problems.exact.distinct_ratio": (
                len(self.exact_keys) / exact_calls if exact_calls else 0.0
            ),
            "problems.f_fn.per_level": calls("problems.f_fn") / levels if levels else 0.0,
            "analysis.observe.calls": calls("analysis.observe"),
            "analysis.observe.self_s": self_time("analysis.observe"),
            "stability.check_cfl.busy_s": busy("stability.check_cfl"),
            "stability.verify_energy_bound.calls": calls("stability.verify_energy_bound"),
            "stability.verify_energy_bound.busy_s": busy("stability.verify_energy_bound"),
            "levels": float(levels),
            "node_updates": float(updates),
            "trace.unattributed_ratio": abs(wall - cli_self - float(self_t.sum())) / wall,
            "trace.missing_layers": float(len(self.missing)),
        }


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) or a None value when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    # look in the class dict so inherited or aliased names patch in place
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return owner, attr, value


def _keyed(exact, problem_name: str, keys: set):
    """Record one key per (problem, node set, t) an exact evaluation sees."""

    def evaluate(*args):
        coords = tuple(
            (getattr(x, "shape", ()), float(x.flat[0]), float(x.flat[-1]))
            if getattr(x, "size", 0)
            else (float(x),)
            for x in args[:-1]
        )
        keys.add((problem_name, coords, float(args[-1])))
        return exact(*args)

    return evaluate


def _after_assemble(tracer: Tracer, args, _result) -> None:
    scheme = args[0]
    interior = math.prod(m.nodes.size - 2 for m in scheme.meshes)
    tracer.run_work[tracer.run_id] = [interior, scheme.tmesh.n_steps]


def _after_characteristic(tracer: Tracer, _args, result) -> None:
    run_result, axis, _tmesh = result
    tracer.run_work[tracer.run_id] = [axis.nodes.size - 2, run_result.completed_levels - 1]
    tracer.explicit_runs.add(tracer.run_id)


_AFTER = {
    "schemes.assemble": _after_assemble,
    "schemes.characteristic": _after_characteristic,
}
