"""Time-stepping schemes: compact 4th-order (1D, the three nD variants, the
factorized splitting form), a weighted 2nd-order reference, and the explicit
scheme on the characteristic mesh.

Every implicit scheme advances the symmetric three-level recursion

    (B + sigma h_t^2 A) (v^{m+1} - 2 v^m + v^{m-1}) / h_t^2 = f_N^m - A v^m

with Dirichlet values imposed on the boundary and folded into the interior
right-hand side, and starts from

    (B + sigma h_t^2 A) (v^1 - v^0) / h_t = u_1N + (h_t/2) (f_N^0 - A v^0).

Both are solved in increment form, for v^1 - v^0 and for the second
difference v^{m+1} - 2 v^m + v^{m-1}: one A apply and one solve per level.

A kind fixes its dimensions, operator pair, sigma and meshes (_KINDS).  A
scheme holds per-axis stencil rows (the compact averages and the stiffness
rows -a_i^2 Lambda_i) and one solver handle, which applies the step operator
and solves with it.  A 1D kind solves with its one step factor
(StackHandle), the splitting form with the product of its per-axis step
factors (SplittingHandle); these factored kinds step on uniform and graded
axes alike.  compact2d, compact3d and nD compactnd solve over the tensor
sine basis (SpectralHandle), which exists on uniform axes only
(solvers.sine_spectrum raises MeshError on a graded one), and apply B and A
as sums and products of the per-axis rows.  Every nD kind lifts a trace
with the step operator's rows next to each face, the splitting form's cut
from its factor product; a 1D kind lifts it with its step factor's
couplings to the two boundary nodes.

Every run, the explicit one and a 1D stack included, takes its Dirichlet
trace from one rule (problems.ProblemSpec.trace) and marches through one
level loop (_march), which shows each level to its one observer and
applies the blow-up rule to each of its rows.  The recipe of a 1D run
(analysis.run_errors) marches two or more implicit kinds as one stack
(run_stacked), a (K, N+1) array with one row per kind: on one axis every 1D
kind has the same A, so a level is one first_step or time_step of the
stack, with one A apply, one forcing entry, one trace and one
block-diagonal solve for all rows, and the loop ends each row's run on its
own.  Every 1D run takes its step count from one rule (step_count).

The explicit scheme on the characteristic mesh h_t = h/a advances

    v_k^{m+1} = v_{k-1}^m + v_{k+1}^m - v_k^{m-1} + h_t^2 f_k^m

with f_k^m the average of the forcing over the rhomb footprint of node k (a
triangle at the first half level).  h_t^2 f_k^m is a signed sum of four of
the exact solutions' backward-cone integrals (_char_forcing).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .mesh import AxisMesh, MeshError, TimeMesh, build_uniform_axis, mesh_stats
from .mesh import select_time_step_count
from .operators import (
    RhsTable,
    SpaceDirac,
    _dalembert_forcing_part,
    _snap,
    _step,
    build_rhs_table,
    initial_velocity,
    pair_appliers,
    step_factor,
)
from .solvers import SpectralHandle, SplittingHandle, StackHandle, pair_spectra

__all__ = [
    "SchemeKind",
    "SchemeConfig",
    "RunResult",
    "Scheme",
    "run",
    "run_stacked",
    "run_explicit_characteristic",
    "characteristic_meshes",
    "operator_pair",
    "step_count",
    "BLOWUP_ABORT",
]

BLOWUP_ABORT = 1e100
COMPACT_SIGMA = 1.0 / 12.0
# levels the reference side handles at once: the error observer's residual
# block and the characteristic runner's cone integrals
_BLOCK = 32

_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)


def diverged(row: np.ndarray) -> bool:
    """The blow-up rule, one verdict per row of a march: a non-finite value
    or a magnitude beyond 1e100."""
    return not np.abs(row).max() <= BLOWUP_ABORT


class SchemeKind(str, Enum):
    COMPACT_1D = "compact1d"
    COMPACT_2D_SUM = "compact2d"
    COMPACT_3D_PROD_MASS = "compact3d"
    COMPACT_ND = "compactnd"
    SPLITTING = "splitting"
    EXPLICIT_CHARACTERISTIC = "characteristic"
    SECOND_ORDER = "second-order"

    @classmethod
    def _missing_(cls, value):
        # the graded-mesh compact scheme is compact1d: its old name is an alias
        return cls.COMPACT_1D if value == "nonuniform-compact" else None


class _Kind(NamedTuple):
    """A kind's dimensions, operator pair (None outside the stability theory)
    and sigma (characteristic: the compact recursion at h_t = h/a)."""

    dims: tuple[int, ...]
    pair: str | None
    sigma: float = COMPACT_SIGMA


_KINDS = {
    SchemeKind.COMPACT_1D: _Kind((1,), "prod_stiffprod"),
    SchemeKind.COMPACT_2D_SUM: _Kind((2,), "sum_stiffsum"),
    SchemeKind.COMPACT_3D_PROD_MASS: _Kind((3,), "prod_stiffsum"),
    SchemeKind.COMPACT_ND: _Kind((1, 2, 3), "prod_stiffprod"),
    SchemeKind.SPLITTING: _Kind((2, 3), "prod_residual_stiffprod"),
    SchemeKind.EXPLICIT_CHARACTERISTIC: _Kind((1,), None),
    SchemeKind.SECOND_ORDER: _Kind((1,), None, sigma=0.5),
}


def operator_pair(kind: SchemeKind, ndim: int) -> str | None:
    """Mass/stiffness pair entering the stability condition, None outside the
    conditional-stability theory; a ValueError in a dimension the kind lacks."""
    kind = SchemeKind(kind)
    if ndim not in _KINDS[kind].dims:
        raise ValueError(f"scheme {kind.value} does not support dimension {ndim}")
    return _KINDS[kind].pair


def step_count(problem, axis: AxisMesh, kind, factor: float = math.sqrt(2.0)) -> int:
    """The step count M of every 1D run of `kind` on `axis`: floor(a T / h)
    for characteristic (h_t = h/a), else the practical rule
    floor(factor a T / h_min) rounded up to a multiple of N when the problem
    switches on at t_*, which keeps t_* on the time mesh (M = N for every
    E_alpha on its uniform axis at the default factor)."""
    if SchemeKind(kind) == SchemeKind.EXPLICIT_CHARACTERISTIC:
        h = problem.extents[0] / axis.n_intervals
        return select_time_step_count(h, problem.speeds[0], problem.horizon, 1.0)
    m = select_time_step_count(mesh_stats(axis).h_min, problem.speeds[0], problem.horizon, factor)
    if problem.t_star is not None:
        m = -(-m // axis.n_intervals) * axis.n_intervals
    return m


@dataclass(frozen=True)
class SchemeConfig:
    """A kind in a wrapper, kept only for its one caller, the benchmark's nD
    pass (bench/workloads.py), with run; both go once that pass builds its
    scheme from the kind.  Everything else passes the kind itself."""

    kind: SchemeKind


@dataclass
class RunResult:
    """Final two levels of a run plus instability bookkeeping."""

    completed_levels: int
    v_prev: np.ndarray | None
    v_last: np.ndarray
    blew_up: bool

    @property
    def stable(self) -> bool:
        return not self.blew_up


class Scheme:
    """Assembled scheme: step operators, data constructions, and solvers.

    The kind (a SchemeKind, its value or the alias nonuniform-compact)
    fixes the rest (_KINDS); the discrete data follow the problem's data.
    The forcing is one table fn_table of f_N^0 .. f_N^{M-1}, one entry per
    time step (level 0 is the forcing of the first-step equation), made
    from the problem's piecewise f_data, averaged exactly, or else from its
    callable f_fn, sampled by the compact formulas
    (operators.build_rhs_table); march_data and the energy certificates
    take the forcing in the same form.  The initial velocity u1n is the
    problem's callable u1_fn, sampled, when it has one, and otherwise its
    piecewise u1_data, averaged (operators.initial_velocity).  Both are
    built on first read: the second scheme of a stack and a scheme that
    marches other data (march_data) never build them, and data that cannot
    be discretized (a time atom off the time mesh, say) raises when a run
    starts, not at assembly.
    """

    def __init__(
        self,
        problem,
        kind: SchemeKind | str,
        meshes: Sequence[AxisMesh],
        tmesh: TimeMesh,
    ):
        kind = SchemeKind(kind)
        meshes = tuple(meshes)
        n = len(meshes)
        self.pair = operator_pair(kind, n)
        if kind == SchemeKind.EXPLICIT_CHARACTERISTIC:
            raise ValueError("use run_explicit_characteristic for the explicit scheme")
        self.problem = problem
        self.kind = kind
        self.meshes = meshes
        self.tmesh = tmesh
        self.h_t = tmesh.h_t
        self.speeds = problem.speeds
        self.sigma = _KINDS[kind].sigma

        # B and A from per-axis stencil rows; one solver handle for the step operator
        appliers = functools.partial(pair_appliers, self.pair, meshes, self.speeds, self.h_t)
        mass, stiffness = appliers()
        self._stiffness = stiffness
        self._interior = tuple(slice(1, -1) for _ in meshes)
        self._grids = np.meshgrid(*(m.nodes for m in meshes), indexing="ij")
        # the faces, axis by axis, side 0 then -1, and the problem's trace on
        # them; None is identically zero: S 0 = 0 needs no lift
        self._faces = []
        for axis in range(n):
            for side in (0, -1):
                face = [slice(None)] * n
                face[axis] = side
                self._faces.append(tuple(face))
        self._trace = problem.trace([[g[face] for g in self._grids] for face in self._faces])
        if n == 1 or kind == SchemeKind.SPLITTING:
            # the per-axis step factors, weighted ones when B = I (no pair)
            sigma = self.sigma if self.pair is None else None
            factors = [
                step_factor(mesh, self.h_t, self.speeds[axis], axis, sigma)
                for axis, mesh in enumerate(meshes)
            ]
            self._solver = StackHandle(factors) if n == 1 else SplittingHandle(factors)
        else:
            mu_b, mu_a = self.spectra
            c = self.sigma * self.h_t**2
            step = lambda b, a: lambda v: b(v) + c * a(v)
            # the face maps lift a trace; the handle builds them on its first lift
            self._solver = SpectralHandle(
                mu_b + c * mu_a,
                step(mass, stiffness),
                lambda axis, side: step(*appliers(face=(axis, side))),
            )

    @functools.cached_property
    def u1n(self) -> np.ndarray:
        """The interior initial velocity u_1N (see the class docstring),
        built on first read."""
        problem = self.problem
        velocity = problem.u1_fn if problem.u1_fn is not None else problem.u1_data
        return initial_velocity(velocity, self.meshes, self.h_t, self.speeds)

    @functools.cached_property
    def fn_table(self) -> RhsTable:
        """The forcing table f_N^0 .. f_N^{M-1} (see the class docstring),
        built on first read."""
        problem = self.problem
        forcing = problem.f_data if problem.f_data is not None else problem.f_fn
        return build_rhs_table(forcing, self.meshes, self.tmesh)

    @property
    def step_factor(self):
        """The step operator S of a 1D scheme: its one tridiagonal factor."""
        if len(self.meshes) != 1:
            raise ValueError("only a 1D scheme's step operator is one tridiagonal factor")
        return self._solver.factors[0]

    @functools.cached_property
    def spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalue tensors (mu_B, mu_A) of the scheme's operator pair over
        the sine basis (solvers.pair_spectra); the spectral kinds solve with
        them, the energy certificates weigh with them.  Computed on first
        use: the factored kinds never need them to step, and a graded axis
        has none."""
        return pair_spectra(self.meshes, self.speeds, self.pair, self.h_t)

    # -- operator applications (full array in, interior out) ---------------

    def apply_a_interior(self, values: np.ndarray) -> np.ndarray:
        return self._stiffness(values)

    def apply_step_operator_interior(self, values: np.ndarray) -> np.ndarray:
        return self._solver.apply(values)

    # -- boundary handling ---------------------------------------------------

    def boundary_values(self, values: np.ndarray, t: float) -> None:
        """Impose the problem's Dirichlet trace (problems.ProblemSpec.trace),
        or a zero one, on every face of a full node array (on every column
        of a 1D stack)."""
        traces = [0.0] * len(self._faces) if self._trace is None else self._trace(t)
        for face, trace in zip(self._faces, traces):
            values[face] = trace

    def solve_step(
        self, rhs_interior: np.ndarray, t_boundary: float, base: np.ndarray, solver=None
    ) -> np.ndarray:
        """The full array with the trace at t_boundary on its faces and
        base + w inside, S w = rhs - lift, S = B + sigma h_t^2 A (a zero base
        gives S v = rhs).  The lift is S applied to w's trace, the trace
        minus base's faces, which the solver handle takes from the nodes next
        to a face.  Without a trace (zero faces, no boundary_values call) the
        lift is left out when base's faces are zero too, as they are in every
        step whose base does not hold v^0.

        `solver` is the scheme's own handle by default; a 1D stack passes the
        StackHandle of its columns' factors with (N+1, K) arrays."""
        solver = self._solver if solver is None else solver
        out = np.empty_like(base)  # base's layout: a 1D stack's columns stay contiguous
        out.fill(0.0)
        traced = self._trace is not None
        if traced:
            self.boundary_values(out, t_boundary)
        trace = out - base
        trace[self._interior] = 0.0
        inner = solver.solve(rhs_interior, trace if traced or trace.any() else None)
        out[self._interior] = base[self._interior] + inner
        return out

    # -- stepping ----------------------------------------------------------------

    def initial_level(self) -> np.ndarray:
        values = self.problem.u0(*self._grids)
        return np.array(values, dtype=float)

    def first_step(
        self, v0: np.ndarray, u1n: np.ndarray, fn0: np.ndarray, solver=None
    ) -> np.ndarray:
        """Level 1 from the full array v0, the interior initial velocity u1n
        and the interior forcing fn0 = f_N^0 of the first-step equation, in
        increment form: one A apply and one solve,
        S (v^1 - v^0) = h_t u1n + (h_t^2/2) (fn0 - A v^0), with the trace
        of v^1 - v^0 on the faces (`solver` as for solve_step)."""
        h_t = self.h_t
        rhs = h_t * (u1n + 0.5 * h_t * fn0 - 0.5 * h_t * self.apply_a_interior(v0))
        return self.solve_step(rhs, self.tmesh.nodes[1], v0, solver)

    def time_step(
        self, v_prev: np.ndarray, v_curr: np.ndarray, level: int, fn: np.ndarray, solver=None
    ) -> np.ndarray:
        """Level `level` + 1 from the two levels before it and the interior
        forcing fn = f_N^level, in increment form: one A apply and one solve
        for the second difference w = v^{m+1} - 2 v^m + v^{m-1},
        S w = h_t^2 (fn - A v^m), with the second difference of the trace
        on the faces (`solver` as for solve_step)."""
        rhs = self.h_t**2 * (fn - self.apply_a_interior(v_curr))
        return self.solve_step(rhs, self.tmesh.nodes[level + 1], 2.0 * v_curr - v_prev, solver)

    def _march_from(
        self, v0: np.ndarray, u1n: np.ndarray, forcing: Callable[[int], np.ndarray], observer
    ) -> RunResult:
        """The level loop (_march) of the recursion started from the full
        array v0 with the initial velocity u1n and the forcing f^m =
        forcing(m) of each step m = 0 .. M-1."""
        return _march(
            v0,
            lambda v: self.first_step(v, u1n, forcing(0)),
            lambda v_prev, v_curr, level: self.time_step(v_prev, v_curr, level, forcing(level)),
            self.tmesh,
            observer,
        )[0]

    def march_data(
        self, v0: np.ndarray, u1n: np.ndarray, forcing: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """The levels v^0, v^1, ... of the recursion started from the full
        array v0 with the given discrete data in place of the problem's: the
        initial velocity u_1N and the interior forcing f^0 .. f^{M-1}, one
        entry per step of the time mesh, as in fn_table.  The trace is still
        the problem's.  The list ends at v^M, or at the level that meets the
        blow-up rule."""
        if len(forcing) != self.tmesh.n_steps:
            raise ValueError(
                f"{len(forcing)} forcing levels for {self.tmesh.n_steps} time steps"
            )
        levels = []
        self._march_from(v0, u1n, forcing.__getitem__, lambda level, t, v: levels.append(v))
        return levels

    def run(self, observer: Callable[[int, float, np.ndarray], None] | None = None) -> RunResult:
        """March the scheme over the whole time mesh with its own data u1n and
        fn_table, showing every level to the observer (see _march)."""
        return self._march_from(self.initial_level(), self.u1n, self.fn_table, observer)


def _march(
    v0: np.ndarray, first, step, tmesh: TimeMesh, observer, stacked: bool = False
) -> list[RunResult]:
    """The level loop of every run: v^1 = first(v^0) and
    v^{m+1} = step(v^{m-1}, v^m, m) up to the last node of the time mesh.

    A level is the run's whole array, or for a stack (stacked) a (K, N+1)
    array whose row k is run k's.  Every level, v^0 included, is shown whole
    to the observer (None: an unwatched run) as (level, t, v), then each row
    is judged by the blow-up rule (diverged).  A row that meets it ends its
    run with the flag set and is held at zero from a copy of that level on
    (the observer may keep what it was shown), so no inf or NaN reaches a
    step shared by the rows: the later levels show it as zeros.  Returns one
    RunResult per row (one for a run), once every run has ended or at the
    last node.
    """
    show = (lambda *level: None) if observer is None else observer
    rows = iter if stacked else (lambda v: (v,))
    show(0, 0.0, v0)
    results: list[RunResult | None] = [None] * (len(v0) if stacked else 1)
    ended: list[int] = []
    v_prev, v_curr = None, v0
    for level in range(1, tmesh.n_steps + 1):
        v_next = first(v_curr) if level == 1 else step(v_prev, v_curr, level - 1)
        if ended:
            v_next[ended] = 0.0
        v_prev, v_curr = v_curr, v_next
        show(level, tmesh.nodes[level], v_curr)
        blown = False
        for k, (prev, row) in enumerate(zip(rows(v_prev), rows(v_curr))):
            if results[k] is None and diverged(row):
                results[k] = RunResult(level + 1, prev, row, True)
                blown = True
        if blown:
            ended = [k for k, result in enumerate(results) if result is not None]
            if len(ended) == len(results):
                return results
            v_prev, v_curr = v_prev.copy(), v_curr.copy()
            v_prev[ended] = v_curr[ended] = 0.0
    return [
        RunResult(tmesh.n_steps + 1, prev, row, False) if result is None else result
        for result, prev, row in zip(results, rows(v_prev), rows(v_curr))
    ]


def run_stacked(
    problem,
    kinds: Sequence[SchemeKind | str],
    axis: AxisMesh,
    tmesh: TimeMesh,
    observer: Callable[[int, float, np.ndarray], None] | None,
) -> list[RunResult]:
    """Run the 1D kinds on one problem, axis and time mesh as one stack, a
    (K, N+1) array with one row per kind, showing each level of the stack to
    the observer; one RunResult per kind, equal to the kind's own run bit
    for bit.

    Every 1D kind has the same A (-a^2 Lambda: compact1d's cross average runs
    over no other axis, second-order has none), and the kinds share the data
    u1n and fn_table and the trace, so each level is one first_step or
    time_step of the first kind's scheme on the stack's transpose, with the
    StackHandle of the K step factors in place of its own, and _march ends
    each row's run on its own.  A lone kind runs on its own (Scheme.run):
    the same step on 1-D levels, which cost less than a stack of one row,
    and its observer is shown those.
    """
    if not kinds:
        raise ValueError("a stack needs at least one kind")
    stack = [Scheme(problem, kind, [axis], tmesh) for kind in kinds]
    lead = stack[0]
    if len(stack) == 1:
        return [lead.run(observer)]
    handle = StackHandle([scheme.step_factor for scheme in stack])
    # the shared interior data broadcast over the columns of the transpose
    u1n, forcing = lead.u1n[:, None], lead.fn_table
    return _march(
        np.tile(lead.initial_level(), (len(stack), 1)),
        lambda v: lead.first_step(v.T, u1n, forcing(0)[:, None], handle).T,
        lambda v_prev, v_curr, level: lead.time_step(
            v_prev.T, v_curr.T, level, forcing(level)[:, None], handle
        ).T,
        tmesh,
        observer,
        stacked=True,
    )


def run(
    problem,
    config: SchemeConfig,
    meshes: Sequence[AxisMesh],
    tmesh: TimeMesh,
    observer: Callable[[int, float, np.ndarray], None] | None = None,
) -> RunResult:
    """Scheme(problem, config.kind, meshes, tmesh).run(observer), kept only
    for its one caller, the benchmark's nD pass (see SchemeConfig)."""
    return Scheme(problem, config.kind, meshes, tmesh).run(observer)


# ---------------------------------------------------------------------------
# explicit scheme on the characteristic mesh


def characteristic_meshes(problem, n_intervals: int, n_steps: int) -> tuple[AxisMesh, TimeMesh]:
    """Uniform axis over the problem's interval and the time mesh with
    h_t = h/a on which the explicit scheme runs."""
    if n_steps < 1:
        raise MeshError(f"need at least one time step, got M = {n_steps}")
    axis = build_uniform_axis(n_intervals, problem.extents[0], problem.origin[0])
    h_t = axis.h / problem.speeds[0]
    return axis, TimeMesh(np.arange(n_steps + 1) * h_t)


def _char_velocity_table(problem, nodes: np.ndarray, h: float) -> np.ndarray:
    """(1/(2h)) * integral of the initial velocity over (x_{k-1}, x_{k+1})."""
    out = np.zeros(nodes.size)
    if problem.u1_data is not None:
        # an atom weighs 1 inside its window, 1/2 on its end and 0 outside,
        # the exact solutions' tie rule on the axis scale |origin| + X: the
        # nodes origin + k X/N carry the rounding of the origin
        scale = abs(nodes[0]) + (nodes[-1] - nodes[0])
        for term in problem.u1_data:
            space = term.space
            if isinstance(space, SpaceDirac):
                gap = np.minimum(space.location - nodes[:-2], nodes[2:] - space.location)
                out[1:-1] += term.coef * _step(_snap(gap, scale)) / (2.0 * h)
            else:
                anti = space.antideriv(nodes)
                out[1:-1] += term.coef * (anti[2:] - anti[:-2]) / (2.0 * h)
        return out
    if problem.u1_fn is not None:
        half = 0.5 * np.diff(nodes)
        pts = (0.5 * (nodes[1:] + nodes[:-1]))[:, None] + half[:, None] * _GL_X
        cell = half * (problem.u1_fn(pts) @ _GL_W)
        out[1:-1] = (cell[:-1] + cell[1:]) / (2.0 * h)
    return out


def _char_forcing(f_data, nodes: np.ndarray, tmesh: TimeMesh, a: float):
    """The forcing terms of the recursion at the interior nodes, one per
    step m = 0 .. M-1: (h_t^2/2) f_k^0 at m = 0 and h_t^2 f_k^m after, with
    f_k^m the average of the forcing over the footprint of node k.

    By d'Alembert's parallelogram rule each footprint integral is a signed
    sum of backward-cone integrals C_m (operators._dalembert_forcing_part at
    t_m, all nodes), which the exact solutions evaluate, Dirac atoms on the
    cone's sides and apex included: C_1[k] for the triangle below t_1, and
    C_{m+1}[k] - C_m[k-1] - C_m[k+1] + C_{m-1}[k] for the rhomb
    (t_{m-1}, t_{m+1}).  C is evaluated in one call per block of _BLOCK
    steps lo .. hi-1, at the levels lo-1 .. hi that their rhombs reach (0 ..
    hi in the first block), so memory stays O(_BLOCK N); the terms are
    yielded in step order.
    """
    times = tmesh.nodes
    for lo in range(0, tmesh.n_steps, _BLOCK):
        hi = min(lo + _BLOCK, tmesh.n_steps)
        cone = _dalembert_forcing_part(
            f_data, nodes[None, :], times[max(lo - 1, 0) : hi + 1, None], a
        )
        if lo == 0:
            yield cone[1, 1:-1]
        yield from cone[2:, 1:-1] - cone[1:-1, :-2] - cone[1:-1, 2:] + cone[:-2, 1:-1]


def run_explicit_characteristic(
    problem,
    n_intervals: int,
    n_steps: int,
    observer: Callable[[int, float, np.ndarray], None] | None = None,
) -> tuple[RunResult, AxisMesh, TimeMesh]:
    """Four-point explicit scheme on the mesh aligned with the characteristics
    (h_t = h/a), with exact cell averages of the data; reproduces the exact
    solution at the nodes up to roundoff for the catalog problems.

    The forcing data are differences of the exact solutions' cone integrals
    (_char_forcing), which count a term from its switch-on time: every term
    needs a temporal factor switched on at t >= 0.  A velocity atom on the
    edge of its window counts with weight 1/2.
    """
    if problem.ndim != 1:
        raise ValueError("the characteristic-mesh scheme is one-dimensional")
    if problem.f_fn is not None and problem.f_data is None:
        raise ValueError("the characteristic scheme averages piecewise forcing only (or none)")
    f_data = problem.f_data or ()
    if any(term.time is None or term.time.t_star < 0.0 for term in f_data):
        raise ValueError("characteristic forcing needs a temporal factor switched on at t >= 0")
    axis, tmesh = characteristic_meshes(problem, n_intervals, n_steps)
    nodes = axis.nodes
    h = axis.h
    h_t = h / problem.speeds[0]

    u1n = _char_velocity_table(problem, nodes, h)
    forcing = _char_forcing(f_data, nodes, tmesh, problem.speeds[0])
    trace = problem.trace([(nodes[0],), (nodes[-1],)])
    boundary = (lambda t: (0.0, 0.0)) if trace is None else trace

    # _march asks for the levels in order, so each takes the next forcing term
    def first(v0: np.ndarray) -> np.ndarray:
        v1 = np.empty_like(v0)
        v1[1:-1] = 0.5 * (v0[:-2] + v0[2:]) + h_t * u1n[1:-1] + next(forcing)
        v1[0], v1[-1] = boundary(tmesh.nodes[1])
        return v1

    def step(v_prev: np.ndarray, v_curr: np.ndarray, level: int) -> np.ndarray:
        v_next = np.empty_like(v_curr)
        v_next[1:-1] = v_curr[:-2] + v_curr[2:] - v_prev[1:-1] + next(forcing)
        v_next[0], v_next[-1] = boundary(tmesh.nodes[level + 1])
        return v_next

    v0 = np.array(problem.u0(nodes), dtype=float)
    return _march(v0, first, step, tmesh, observer)[0], axis, tmesh
