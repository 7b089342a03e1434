"""Time-stepping schemes: compact 4th-order (1D on uniform or graded axes,
the three nD variants, the factorized splitting form), a weighted 2nd-order
reference, and the explicit scheme on the characteristic mesh.

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
factors (SplittingHandle).  compact2d, compact3d and nD compactnd solve over
the tensor sine basis (SpectralHandle) and apply B and A as sums and
products of the per-axis rows; they lift a trace with the step operator's
rows next to each face.

A scheme's own march, the explicit one included, runs through one level
loop (_march), which applies the blow-up rule to each level it computes.
The recipe of a 1D run (analysis.run_errors) marches two or more implicit
kinds as one stack instead (run_stacked), a (N+1, K) array with one column
per kind: on one axis every 1D kind has the same A, so a level is one
first_step or time_step of the stack, with one A apply, one forcing entry,
one trace and one block-diagonal solve for all columns, and the blow-up
rule takes each column out of the stack on its own.  Every 1D run takes its
step count from one rule (step_count).

The explicit scheme on the characteristic mesh h_t = h/a advances

    v_k^{m+1} = v_{k-1}^m + v_{k+1}^m - v_k^{m-1} + h_t^2 f_k^m

where f_k^m is the exact average of the forcing over the rhomb footprint of
node k (a triangle at the first half level).  The averages of one level are
computed for all interior nodes at once: Gauss quadrature on the pieces of
the slice integral between the level's shared breakpoints and each node's
own crossing times of the spatial breakpoint, closed forms for Dirac atoms
in time.
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
    TIE_RTOL,
    RhsTable,
    SpaceDirac,
    TimeDirac,
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
    "assemble",
    "run",
    "run_stacked",
    "run_explicit_characteristic",
    "characteristic_meshes",
    "operator_pair",
    "step_count",
    "BLOWUP_ABORT",
    "diverged",
]

BLOWUP_ABORT = 1e100
COMPACT_SIGMA = 1.0 / 12.0

_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)


def diverged(values: np.ndarray, axis: int | None = None):
    """The blow-up rule: a non-finite value or a magnitude beyond 1e100; one
    verdict for the array, or one per slice along `axis` (axis=0 of a stack:
    one per column)."""
    return ~(np.abs(values).max(axis=axis) <= BLOWUP_ABORT)


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
    """A kind's dimensions, operator pair (None outside the stability theory),
    sigma and graded-axis support (characteristic: the compact recursion at h_t = h/a)."""

    dims: tuple[int, ...]
    pair: str | None
    sigma: float = COMPACT_SIGMA
    graded: bool = False


_KINDS = {
    SchemeKind.COMPACT_1D: _Kind((1,), "prod_stiffprod", graded=True),
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
        raise ValueError(f"{kind.value} does not support dimension {ndim}")
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
    """Scheme selection: the kind, which fixes the rest (_KINDS).  The
    discrete data follow the problem's data, not the config: see Scheme."""

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

    The discrete data follow the problem's data.  The forcing is one table
    fn_table of f_N^0 .. f_N^{M-1}, one entry per time step (level 0 is the
    forcing of the first-step equation), made from the problem's piecewise
    f_data, averaged exactly, or else from its callable f_fn, sampled by the
    compact formulas (operators.build_rhs_table); march_data and the energy
    certificates take the forcing in the same form.  The initial velocity
    u1n is the problem's callable u1_fn, sampled, when it has one, and
    otherwise its piecewise u1_data, averaged (operators.initial_velocity).
    Both are built on first read: the second scheme of a stack and a scheme
    that marches other data (march_data) never build them, and data that
    cannot be discretized (a time atom off the time mesh, say) raises when
    a run starts, not at assembly.
    """

    def __init__(
        self,
        problem,
        config: SchemeConfig,
        meshes: Sequence[AxisMesh],
        tmesh: TimeMesh,
    ):
        kind = config.kind
        meshes = tuple(meshes)
        n = len(meshes)
        self.pair = operator_pair(kind, n)
        if kind == SchemeKind.EXPLICIT_CHARACTERISTIC:
            raise ValueError("use run_explicit_characteristic for the explicit scheme")
        if not _KINDS[kind].graded and not all(m.uniform for m in meshes):
            raise MeshError(f"{kind.value} requires uniform spatial meshes")
        if not tmesh.uniform:
            raise MeshError("time stepping requires a uniform time mesh")
        self.problem = problem
        self.config = config
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
        # the one rule for a non-zero trace, kept by boundary_values and solve_step;
        # without boundary data the trace is identically zero: S 0 = 0 needs no lift
        self._traced = problem.exact is not None or (n == 1 and problem.g is not None)
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

        self._grids = np.meshgrid(*(m.nodes for m in meshes), indexing="ij")
        self._faces = self._face_coordinates()

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

    def _face_coordinates(self):
        faces = []
        n = len(self.meshes)
        for axis in range(n):
            for side in (0, -1):
                idx = [slice(None)] * n
                idx[axis] = side
                coords = [g[tuple(idx)] for g in self._grids]
                faces.append((axis, side, tuple(idx), coords))
        return faces

    def boundary_values(self, values: np.ndarray, t: float) -> None:
        """Impose the Dirichlet trace on every face of a full node array (on
        every column of a 1D stack)."""
        problem = self.problem
        if not self._traced:
            for _, _, idx, _ in self._faces:
                values[idx] = 0.0
        elif problem.g is not None and len(self.meshes) == 1:
            g0, g1 = problem.g
            values[0] = g0(t)
            values[-1] = g1(t)
        else:
            for _, _, idx, coords in self._faces:
                values[idx] = problem.exact(*coords, t)

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
        if self._traced:
            self.boundary_values(out, t_boundary)
        trace = out - base
        trace[self._interior] = 0.0
        inner = solver.solve(rhs_interior, trace if self._traced or trace.any() else None)
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

    def _levels(self, v0: np.ndarray, u1n: np.ndarray, forcing: Callable[[int], np.ndarray]):
        """The level generator (_march) of the recursion started from the
        full array v0 with the initial velocity u1n and the forcing f^m =
        forcing(m) of each step m = 0 .. M-1."""
        return _march(
            v0,
            lambda v: self.first_step(v, u1n, forcing(0)),
            lambda v_prev, v_curr, level: self.time_step(v_prev, v_curr, level, forcing(level)),
            self.tmesh,
        )

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
        return [values for _, _, values in self._levels(v0, u1n, forcing.__getitem__)]

    def march(self):
        """Generator over the levels of a run (see _march) with the scheme's
        own data u1n and fn_table: yields (level, t, values) for every level
        it computes, the aborting one included, and returns the RunResult."""
        return self._levels(self.initial_level(), self.u1n, self.fn_table)

    def run(self, observer: Callable[[int, float, np.ndarray], None] | None = None) -> RunResult:
        """March the scheme over the whole time mesh, showing every level to
        the observer (see march)."""
        return _drive(self.march(), observer)


def _march(v0: np.ndarray, first, step, tmesh: TimeMesh):
    """The level loop of every scheme: v^1 = first(v^0) and
    v^{m+1} = step(v^{m-1}, v^m, m) up to the last node of the time mesh.

    Yields (level, t, values) for every level, v^0 included, and returns the
    RunResult.  Each computed level is checked by the blow-up rule (diverged)
    after it is yielded; one that meets it ends the run with the flag set.
    """
    yield 0, 0.0, v0
    v_prev, v_curr = None, v0
    for level in range(1, tmesh.n_steps + 1):
        v_next = first(v_curr) if level == 1 else step(v_prev, v_curr, level - 1)
        v_prev, v_curr = v_curr, v_next
        yield level, tmesh.nodes[level], v_curr
        if diverged(v_curr):
            return RunResult(level + 1, v_prev, v_curr, True)
    return RunResult(tmesh.n_steps + 1, v_prev, v_curr, False)


def _drive(levels, observer: Callable[[int, float, np.ndarray], None] | None) -> RunResult:
    """Run a level generator to its end, showing every level to the observer."""
    while True:
        try:
            level = next(levels)
        except StopIteration as done:
            return done.value
        if observer is not None:
            observer(*level)


def run_stacked(
    schemes: Sequence[Scheme], observers: Sequence[Callable[[int, float, np.ndarray], None]]
) -> list[RunResult]:
    """Run 1D schemes of one problem, axis and time mesh as one stack, a
    (N+1, K) array with one column per scheme, showing each column's levels
    to its own observer; one RunResult per scheme, equal to the scheme's own
    run bit for bit.

    Every 1D kind has the same A (-a^2 Lambda: compact1d's cross average runs
    over no other axis, second-order has none), and the schemes share the
    data u1n and fn_table and the trace, so each level is one first_step or
    time_step of the first scheme on the stack, with the StackHandle of the
    K step factors in place of its own.  A column that meets the blow-up
    rule leaves the stack once its observer has seen that level, so no inf
    or NaN reaches a shared solve.  A lone scheme runs on its own
    (Scheme.run): the same step on 1-D levels, which cost less per level
    than a stack of one column.
    """
    if not schemes or len(observers) != len(schemes):
        raise ValueError(f"{len(observers)} observers for {len(schemes)} schemes")
    lead = schemes[0]
    if any(len(s.meshes) != 1 or s.meshes[0] is not lead.meshes[0] or s.problem is not lead.problem
           or s.tmesh is not lead.tmesh for s in schemes):
        raise ValueError("a stack runs 1D schemes of one problem, axis and time mesh")
    if len(schemes) == 1:
        return [lead.run(observers[0])]
    tmesh, forcing = lead.tmesh, lead.fn_table
    columns = list(range(len(schemes)))
    results: list[RunResult | None] = [None] * len(columns)
    handle = StackHandle([s.step_factor for s in schemes])
    # the (K, N+1) array of contiguous rows, seen through its transpose
    v_prev, v_curr = None, np.tile(lead.initial_level(), (len(columns), 1)).T
    for observer, values in zip(observers, v_curr.T):
        observer(0, 0.0, values)
    for level in range(1, tmesh.n_steps + 1):
        # the shared interior data broadcast over the columns
        if level == 1:
            v_next = lead.first_step(v_curr, lead.u1n[:, None], forcing(0)[:, None], handle)
        else:
            v_next = lead.time_step(v_prev, v_curr, level - 1, forcing(level - 1)[:, None], handle)
        v_prev, v_curr = v_curr, v_next
        for k, values in zip(columns, v_curr.T):
            observers[k](level, tmesh.nodes[level], values)
        blown = diverged(v_curr, axis=0)
        if blown.any():
            for i in np.flatnonzero(blown):
                results[columns[i]] = RunResult(level + 1, v_prev[:, i], v_curr[:, i], True)
            columns = [k for k, out in zip(columns, blown) if not out]
            if not columns:
                return results
            v_prev, v_curr = v_prev.T[~blown].T, v_curr.T[~blown].T
            handle = StackHandle([schemes[k].step_factor for k in columns])
    for k, prev, curr in zip(columns, v_prev.T, v_curr.T):
        results[k] = RunResult(tmesh.n_steps + 1, prev, curr, False)
    return results


def assemble(
    problem, config: SchemeConfig, meshes: Sequence[AxisMesh], tmesh: TimeMesh
) -> Scheme:
    """Bind a scheme to a problem and meshes; see Scheme for the pieces."""
    return Scheme(problem, config, meshes, tmesh)


def run(
    problem,
    config: SchemeConfig,
    meshes: Sequence[AxisMesh],
    tmesh: TimeMesh,
    observer: Callable[[int, float, np.ndarray], None] | None = None,
) -> RunResult:
    return assemble(problem, config, meshes, tmesh).run(observer)


# ---------------------------------------------------------------------------
# explicit scheme on the characteristic mesh


def _atom_weight(gap, scale: float):
    """Weight of a Dirac atom lying `gap` inside the end of its integration
    window: 1 inside, 1/2 on the end (the half-value convention of the exact
    solutions), 0 outside.  Ties are judged relative to the coordinate scale."""
    tol = TIE_RTOL * scale
    return np.where(gap > tol, 1.0, np.where(gap >= -tol, 0.5, 0.0))


def characteristic_meshes(problem, n_intervals: int, n_steps: int) -> tuple[AxisMesh, TimeMesh]:
    """Uniform axis over the problem's interval and the time mesh with
    h_t = h/a on which the explicit scheme runs."""
    if n_steps < 1:
        raise MeshError("need at least one time step")
    axis = build_uniform_axis(n_intervals, problem.extents[0], problem.origin[0])
    h_t = axis.h / problem.speeds[0]
    return axis, TimeMesh(np.arange(n_steps + 1) * h_t)


def _char_velocity_table(problem, nodes: np.ndarray, h: float) -> np.ndarray:
    """(1/(2h)) * integral of the initial velocity over (x_{k-1}, x_{k+1})."""
    out = np.zeros(nodes.size)
    if problem.u1_data is not None:
        # ties on the axis scale |origin| + X, as in the exact solutions:
        # the nodes origin + k X/N carry the rounding of the origin
        scale = abs(nodes[0]) + (nodes[-1] - nodes[0])
        for term in problem.u1_data:
            space = term.space
            if isinstance(space, SpaceDirac):
                gap = np.minimum(space.location - nodes[:-2], nodes[2:] - space.location)
                out[1:-1] += term.coef * _atom_weight(gap, scale) / (2.0 * h)
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


def _footprint_integrals(term, x: np.ndarray, scale: float, t_c: float, t_lo: float,
                         t_hi: float, h: float, h_t: float):
    """Integral of one separable forcing term over the footprint of every
    node x_k: the part t_lo <= t <= t_hi of the rhomb |x' - x_k| <= w(t),
    w(t) = h (1 - |t - t_c| / h_t) (a triangle when t_lo = t_c).

    Dirac atoms in time are integrated in closed form, spatial ones on the
    axis scale `scale` (see _char_velocity_table).  Otherwise the
    integrand f2(t) [A(x_k + w(t)) - A(x_k - w(t))] is a piecewise
    polynomial in t whose pieces end at t_lo, t_c, t_hi, the switch-on time
    t_* (shared by all nodes) and, for nodes within h of the spatial
    breakpoint, the two times where x_k +- w(t) crosses it (t_c for the
    other nodes), clipped to the window and sorted per node; repeated
    breakpoints give zero-width pieces.  The 6-point Gauss rule, exact on
    each piece, runs over all nodes at once.
    """
    space, time = term.space, term.time
    atom = isinstance(space, SpaceDirac)
    d = np.abs(x - (space.location if atom else space.breakpoint))
    if isinstance(time, TimeDirac):
        t_s = time.t_star
        weight = float(_atom_weight(min(t_s - t_lo, t_hi - t_s), t_hi))
        if weight == 0.0:
            return 0.0
        w = h * (1.0 - abs(t_s - t_c) / h_t)
        if atom:
            value = _atom_weight(w - d, scale)
            if t_lo < t_c < t_hi and abs(t_s - t_c) <= TIE_RTOL * t_hi:
                # a side corner of the rhomb is shared by four footprints:
                # weight 1/4, as at the top and bottom corners
                value = np.where(value < 1.0, 0.5 * value, 1.0)
        else:
            value = space.antideriv(x + w) - space.antideriv(x - w)
        return term.coef * weight * value
    if t_hi <= time.t_star:
        return 0.0  # one-sided forcing not switched on yet
    # the slice ends x_k +- w(t) cross the breakpoint at t_c +- reach
    reach = h_t * (1.0 - d / h)
    tol = TIE_RTOL * t_hi
    reach = np.where((reach > tol) & (reach < h_t - tol), reach, 0.0)[:, None]
    shared = np.broadcast_to([t_lo, t_c, t_hi, min(max(time.t_star, t_lo), t_hi)], (x.size, 4))
    cuts = np.concatenate(
        [shared, np.clip(t_c - reach, t_lo, t_hi), np.clip(t_c + reach, t_lo, t_hi)], axis=1
    )
    cuts.sort(axis=1)
    half = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
    t = (0.5 * (cuts[:, 1:] + cuts[:, :-1]))[..., None] + half[..., None] * _GL_X
    w = h * (1.0 - np.abs(t - t_c) / h_t)
    if atom:
        slices = d[:, None, None] < w
    else:
        xk = x[:, None, None]
        slices = space.antideriv(xk + w) - space.antideriv(xk - w)
    return term.coef * np.sum(half * ((time.eval(t) * slices) @ _GL_W), axis=1)


def _char_forcing_level(f_data, nodes: np.ndarray, level: int, h: float, h_t: float) -> np.ndarray:
    """Cell averages of the forcing over the footprints of the interior
    nodes at one level: the triangle below t_1 at level 0, the rhomb
    (t_{m-1}, t_{m+1}) at level m."""
    x = nodes[1:-1]
    if f_data is None:
        return np.zeros(x.size)
    t_m = level * h_t
    if level == 0:
        t_lo, t_hi, area = 0.0, h_t, h * h_t
    else:
        t_lo, t_hi, area = t_m - h_t, t_m + h_t, 2.0 * h * h_t
    scale = abs(nodes[0]) + (nodes[-1] - nodes[0])
    total = sum(_footprint_integrals(term, x, scale, t_m, t_lo, t_hi, h, h_t) for term in f_data)
    return np.broadcast_to(total / area, x.shape)


def run_explicit_characteristic(
    problem,
    n_intervals: int,
    n_steps: int,
    observer: Callable[[int, float, np.ndarray], None] | None = None,
) -> tuple[RunResult, AxisMesh, TimeMesh]:
    """Four-point explicit scheme on the mesh aligned with the characteristics
    (h_t = h/a), with exact cell averages of the data; reproduces the exact
    solution at the nodes up to roundoff for the catalog problems.

    The forcing average of each level is computed for all interior nodes at
    once (see _footprint_integrals); one-sided forcing terms are skipped on
    the levels whose footprints end before they switch on.  A Dirac atom on
    the edge of a footprint or of a velocity window counts with weight 1/2,
    on a corner of a footprint with weight 1/4.
    """
    if problem.ndim != 1:
        raise ValueError("the characteristic-mesh scheme is one-dimensional")
    if problem.f_fn is not None and problem.f_data is None:
        raise ValueError("cell averages require separable piecewise forcing (or none)")
    axis, tmesh = characteristic_meshes(problem, n_intervals, n_steps)
    nodes = axis.nodes
    h = axis.h
    h_t = h / problem.speeds[0]

    u1n = _char_velocity_table(problem, nodes, h)
    g = problem.g
    exact = problem.exact

    def boundary(t: float) -> tuple[float, float]:
        if g is not None:
            return float(g[0](t)), float(g[1](t))
        if exact is not None:
            return float(exact(nodes[0], t)), float(exact(nodes[-1], t))
        return 0.0, 0.0

    def first(v0: np.ndarray) -> np.ndarray:
        f0 = _char_forcing_level(problem.f_data, nodes, 0, h, h_t)
        v1 = np.empty_like(v0)
        v1[1:-1] = 0.5 * (v0[:-2] + v0[2:]) + h_t * u1n[1:-1] + 0.5 * h_t**2 * f0
        v1[0], v1[-1] = boundary(tmesh.nodes[1])
        return v1

    def step(v_prev: np.ndarray, v_curr: np.ndarray, level: int) -> np.ndarray:
        f_m = _char_forcing_level(problem.f_data, nodes, level, h, h_t)
        v_next = np.empty_like(v_curr)
        v_next[1:-1] = v_curr[:-2] + v_curr[2:] - v_prev[1:-1] + h_t**2 * f_m
        v_next[0], v_next[-1] = boundary(tmesh.nodes[level + 1])
        return v_next

    v0 = np.array(problem.u0(nodes), dtype=float)
    return _drive(_march(v0, first, step, tmesh), observer), axis, tmesh
