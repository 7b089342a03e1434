import dataclasses
import math

import numpy as np
import pytest

from compactwave.mesh import (
    NODE_DISTRIBUTIONS,
    build_graded_axis,
    build_time_mesh,
    build_uniform_axis,
    mesh_stats,
    select_time_step_count,
)
from compactwave.operators import (
    GridFunction,
    PPiece,
    QPiece,
    SeparableTerm,
    SpaceDirac,
    TimeDirac,
    product_average,
    splitting_residual,
    step_factor,
    stiffness_product,
)
from compactwave.analysis import ErrorObserver
from compactwave.problems import (
    EXAMPLE_ALPHAS,
    ProblemSpec,
    make_example,
    make_sine_mode_problem,
    make_smooth_nonuniform_problem,
)
from compactwave.schemes import (
    SchemeConfig,
    SchemeKind,
    _char_forcing_level,
    _char_velocity_table,
    assemble,
    characteristic_meshes,
    operator_pair,
    run,
    run_explicit_characteristic,
    run_nonuniform,
)
from compactwave.solvers import sine_coefficients
from oracles import assemble_dense_operator, dense_solve_oracle


def zero_problem(n):
    return ProblemSpec(
        name="zero",
        speeds=tuple([1.0] * n),
        origin=tuple([0.0] * n),
        extents=tuple([1.0] * n),
        horizon=1.0,
        u0=lambda *xs: np.zeros_like(xs[0]),
    )


IMPLICIT_KINDS = [
    (SchemeKind.COMPACT_1D, 1),
    (SchemeKind.SECOND_ORDER, 1),
    (SchemeKind.NONUNIFORM_COMPACT, 1),
    (SchemeKind.COMPACT_ND, 1),
    (SchemeKind.COMPACT_2D_SUM, 2),
    (SchemeKind.COMPACT_ND, 2),
    (SchemeKind.SPLITTING, 2),
    (SchemeKind.COMPACT_3D_PROD_MASS, 3),
    (SchemeKind.COMPACT_ND, 3),
    (SchemeKind.SPLITTING, 3),
]


@pytest.mark.parametrize("kind,ndim", IMPLICIT_KINDS)
def test_zero_data_stays_zero(kind, ndim):
    problem = zero_problem(ndim)
    meshes = [build_uniform_axis(4 + i, 1.0) for i in range(ndim)]
    tmesh = build_time_mesh(6, 0.05)
    result = run(problem, SchemeConfig(kind=kind), meshes, tmesh, store_trajectory=True)
    assert result.stable
    for level in result.trajectory:
        assert np.max(np.abs(level)) == 0.0


def _solve_with_full_lift(scheme, rhs, t):
    """solve_step with the boundary lift always applied: the step operator of
    the trace taken off the right-hand side, then the zero-trace solve of a
    copy of the scheme whose problem has no boundary data."""
    out = np.zeros(tuple(m.nodes.size for m in scheme.meshes))
    scheme.boundary_values(out, t)
    interior = tuple(slice(1, -1) for _ in scheme.meshes)
    untraced = dataclasses.replace(scheme.problem, exact=None, g=None)
    homogeneous = assemble(untraced, scheme.config, scheme.meshes, scheme.tmesh)
    lifted = rhs - scheme.apply_step_operator_interior(out)
    out[interior] = homogeneous.solve_step(lifted, t)[interior]
    return out


@pytest.mark.parametrize("kind,ndim", IMPLICIT_KINDS)
def test_zero_trace_shortcut_equals_full_lift_bitwise(kind, ndim):
    rng = np.random.default_rng(ndim)
    meshes = [build_uniform_axis(4 + i, 1.0) for i in range(ndim)]
    tmesh = build_time_mesh(6, 0.05)
    rhs = rng.standard_normal(tuple(m.nodes.size - 2 for m in meshes))
    traced = dataclasses.replace(
        zero_problem(ndim), exact=lambda *args: np.cos(args[0]) + args[-1]
    )
    for problem, zero_trace in ((zero_problem(ndim), True), (traced, False)):
        scheme = assemble(problem, SchemeConfig(kind=kind), meshes, tmesh)
        got = scheme.solve_step(rhs, 0.1)
        full = _solve_with_full_lift(scheme, rhs, 0.1)
        if zero_trace or (ndim > 1 and kind != SchemeKind.SPLITTING):
            # the spectral solves lift the trace exactly as the reference does
            assert np.array_equal(got, full)
        else:
            # the factored solves fold the trace in axis by axis
            np.testing.assert_allclose(got, full, rtol=1e-12, atol=1e-12)
        assert (np.count_nonzero(got) == rhs.size) == zero_trace


def test_kind_dimension_compatibility():
    problem = zero_problem(2)
    meshes = [build_uniform_axis(4, 1.0), build_uniform_axis(4, 1.0)]
    tmesh = build_time_mesh(4, 0.1)
    with pytest.raises(ValueError):
        assemble(problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), meshes, tmesh)
    with pytest.raises(ValueError):
        assemble(zero_problem(1), SchemeConfig(kind=SchemeKind.SPLITTING),
                 [build_uniform_axis(4, 1.0)], tmesh)


def test_compact1d_explicit_on_characteristic_step():
    # h_t = h/a collapses the step operator to the identity
    problem = zero_problem(1)
    axis = build_uniform_axis(8, 1.0)
    h_t = axis.h / 1.0
    tmesh = build_time_mesh(int(round(1.0 / h_t)), 1.0)
    scheme = assemble(problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [axis], tmesh)
    rng = np.random.default_rng(0)
    values = rng.standard_normal(9)
    assert np.allclose(scheme.apply_step_operator_interior(values), values[1:-1], atol=1e-14)


def test_first_step_fourth_order():
    problem = make_smooth_nonuniform_problem()
    errors = {}
    for n in (40, 80):
        axis = build_uniform_axis(n, 1.0, -0.5)
        tmesh = build_time_mesh(n, 1.0)
        scheme = assemble(problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [axis], tmesh)
        v1 = scheme.first_step(scheme.initial_level())
        errors[n] = np.max(np.abs(problem.exact(axis.nodes, tmesh.h_t) - v1))
    assert errors[40] / errors[80] > 12.0


def test_smooth_run_fourth_order_halving():
    problem = make_smooth_nonuniform_problem()
    errors = {}
    for n in (50, 100):
        axis = build_uniform_axis(n, 1.0, -0.5)
        tmesh = build_time_mesh(n, 1.0)
        err = 0.0

        def watch(level, t, v):
            nonlocal err
            err = max(err, float(np.max(np.abs(problem.exact(axis.nodes, t) - v))))

        run(problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [axis], tmesh, observer=watch)
        errors[n] = err
    ratio = errors[50] / errors[100]
    assert 11.0 < ratio < 22.0


def test_boundary_values_imposed():
    problem = make_example(1.5)
    axis = build_uniform_axis(50, 1.0, -0.5)
    tmesh = build_time_mesh(50, 1.0)
    result = run(
        problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [axis], tmesh, store_trajectory=True
    )
    g0, g1 = problem.g
    for level, v in enumerate(result.trajectory[1:], start=1):
        t = tmesh.nodes[level]
        assert v[0] == pytest.approx(float(g0(t)), abs=1e-14)
        assert v[-1] == pytest.approx(float(g1(t)), abs=1e-14)


def test_modal_decoupling_2d():
    problem = make_sine_mode_problem((1.0, 1.3), (1.0, 0.8), (2, 1))
    meshes = [build_uniform_axis(10, 1.0), build_uniform_axis(8, 0.8)]
    tmesh = build_time_mesh(30, 1.0)
    for kind in (SchemeKind.COMPACT_2D_SUM, SchemeKind.COMPACT_ND, SchemeKind.SPLITTING):
        result = run(problem, SchemeConfig(kind=kind), meshes, tmesh, store_trajectory=True)
        assert result.stable
        amp0 = None
        for v in result.trajectory:
            coeffs = sine_coefficients(v[1:-1, 1:-1])
            on_mode = abs(coeffs[1, 0])
            off = np.abs(coeffs).sum() - on_mode
            if amp0 is None:
                amp0 = on_mode
            assert off < 1e-11 * max(1.0, on_mode)
            assert on_mode <= 1.5 * amp0


def test_reversibility():
    problem = make_sine_mode_problem((1.0,), (1.0,), (3,), amplitude=0.7)
    axis = build_uniform_axis(16, 1.0)
    tmesh = build_time_mesh(12, 0.4)
    scheme = assemble(problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [axis], tmesh)
    result = scheme.run(store_trajectory=True)
    traj = result.trajectory
    # walk the three-level recursion backwards: solve for the older level
    v_next, v_curr = traj[-1], traj[-2]
    for level in range(len(traj) - 2, 0, -1):
        v_prev = scheme.time_step(v_next, v_curr, level)
        v_next, v_curr = v_curr, v_prev
    assert np.max(np.abs(v_curr - traj[0])) < 1e-10


def test_compact2d_variants_differ_at_fourth_order():
    problem = make_sine_mode_problem((1.0, 1.1), (1.0, 0.9), (1, 2))
    diffs = {}
    for n in (8, 16):
        meshes = [build_uniform_axis(n, 1.0), build_uniform_axis(n, 0.9)]
        tmesh = build_time_mesh(4 * n, 1.0)
        r1 = run(problem, SchemeConfig(kind=SchemeKind.COMPACT_2D_SUM), meshes, tmesh)
        r2 = run(problem, SchemeConfig(kind=SchemeKind.COMPACT_ND), meshes, tmesh)
        diffs[n] = np.max(np.abs(r1.v_last - r2.v_last))
    ratio = diffs[8] / diffs[16]
    assert ratio > 10.0  # the two mass operators differ by a 4th-order term


def test_splitting_step_matches_unsplit_solve():
    rng = np.random.default_rng(1)
    meshes = [build_uniform_axis(7, 1.0), build_uniform_axis(6, 1.2)]
    speeds = (1.0, 0.8)
    h_t = 0.05
    factors = [step_factor(m, h_t, speeds[i], i) for i, m in enumerate(meshes)]
    from compactwave.solvers import SplittingHandle

    handle = SplittingHandle(factors)

    def unsplit_apply(interior):
        full = np.zeros((8, 7))
        full[1:-1, 1:-1] = interior
        gf = GridFunction(tuple(meshes), full)
        out = (
            product_average(gf).values
            + h_t**2 / 12.0 * stiffness_product(gf, speeds).values
            + splitting_residual(gf, speeds, h_t).values
        )
        return out[1:-1, 1:-1]

    dense = assemble_dense_operator(unsplit_apply, (6, 5))
    rhs = rng.standard_normal((6, 5))
    expected = dense_solve_oracle(dense, rhs.reshape(-1)).reshape(6, 5)
    got = handle.solve(rhs)
    assert np.max(np.abs(got - expected)) < 1e-11


def test_splitting_trajectory_close_to_unsplit_scheme():
    # the factorized step differs from the tensor-mass scheme only through
    # the 4th-order residual; trajectories stay within O(h_t^4)
    problem = make_sine_mode_problem((1.0, 1.2), (1.0, 0.8), (1, 1))
    meshes = [build_uniform_axis(10, 1.0), build_uniform_axis(8, 0.8)]
    diffs = {}
    for m_steps in (20, 40):
        tmesh = build_time_mesh(m_steps, 0.5)
        r_split = run(problem, SchemeConfig(kind=SchemeKind.SPLITTING), meshes, tmesh)
        r_full = run(problem, SchemeConfig(kind=SchemeKind.COMPACT_ND), meshes, tmesh)
        diffs[m_steps] = np.max(np.abs(r_split.v_last - r_full.v_last))
    assert diffs[20] / diffs[40] > 10.0


def test_graded_identity_layout_matches_uniform_scheme():
    problem = make_smooth_nonuniform_problem()
    n = 64
    uniform = build_uniform_axis(n, 1.0, -0.5)
    graded = build_graded_axis(NODE_DISTRIBUTIONS["phi0"], n, 1.0, -0.5)
    m = select_time_step_count(mesh_stats(uniform).h_min, problem.speeds[0], 1.0)
    tmesh = build_time_mesh(m, 1.0)
    r_uniform = run(
        problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [uniform], tmesh, store_trajectory=True
    )
    r_graded = run_nonuniform(problem, graded, tmesh, store_trajectory=True)
    for v_u, v_g in zip(r_uniform.trajectory, r_graded.trajectory):
        assert np.max(np.abs(v_u - v_g)) < 1e-12


def test_graded_power_mesh_fourth_order():
    problem = make_smooth_nonuniform_problem()
    phi = NODE_DISTRIBUTIONS["phi3"]
    errors = {}
    for n in (100, 200, 400):
        axis = build_graded_axis(phi, n, 1.0, -0.5)
        m = select_time_step_count(mesh_stats(axis).h_min, problem.speeds[0], 1.0)
        tmesh = build_time_mesh(m, 1.0)
        err = 0.0

        def watch(level, t, v):
            nonlocal err
            err = max(err, float(np.max(np.abs(problem.exact(axis.nodes, t) - v))))

        run_nonuniform(problem, axis, tmesh, observer=watch)
        errors[n] = err
    slope = -np.polyfit(np.log10(list(errors)), np.log10(list(errors.values())), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.2)


def test_halved_step_rule_blows_up():
    problem = make_smooth_nonuniform_problem()
    axis = build_uniform_axis(800, 1.0, -0.5)
    m = select_time_step_count(
        mesh_stats(axis).h_min, problem.speeds[0], 1.0, 1.0 / math.sqrt(2.0)
    )
    tmesh = build_time_mesh(m, 1.0)
    result = run(problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [axis], tmesh)
    assert result.blew_up
    assert not result.stable


def test_second_order_scheme_runs_state():
    problem = make_example(1.5)
    axis = build_uniform_axis(100, 1.0, -0.5)
    tmesh = build_time_mesh(100, 1.0)
    err = 0.0

    def watch(level, t, v):
        nonlocal err
        err = max(err, float(np.max(np.abs(problem.exact(axis.nodes, t) - v))))

    result = run(
        problem,
        SchemeConfig(kind=SchemeKind.SECOND_ORDER, sigma=0.5),
        [axis],
        tmesh,
        observer=watch,
    )
    assert result.stable
    assert 0.0 < err < 0.2


def test_second_order_smooth_forcing_second_order_halving():
    # the 2nd-order scheme with a smooth forcing table (sqrt(2) step rule)
    problem = make_smooth_nonuniform_problem()
    errors = {}
    for n in (40, 80):
        axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
        m = select_time_step_count(
            mesh_stats(axis).h_min, problem.speeds[0], problem.horizon, math.sqrt(2.0)
        )
        tmesh = build_time_mesh(m, problem.horizon)
        obs = ErrorObserver(problem.exact, axis, tmesh)
        run(problem, SchemeConfig(kind=SchemeKind.SECOND_ORDER), [axis], tmesh, observer=obs)
        errors[n] = obs.result().Ch
    assert 3.5 < errors[40] / errors[80] < 4.5


def test_operator_pair_mapping():
    assert operator_pair(SchemeKind.COMPACT_1D, 1) == "prod_stiffprod"
    assert operator_pair(SchemeKind.COMPACT_2D_SUM, 2) == "sum_stiffsum"
    assert operator_pair(SchemeKind.COMPACT_3D_PROD_MASS, 3) == "prod_stiffsum"
    assert operator_pair(SchemeKind.SPLITTING, 2) == "prod_residual_stiffprod"
    assert operator_pair(SchemeKind.SECOND_ORDER, 1) is None


# ---------------------------------------------------------------------------
# explicit scheme on the characteristic mesh


def test_characteristic_exactness_weak_data():
    problem = make_example(1.5)
    result, axis, tmesh = run_explicit_characteristic(problem, 20, 10, store_trajectory=True)
    err = max(
        float(np.max(np.abs(problem.exact(axis.nodes, tmesh.nodes[m]) - v)))
        for m, v in enumerate(result.trajectory)
    )
    assert err < 1e-13


def test_characteristic_dalembert_sine():
    problem = make_sine_mode_problem((1.0,), (1.0,), (2,))
    result, axis, tmesh = run_explicit_characteristic(problem, 32, 16, store_trajectory=True)
    a = 1.0
    for m, v in enumerate(result.trajectory):
        t = tmesh.nodes[m]
        expected = 0.5 * (
            np.sin(2 * np.pi * (axis.nodes - a * t)) + np.sin(2 * np.pi * (axis.nodes + a * t))
        )
        assert np.max(np.abs(v - expected)) < 1e-12


def test_characteristic_summed_formula_equals_recursion():
    # whole-line check of the closed-form solution of the 4-point recursion
    rng = np.random.default_rng(2)
    m_max = 6
    n = 30
    pad = m_max + 1
    size = n + 2 * pad
    h_t = 0.17
    v0 = rng.standard_normal(size)
    u1 = rng.standard_normal(size)
    forcing = rng.standard_normal((m_max, size))

    levels = [v0.copy()]
    v1 = np.zeros(size)
    v1[1:-1] = 0.5 * (v0[:-2] + v0[2:]) + h_t * u1[1:-1] + 0.5 * h_t**2 * forcing[0][1:-1]
    levels.append(v1)
    for m in range(1, m_max):
        nxt = np.zeros(size)
        nxt[1:-1] = levels[-1][:-2] + levels[-1][2:] - levels[-2][1:-1] + h_t**2 * forcing[m][1:-1]
        levels.append(nxt)

    def stencil_indices(k, j):
        return range(k - j + 1, k + j, 2)

    for m in range(1, m_max + 1):
        for k in range(pad + 2, pad + n - 2):
            value = 0.5 * (v0[k - m] + v0[k + m])
            for l in stencil_indices(k, m):
                value += h_t * u1[l] + 0.5 * h_t**2 * forcing[0][l]
            for p in range(1, m):
                for l in stencil_indices(k, m - p):
                    value += h_t**2 * forcing[p][l]
            assert value == pytest.approx(levels[m][k], rel=1e-12, abs=1e-12)


def test_characteristic_rejects_smooth_forcing():
    problem = make_smooth_nonuniform_problem()
    with pytest.raises(ValueError):
        run_explicit_characteristic(problem, 10, 5)


def _horizon_steps(problem, n):
    """Last characteristic-mesh level inside the horizon: floor(N a T / X)."""
    return math.floor(n * problem.speeds[0] * problem.horizon / problem.extents[0])


@pytest.mark.parametrize("n", [20, 40, 41, 200])
@pytest.mark.parametrize("alpha", EXAMPLE_ALPHAS)
def test_characteristic_exact_on_catalog(alpha, n):
    # odd N puts the data breakpoints between nodes, so the footprints of the
    # nodes next to them get their own crossing times
    problem = make_example(alpha)
    m = _horizon_steps(problem, n)
    axis, tmesh = characteristic_meshes(problem, n, m)
    obs = ErrorObserver(problem.exact, axis, tmesh)
    result, _, _ = run_explicit_characteristic(problem, n, m, observer=obs)
    assert result.stable
    assert obs.result().Ch <= 1e-12


@pytest.mark.parametrize("n", [20, 40])
def test_characteristic_atom_on_footprint_corners(n):
    # with a = 1 the switch-on time t_* = 0.4 is a mesh level and the Dirac
    # atom at (0, t_*) sits on footprint corners and edges; the run stops
    # before the initial-velocity front reaches the boundary at t = 0.5
    problem = make_example(0.5, horizon=0.8, a=1.0)
    m = n // 2 - 1
    result, axis, tmesh = run_explicit_characteristic(problem, n, m, store_trajectory=True)
    err = max(
        float(np.max(np.abs(problem.exact(axis.nodes, tmesh.nodes[k]) - v)))
        for k, v in enumerate(result.trajectory)
    )
    assert err <= 1e-12


# scalar oracle of the cell averages: one node, one term at a time


def _oracle_atom_weight(gap):
    return 1.0 if gap > 1e-14 else (0.5 if gap >= -1e-14 else 0.0)


def _oracle_slice_integral(space, x_k, halfwidth):
    """Integral of the spatial profile over (x_k - w, x_k + w)."""
    if isinstance(space, SpaceDirac):
        return _oracle_atom_weight(halfwidth - abs(x_k - space.location))
    if halfwidth <= 0.0:
        return 0.0
    return float(space.antideriv(x_k + halfwidth) - space.antideriv(x_k - halfwidth))


def _oracle_cell_average(term, x_k, t_center, t_lo, t_hi, h, h_t):
    space, time = term.space, term.time
    width = lambda t: h * (1.0 - abs(t - t_center) / h_t)
    if isinstance(time, TimeDirac):
        weight = _oracle_atom_weight(min(time.t_star - t_lo, t_hi - time.t_star))
        value = _oracle_slice_integral(space, x_k, width(time.t_star))
        if isinstance(space, SpaceDirac) and t_lo < t_center < t_hi and abs(time.t_star - t_center) < 1e-14:
            value = 1.0 if value == 1.0 else 0.5 * value
        return term.coef * weight * value
    pts = {t_lo, t_hi}
    if t_lo < t_center < t_hi:
        pts.add(t_center)
    if t_lo < time.t_star < t_hi:
        pts.add(time.t_star)
    # levels where a slice endpoint meets the atom or the breakpoint
    d = abs(x_k - (space.location if isinstance(space, SpaceDirac) else space.breakpoint))
    if d < h:
        for s in (-1.0, 1.0):
            t_cross = t_center + s * h_t * (1.0 - d / h)
            if t_lo < t_cross < t_hi:
                pts.add(t_cross)
    gl_x, gl_w = np.polynomial.legendre.leggauss(6)
    total = 0.0
    levels = sorted(pts)
    for lo, hi in zip(levels[:-1], levels[1:]):
        half = 0.5 * (hi - lo)
        t = 0.5 * (hi + lo) + half * gl_x
        vals = np.array([
            _oracle_slice_integral(space, x_k, width(tt)) if width(tt) > 0 else 0.0 for tt in t
        ])
        total += half * float(np.sum(gl_w * time.eval(t) * vals))
    return term.coef * total


def _oracle_forcing_level(f_data, nodes, level, h, h_t):
    t_m = level * h_t
    out = np.zeros(nodes.size - 2)
    for k in range(1, nodes.size - 1):
        if level == 0:
            cells = [_oracle_cell_average(term, nodes[k], 0.0, 0.0, h_t, h, h_t) for term in f_data]
            out[k - 1] = sum(cells) / (h * h_t)
        else:
            cells = [
                _oracle_cell_average(term, nodes[k], t_m, t_m - h_t, t_m + h_t, h, h_t)
                for term in f_data
            ]
            out[k - 1] = sum(cells) / (2.0 * h * h_t)
    return out


_ORACLE_PROBLEMS = [make_example(alpha) for alpha in EXAMPLE_ALPHAS] + [
    make_example(0.5, horizon=0.8, a=1.0)
]


@pytest.mark.parametrize("n", [40, 41])
@pytest.mark.parametrize("problem", _ORACLE_PROBLEMS, ids=lambda p: f"{p.name}-a{p.speeds[0]:.3f}")
def test_characteristic_forcing_matches_scalar_oracle(problem, n):
    # every level of the run, from the first half level through the levels
    # before t_* to the horizon
    axis, _ = characteristic_meshes(problem, n, 1)
    h = axis.h
    h_t = h / problem.speeds[0]
    for level in range(_horizon_steps(problem, n)):
        got = _char_forcing_level(problem.f_data, axis.nodes, level, h, h_t)
        want = _oracle_forcing_level(problem.f_data, axis.nodes, level, h, h_t)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("shift", [-0.3, 0.4])
def test_characteristic_forcing_switched_on_near_start_matches_scalar_oracle(shift):
    # t_* = shift * h_t: the forcing is on over (part of) the level-0
    # triangle, and before t = 0 when shift < 0, where the crossing times
    # of the nodes next to the breakpoint (odd N) fall outside the triangle
    problem = make_example(2.5)
    n = 41
    axis, _ = characteristic_meshes(problem, n, 1)
    h = axis.h
    h_t = h / problem.speeds[0]
    t_star = shift * h_t
    terms = [
        SeparableTerm(1.0, space, QPiece(degree, t_star))
        for space in (PPiece(0), PPiece(1), PPiece(3), SpaceDirac(0.0))
        for degree in (0, 1, 2)
    ]
    for level in range(3):
        got = _char_forcing_level(terms, axis.nodes, level, h, h_t)
        want = _oracle_forcing_level(terms, axis.nodes, level, h, h_t)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))


def test_characteristic_velocity_quadrature_matches_scalar_oracle():
    problem = make_smooth_nonuniform_problem()
    axis, _ = characteristic_meshes(problem, 30, 1)
    nodes, h = axis.nodes, axis.h
    gl_x, gl_w = np.polynomial.legendre.leggauss(6)
    want = np.zeros(nodes.size)
    for k in range(1, nodes.size - 1):
        val = 0.0
        for lo, hi in ((nodes[k - 1], nodes[k]), (nodes[k], nodes[k + 1])):
            half = 0.5 * (hi - lo)
            val += half * float(np.sum(gl_w * problem.u1_fn(0.5 * (hi + lo) + half * gl_x)))
        want[k] = val / (2.0 * h)
    got = _char_velocity_table(problem, nodes, h)
    assert np.max(np.abs(got - want)) <= 1e-13 * float(np.max(np.abs(want)))

