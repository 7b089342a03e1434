import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from compactwave import schemes
from compactwave.mesh import (
    NODE_DISTRIBUTIONS,
    MeshError,
    TimeMesh,
    build_graded_axis,
    build_time_mesh,
    build_uniform_axis,
    mesh_stats,
    select_time_step_count,
)
from compactwave.operators import (
    PiecewiseData,
    PPiece,
    QPiece,
    SeparableTerm,
    SpaceDirac,
    TimeDirac,
    _dalembert_forcing_part,
    initial_velocity,
    pair_appliers,
    step_factor,
)
from compactwave.analysis import ErrorObserver, ErrorTriple, fit_order, run_errors
from compactwave.problems import (
    EXAMPLE_ALPHAS,
    ProblemSpec,
    make_example,
    make_sine_mode_problem,
    make_smooth_nonuniform_problem,
)
from compactwave.schemes import (
    Scheme,
    SchemeKind,
    _char_forcing,
    _char_velocity_table,
    _march,
    characteristic_meshes,
    operator_pair,
    run_explicit_characteristic,
    step_count,
)
from compactwave.solvers import sine_coefficients, sine_spectrum
from compactwave.stability import check_cfl, verify_energy_bound
from oracles import assemble_dense_operator, char_forcing_per_level, dense_solve_oracle


def zero_problem(n):
    return ProblemSpec(
        name="zero",
        speeds=tuple([1.0] * n),
        origin=tuple([0.0] * n),
        extents=tuple([1.0] * n),
        horizon=1.0,
        u0=lambda *xs: np.zeros_like(xs[0]),
    )


def collect(levels):
    """Observer appending the values of every level it is shown to `levels`."""
    return lambda level, t, values: levels.append(values)


IMPLICIT_KINDS = [
    (SchemeKind.COMPACT_1D, 1),
    (SchemeKind.SECOND_ORDER, 1),
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
    levels = []
    result = Scheme(problem, kind, meshes, tmesh).run(collect(levels))
    assert result.stable
    for level in levels:
        assert np.max(np.abs(level)) == 0.0


def _solve_with_full_lift(scheme, rhs, t):
    """solve_step with the boundary lift always applied: the step operator of
    the trace taken off the right-hand side, then the zero-trace solve of a
    copy of the scheme whose problem has no boundary data."""
    out = np.zeros(tuple(m.nodes.size for m in scheme.meshes))
    scheme.boundary_values(out, t)
    interior = tuple(slice(1, -1) for _ in scheme.meshes)
    untraced = dataclasses.replace(scheme.problem, exact=None, g=None)
    homogeneous = Scheme(untraced, scheme.kind, scheme.meshes, scheme.tmesh)
    lifted = rhs - scheme.apply_step_operator_interior(out)
    out[interior] = homogeneous.solve_step(lifted, t, np.zeros(out.shape))[interior]
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
        scheme = Scheme(problem, kind, meshes, tmesh)
        got = scheme.solve_step(rhs, 0.1, np.zeros(tuple(m.nodes.size for m in meshes)))
        full = _solve_with_full_lift(scheme, rhs, 0.1)
        # every handle lifts the trace from its rows next to the faces, which
        # give the full apply's values: the nD handles by their face maps,
        # the 1D stack by its couplings to the two boundary nodes
        assert np.array_equal(got, full)
        assert (np.count_nonzero(got) == rhs.size) == zero_trace


@pytest.mark.parametrize("kind,ndim", IMPLICIT_KINDS)
def test_untraced_run_from_nonzero_faces_matches_the_whole_array_recursion(kind, ndim):
    # a problem without a trace whose u0 is nonzero on the faces: the
    # increment steps equal the recursion that applies S to the whole level,
    # S v^1 = S v^0 + h_t (u1n + (h_t/2)(f^0 - A v^0)) and
    # S v^{m+1} = S (2 v^m - v^{m-1}) + h_t^2 (f^m - A v^m), zero faces
    problem = dataclasses.replace(zero_problem(ndim), u0=lambda *xs: 1.0 + np.prod(xs, axis=0))
    meshes = [build_uniform_axis(4 + i, 1.0) for i in range(ndim)]
    scheme = Scheme(problem, kind, meshes, build_time_mesh(6, 0.05))
    levels = []
    assert scheme.run(collect(levels)).stable
    shape, h_t = levels[0].shape, scheme.h_t
    zero = np.zeros(shape)
    S, A = scheme.apply_step_operator_interior, scheme.apply_a_interior
    want = [levels[0]]
    for m in range(scheme.tmesh.n_steps):
        fn = scheme.fn_table(m)
        if m == 0:
            rhs = S(want[0]) + h_t * (scheme.u1n + 0.5 * h_t * (fn - A(want[0])))
        else:
            rhs = S(2.0 * want[m] - want[m - 1]) + h_t**2 * (fn - A(want[m]))
        want.append(scheme.solve_step(rhs, scheme.tmesh.nodes[m + 1], zero))
    assert len(levels) == len(want)
    scale = max(np.max(np.abs(v)) for v in want)
    for got, ref in zip(levels, want):
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("given", [SchemeKind.COMPACT_1D, "compact1d", "nonuniform-compact"])
def test_a_scheme_is_built_from_its_kind(given):
    # a SchemeKind, its value or the graded-mesh alias, converted once
    axis, tmesh = build_uniform_axis(8, 1.0, -0.5), build_time_mesh(4, 0.1)
    scheme = Scheme(make_smooth_nonuniform_problem(), given, [axis], tmesh)
    assert scheme.kind is SchemeKind.COMPACT_1D
    assert not hasattr(scheme, "config")
    with pytest.raises(ValueError, match="compact9d"):
        Scheme(make_smooth_nonuniform_problem(), "compact9d", [axis], tmesh)


def test_kind_dimension_compatibility():
    problem = zero_problem(2)
    meshes = [build_uniform_axis(4, 1.0), build_uniform_axis(4, 1.0)]
    tmesh = build_time_mesh(4, 0.1)
    with pytest.raises(ValueError):
        Scheme(problem, SchemeKind.COMPACT_1D, meshes, tmesh)
    with pytest.raises(ValueError):
        Scheme(zero_problem(1), SchemeKind.SPLITTING, [build_uniform_axis(4, 1.0)], tmesh)


def test_compact1d_explicit_on_characteristic_step():
    # h_t = h/a collapses the step operator to the identity
    problem = zero_problem(1)
    axis = build_uniform_axis(8, 1.0)
    h_t = axis.h / 1.0
    tmesh = build_time_mesh(int(round(1.0 / h_t)), 1.0)
    scheme = Scheme(problem, SchemeKind.COMPACT_1D, [axis], tmesh)
    rng = np.random.default_rng(0)
    values = rng.standard_normal(9)
    assert np.allclose(scheme.apply_step_operator_interior(values), values[1:-1], atol=1e-14)


def test_compact1d_with_its_own_data_on_the_characteristic_mesh():
    # PAPER.md: on the characteristic mesh the 4th-order scheme "becomes
    # explicit and close to an exact four-point scheme".  How close, with
    # compact1d's own hat-average data: at a = 0.4, h_t = 2.5 h puts t_* = 0.5
    # on the time mesh (the catalog's a = 1/sqrt(5) never does), and
    # a T = 0.4 < X/2 keeps E_0.5's jump off the faces.  E_1.5 and E_3.5 are
    # exact to roundoff, E_4.5 and E_5.5 converge at order 4; E_2.5 (order 2)
    # and E_0.5 (no convergence) are reported, not asserted
    ns = (40, 80, 160, 320)
    report = []
    for alpha in EXAMPLE_ALPHAS:
        problem = make_example(alpha, a=0.4)
        ch = []
        for n in ns:
            axis, tmesh = characteristic_meshes(problem, n, math.floor(0.4 * n))
            scheme = Scheme(problem, SchemeKind.COMPACT_1D, [axis], tmesh)
            obs = ErrorObserver(problem.exact, axis, tmesh)
            assert not scheme.run(obs).blew_up
            ch.append(obs.result().Ch)
        order = fit_order(list(zip(ns, ch))).gamma
        report.append(f"E_{alpha}: Ch {ch[0]:.2e} -> {ch[-1]:.2e}, fitted order {order:.2f}")
        if alpha in (1.5, 3.5):
            assert max(ch) <= 1e-11, (alpha, ch)
        elif alpha in (4.5, 5.5):
            assert order >= 3.9, (alpha, ch)
    # the highest sine mode at h_t = h/a, where the step condition holds with
    # eps0 = 0: its two roots exp(+-i phi), cos phi = 1 - h_t^2 mu_A / (2 mu_S)
    # with mu_S = mu_B + h_t^2 mu_A / 12, lie a gap pi - phi ~ pi/N from a
    # double root at -1, and a first-step increment in that mode grows by up
    # to 1/sin phi ~ N/pi over the run
    mu_b, mu_a = scheme.spectra
    h_t = tmesh.h_t
    cos_phi = 1.0 - h_t**2 * mu_a[-1] / (2.0 * (mu_b[-1] + h_t**2 * mu_a[-1] / 12.0))
    phi = math.acos(cos_phi)
    report.append(
        f"highest mode at N = {ns[-1]}: pi - phi = {math.pi - phi:.3e}, "
        f"growth 1/sin phi = {1.0 / math.sin(phi):.1f}"
    )
    print("\n".join(report))


def test_first_step_fourth_order():
    problem = make_smooth_nonuniform_problem()
    errors = {}
    for n in (40, 80):
        axis = build_uniform_axis(n, 1.0, -0.5)
        tmesh = build_time_mesh(n, 1.0)
        scheme = Scheme(problem, SchemeKind.COMPACT_1D, [axis], tmesh)
        v1 = scheme.first_step(scheme.initial_level(), scheme.u1n, scheme.fn_table(0))
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

        Scheme(problem, SchemeKind.COMPACT_1D, [axis], tmesh).run(watch)
        errors[n] = err
    ratio = errors[50] / errors[100]
    assert 11.0 < ratio < 22.0


def test_boundary_values_imposed():
    problem = make_example(1.5)
    axis = build_uniform_axis(50, 1.0, -0.5)
    tmesh = build_time_mesh(50, 1.0)
    levels = []
    Scheme(problem, SchemeKind.COMPACT_1D, [axis], tmesh).run(collect(levels))
    g0, g1 = problem.g
    for level, v in enumerate(levels[1:], start=1):
        t = tmesh.nodes[level]
        assert v[0] == pytest.approx(float(g0(t)), abs=1e-14)
        assert v[-1] == pytest.approx(float(g1(t)), abs=1e-14)


def test_modal_decoupling_2d():
    problem = make_sine_mode_problem((1.0, 1.3), (1.0, 0.8), (2, 1))
    meshes = [build_uniform_axis(10, 1.0), build_uniform_axis(8, 0.8)]
    tmesh = build_time_mesh(30, 1.0)
    for kind in (SchemeKind.COMPACT_2D_SUM, SchemeKind.COMPACT_ND, SchemeKind.SPLITTING):
        levels = []
        result = Scheme(problem, kind, meshes, tmesh).run(collect(levels))
        assert result.stable
        amp0 = None
        for v in levels:
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
    scheme = Scheme(problem, SchemeKind.COMPACT_1D, [axis], tmesh)
    traj = []
    scheme.run(collect(traj))
    # walk the three-level recursion backwards: solve for the older level
    v_next, v_curr = traj[-1], traj[-2]
    for level in range(len(traj) - 2, 0, -1):
        v_prev = scheme.time_step(v_next, v_curr, level, scheme.fn_table(level))
        v_next, v_curr = v_curr, v_prev
    assert np.max(np.abs(v_curr - traj[0])) < 1e-10


def test_compact2d_variants_differ_at_fourth_order():
    problem = make_sine_mode_problem((1.0, 1.1), (1.0, 0.9), (1, 2))
    diffs = {}
    for n in (8, 16):
        meshes = [build_uniform_axis(n, 1.0), build_uniform_axis(n, 0.9)]
        tmesh = build_time_mesh(4 * n, 1.0)
        r1 = Scheme(problem, SchemeKind.COMPACT_2D_SUM, meshes, tmesh).run()
        r2 = Scheme(problem, SchemeKind.COMPACT_ND, meshes, tmesh).run()
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
    mass, stiffness = pair_appliers("prod_residual_stiffprod", meshes, speeds, h_t)

    def unsplit_apply(interior):
        full = np.zeros((8, 7))
        full[1:-1, 1:-1] = interior
        return mass(full) + h_t**2 / 12.0 * stiffness(full)

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
        r_split = Scheme(problem, SchemeKind.SPLITTING, meshes, tmesh).run()
        r_full = Scheme(problem, SchemeKind.COMPACT_ND, meshes, tmesh).run()
        diffs[m_steps] = np.max(np.abs(r_split.v_last - r_full.v_last))
    assert diffs[20] / diffs[40] > 10.0


def test_graded_identity_layout_matches_uniform_scheme():
    problem = make_smooth_nonuniform_problem()
    n = 64
    uniform = build_uniform_axis(n, 1.0, -0.5)
    graded = build_graded_axis(NODE_DISTRIBUTIONS["phi0"], n, 1.0, -0.5)
    tmesh = build_time_mesh(step_count(problem, uniform, SchemeKind.COMPACT_1D), 1.0)
    levels_uniform, levels_graded = [], []
    Scheme(problem, SchemeKind.COMPACT_1D, [uniform], tmesh).run(collect(levels_uniform))
    Scheme(problem, SchemeKind.COMPACT_1D, [graded], tmesh).run(collect(levels_graded))
    assert len(levels_uniform) == len(levels_graded) == tmesh.n_steps + 1
    for v_u, v_g in zip(levels_uniform, levels_graded):
        assert np.max(np.abs(v_u - v_g)) < 1e-12


@pytest.mark.parametrize("kind,ndim", IMPLICIT_KINDS)
def test_a_graded_axis_runs_the_factored_kinds_and_not_the_sine_basis(kind, ndim):
    # one graded axis is enough: the factored kinds march on it, while the
    # spectral kinds, the pair spectra and the stability checks stop at the
    # sine basis, which a graded axis lacks
    graded = build_graded_axis(NODE_DISTRIBUTIONS["phi3"], 8, 1.0, -0.5)
    meshes = [graded] + [build_uniform_axis(6, 1.0) for _ in range(ndim - 1)]
    tmesh = build_time_mesh(4, 0.1)
    if ndim > 1 and kind != SchemeKind.SPLITTING:
        with pytest.raises(MeshError, match="sine basis"):
            Scheme(zero_problem(ndim), kind, meshes, tmesh)
        return
    scheme = Scheme(zero_problem(ndim), kind, meshes, tmesh)
    levels = []
    assert scheme.run(collect(levels)).stable
    assert len(levels) == tmesh.n_steps + 1
    with pytest.raises(MeshError, match="sine basis"):
        scheme.spectra
    zeros = [np.zeros(tuple(m.n_intervals - 1 for m in meshes))] * tmesh.n_steps
    with pytest.raises(MeshError, match="sine basis"):
        verify_energy_bound(scheme, levels, zeros[0], zeros, 0.5)
    if scheme.pair is not None:
        with pytest.raises(MeshError, match="sine basis"):
            check_cfl(scheme.pair, meshes, scheme.speeds, scheme.h_t, 0.5)


def test_a_non_uniform_time_mesh_is_a_mesh_error():
    # TimeMesh.h_t holds the requirement; every scheme reads h_t at assembly
    tmesh = TimeMesh(np.array([0.0, 0.1, 0.3, 0.4]))
    for kind, ndim in IMPLICIT_KINDS:
        meshes = [build_uniform_axis(6, 1.0)] * ndim
        with pytest.raises(MeshError, match="time mesh is not uniform"):
            Scheme(zero_problem(ndim), kind, meshes, tmesh)


@pytest.mark.parametrize("dims,sizes", [(2, (10, 20, 40)), (3, (10, 20))])
def test_splitting_is_fourth_order_on_graded_axes(dims, sizes):
    # the max-norm error over all levels of the (2, 1, 3) sine mode to
    # T = 0.3 on phi3-graded axes, at the largest h_t <= h_min/2 dividing T
    speeds, extents = (1.0, 1.3, 0.8)[:dims], (1.0, 0.8, 1.2)[:dims]
    problem = dataclasses.replace(
        make_sine_mode_problem(speeds, extents, (2, 1, 3)[:dims]), horizon=0.3
    )
    errors = {}
    for n in sizes:
        meshes = [build_graded_axis(NODE_DISTRIBUTIONS["phi3"], n, x) for x in extents]
        h_min = min(mesh_stats(m).h_min for m in meshes)
        tmesh = build_time_mesh(math.ceil(problem.horizon / (h_min / 2)), problem.horizon)
        grids = np.meshgrid(*(m.nodes for m in meshes), indexing="ij")
        worst = [0.0]

        def watch(level, t, values):
            worst[0] = max(worst[0], float(np.max(np.abs(values - problem.exact(*grids, t)))))

        assert Scheme(problem, SchemeKind.SPLITTING, meshes, tmesh).run(watch).stable
        errors[n] = worst[0]
    slope = -np.polyfit(np.log(list(errors)), np.log(list(errors.values())), 1)[0]
    assert slope >= 3.8


def test_second_order_is_second_order_on_a_graded_axis():
    problem = make_smooth_nonuniform_problem()
    kind = SchemeKind.SECOND_ORDER
    errors = []
    for n in (40, 80, 160):
        axis = build_graded_axis(NODE_DISTRIBUTIONS["phi3"], n, 1.0, -0.5)
        [(_, triple)] = run_errors(problem, [kind], axis, step_count(problem, axis, kind))
        errors.append(triple.Ch)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.9)


def test_compactnd_in_1d_is_compact1d_on_a_graded_axis_bitwise():
    problem = make_smooth_nonuniform_problem()
    axis = build_graded_axis(NODE_DISTRIBUTIONS["phi3"], 40, 1.0, -0.5)
    tmesh = build_time_mesh(step_count(problem, axis, SchemeKind.COMPACT_1D), problem.horizon)
    built, levels = [], []
    for kind in (SchemeKind.COMPACT_1D, SchemeKind.COMPACT_ND):
        built.append(Scheme(problem, kind, [axis], tmesh))
        levels.append([])
        built[-1].run(collect(levels[-1]))
    assert built[0].pair == built[1].pair
    for part in ("lower", "diag", "upper"):
        rows = [getattr(scheme.step_factor, part).tobytes() for scheme in built]
        assert rows[0] == rows[1]
    assert len(levels[0]) == len(levels[1]) == tmesh.n_steps + 1
    for v_1d, v_nd in zip(*levels):
        assert v_1d.tobytes() == v_nd.tobytes()


def test_nonuniform_compact_is_an_alias_of_compact1d():
    assert SchemeKind("nonuniform-compact") is SchemeKind.COMPACT_1D
    assert "nonuniform-compact" not in {kind.value for kind in SchemeKind}


def test_graded_power_mesh_fourth_order():
    problem = make_smooth_nonuniform_problem()
    phi = NODE_DISTRIBUTIONS["phi3"]
    kind = SchemeKind.COMPACT_1D
    errors = {}
    for n in (100, 200, 400):
        axis = build_graded_axis(phi, n, 1.0, -0.5)
        [(_, triple)] = run_errors(problem, [kind], axis, step_count(problem, axis, kind))
        errors[n] = triple.Ch
    slope = -np.polyfit(np.log10(list(errors)), np.log10(list(errors.values())), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.2)


def test_halved_step_rule_blows_up():
    problem = make_smooth_nonuniform_problem()
    axis = build_uniform_axis(800, 1.0, -0.5)
    kind = SchemeKind.COMPACT_1D
    m = step_count(problem, axis, kind, 1.0 / math.sqrt(2.0))
    [(result, triple)] = run_errors(problem, [kind], axis, m)
    assert result.blew_up
    assert not result.stable
    assert triple == ErrorTriple(math.inf, math.inf, math.inf)


@pytest.mark.parametrize("kind", ["compact1d", "second-order", "compactnd"])
def test_step_count_is_the_practical_rule_on_one_axis(kind):
    # no switch-on time: floor(factor a T / h_min), bit for bit
    problem = make_smooth_nonuniform_problem()
    for phi in ("phi0", "phi3", "phi6"):
        for n in (50, 400, 1000):
            axis = build_graded_axis(NODE_DISTRIBUTIONS[phi], n, 1.0, -0.5)
            h_min = mesh_stats(axis).h_min
            for factor in (math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.3):
                rule = select_time_step_count(h_min, problem.speeds[0], problem.horizon, factor)
                assert step_count(problem, axis, kind, factor) == rule


def test_step_count_gives_m_equal_n_for_every_example():
    # the switch-on time t_* = T/2 rounds the rule up to a multiple of N:
    # N itself on the example's uniform axis at the default factor
    for alpha in EXAMPLE_ALPHAS:
        problem = make_example(alpha)
        for n in (2, 20, 200, 400, 800, 1000, 1600, 3200):
            axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
            for kind in ("compact1d", "second-order"):
                assert step_count(problem, axis, kind) == n
        graded = build_graded_axis(NODE_DISTRIBUTIONS["phi3"], 400, 1.0, -0.5)
        assert step_count(problem, graded, "compact1d") == 5200
        assert step_count(problem, graded, "compact1d", 0.1) == 400


def test_step_count_of_the_characteristic_kind_is_the_last_level_inside_the_horizon():
    for alpha in EXAMPLE_ALPHAS:
        problem = make_example(alpha)
        for n in (20, 40, 41, 200, 1000):
            axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
            m = step_count(problem, axis, SchemeKind.EXPLICIT_CHARACTERISTIC)
            assert m == _horizon_steps(problem, n)
            # the factor does not enter: h_t = h/a is fixed
            assert step_count(problem, axis, "characteristic", 0.3) == m
    with pytest.raises(MeshError, match="single time step"):
        step_count(make_example(1.5), build_uniform_axis(2, 1.0, -0.5), "characteristic")


def test_second_order_scheme_runs_state():
    problem = make_example(1.5)
    axis = build_uniform_axis(100, 1.0, -0.5)
    kind = SchemeKind.SECOND_ORDER
    m = step_count(problem, axis, kind)
    assert m == 100
    [(result, triple)] = run_errors(problem, [kind], axis, m)
    assert result.stable
    assert 0.0 < triple.Ch < 0.2


def test_second_order_smooth_forcing_second_order_halving():
    # the 2nd-order scheme with a smooth forcing table (sqrt(2) step rule)
    problem = make_smooth_nonuniform_problem()
    errors = {}
    kind = SchemeKind.SECOND_ORDER
    for n in (40, 80):
        axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
        [(_, triple)] = run_errors(problem, [kind], axis, step_count(problem, axis, kind))
        errors[n] = triple.Ch
    assert 3.5 < errors[40] / errors[80] < 4.5


def test_operator_pair_mapping():
    assert operator_pair(SchemeKind.COMPACT_1D, 1) == "prod_stiffprod"
    assert operator_pair(SchemeKind.COMPACT_2D_SUM, 2) == "sum_stiffsum"
    assert operator_pair(SchemeKind.COMPACT_3D_PROD_MASS, 3) == "prod_stiffsum"
    assert operator_pair(SchemeKind.SPLITTING, 2) == "prod_residual_stiffprod"
    assert operator_pair(SchemeKind.SECOND_ORDER, 1) is None
    # a dimension the kind does not run in has no pair
    for kind, ndim in [
        (SchemeKind.COMPACT_1D, 2),
        (SchemeKind.COMPACT_2D_SUM, 3),
        (SchemeKind.COMPACT_3D_PROD_MASS, 2),
        (SchemeKind.SPLITTING, 1),
        (SchemeKind.SECOND_ORDER, 2),
        (SchemeKind.EXPLICIT_CHARACTERISTIC, 3),
    ]:
        with pytest.raises(ValueError, match=f"does not support dimension {ndim}"):
            operator_pair(kind, ndim)


def test_second_order_spectra_are_the_identity_mass_and_the_stiffness():
    # second-order's B is the identity; its A is -a^2 Lambda
    problem = make_smooth_nonuniform_problem()
    axis = build_uniform_axis(40, problem.extents[0], problem.origin[0])
    scheme = Scheme(problem, SchemeKind.SECOND_ORDER, [axis], build_time_mesh(40, 1.0))
    mu_b, mu_a = scheme.spectra
    assert mu_b.shape == mu_a.shape == (39,)
    assert np.all(mu_b == 1.0)
    assert np.max(np.abs(mu_a - problem.speeds[0] ** 2 * sine_spectrum(axis))) <= 1e-12 * mu_a.max()


# kind: (dimensions, dimensions on graded axes), as the README's sentence on
# scheme names gives them
README_KIND_SUPPORT = {
    "compact1d": ((1,), (1,)),
    "compact2d": ((2,), ()),
    "compact3d": ((3,), ()),
    "compactnd": ((1, 2, 3), (1,)),
    "splitting": ((2, 3), (2, 3)),
    "characteristic": ((1,), ()),
    "second-order": ((1,), (1,)),
}


def test_every_kind_runs_where_the_readme_says():
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    for name, (dims, graded) in README_KIND_SUPPORT.items():
        where = ", ".join(f"{d}D" for d in dims)
        if graded == dims:
            where += ", uniform or graded axes"
        elif graded:
            where += "; graded axes in " + ", ".join(f"{d}D" for d in graded)
        assert f"`{name}` ({where})" in readme
    tmesh = build_time_mesh(2, 0.01)
    for kind in SchemeKind:
        dims, graded = README_KIND_SUPPORT[kind.value]
        for ndim in (1, 2, 3):
            problem = zero_problem(ndim)
            if kind == SchemeKind.EXPLICIT_CHARACTERISTIC:
                # it builds its own axis, uniform on the problem's interval
                try:
                    run_explicit_characteristic(problem, 4, 2)
                    ran = True
                except ValueError:
                    ran = False
                assert ran == (ndim in dims), (kind, ndim)
                continue
            for layout in ("uniform", "graded"):
                meshes = [
                    build_uniform_axis(6, 1.0) if layout == "uniform"
                    else build_graded_axis(NODE_DISTRIBUTIONS["phi3"], 6, 1.0)
                    for _ in range(ndim)
                ]
                try:
                    Scheme(problem, kind, meshes, tmesh)
                    ran = True
                except (ValueError, MeshError):
                    ran = False
                assert ran == (ndim in (dims if layout == "uniform" else graded)), (kind, ndim, layout)


# ---------------------------------------------------------------------------
# explicit scheme on the characteristic mesh


def _characteristic_errors(problem, n, m):
    """The run and error triple of the characteristic kind at N = n, M = m."""
    axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
    [(result, triple)] = run_errors(problem, [SchemeKind.EXPLICIT_CHARACTERISTIC], axis, m)
    return result, triple


def test_characteristic_exactness_weak_data():
    _, triple = _characteristic_errors(make_example(1.5), 20, 10)
    assert triple.Ch < 1e-13


def test_characteristic_dalembert_sine():
    # the travelling-wave form of the sine mode, against which the run (and
    # its trace) is measured
    a = 1.0
    travelling = lambda x, t: 0.5 * (
        np.sin(2 * np.pi * (x - a * t)) + np.sin(2 * np.pi * (x + a * t))
    )
    problem = dataclasses.replace(make_sine_mode_problem((a,), (1.0,), (2,)), exact=travelling)
    result, triple = _characteristic_errors(problem, 32, 16)
    assert result.completed_levels == 17
    assert triple.Ch < 1e-12


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


def test_blowup_at_level_one_ends_every_runner_there():
    # a huge initial velocity blows up level 1: the explicit runner stops
    # there as the implicit schemes do, after showing it to the observer
    problem = ProblemSpec(
        name="huge velocity", speeds=(1.0,), origin=(0.0,), extents=(1.0,), horizon=1.0,
        u0=lambda x: np.zeros_like(x), u1_fn=lambda x: np.full_like(x, 1e104),
    )
    levels = []
    explicit, axis, tmesh = run_explicit_characteristic(problem, 20, 10, observer=collect(levels))
    implicit = Scheme(problem, SchemeKind.COMPACT_1D, [axis], tmesh).run()
    for result in (explicit, implicit):
        assert result.blew_up
        assert result.completed_levels == 2
    assert len(levels) == 2 and np.max(np.abs(levels[1])) > 1e100


def test_march_ends_each_row_of_a_stack_on_its_own():
    # four rows of v^{m+1} = r v^m + v^{m-1} + 1: they meet the blow-up
    # rule at level 1 (an overflow to inf, ignored as run_errors does), at
    # level 4, at the last level (20) and never.  Each row's run equals that
    # row marched alone, and no step sees a non-finite value (the constant
    # term regrows an ended row unless it is held at zero).  The one
    # observer is shown every level whole: a row as its solo run shows it
    # up to its aborting level, and zeros after.  The observer keeps the
    # levels it is shown, not copies: no later level may overwrite them
    tmesh = build_time_mesh(20, 1.0)
    rates = np.array([1e30, 1e30, 10**5.05, 1.5])
    v0 = np.tile(np.array([0.0, 1.0, 2.0, 1.0, 0.0]), (rates.size, 1))
    v0[0] *= 1e300

    def march(v0, r, observer, stacked=False):
        def first(v):
            assert np.isfinite(v).all()
            return r * v

        def step(v_prev, v_curr, level):
            assert np.isfinite(v_prev).all() and np.isfinite(v_curr).all()
            return r * v_curr + v_prev + 1.0

        with np.errstate(over="ignore"):
            return _march(v0, first, step, tmesh, observer, stacked)

    def watcher():
        shown = []
        return shown, lambda level, t, values: shown.append((level, t, values))

    shown, observe = watcher()
    results = march(v0, rates[:, None], observe, stacked=True)
    assert [r.completed_levels for r in results] == [2, 5, 21, 21]
    assert [r.blew_up for r in results] == [True, True, True, False]
    assert [(level, t) for level, t, _ in shown] == list(enumerate(tmesh.nodes))
    for k, result in enumerate(results):
        solo_shown, observe = watcher()
        [solo] = march(v0[k], rates[k], observe)
        assert (result.completed_levels, result.blew_up) == (solo.completed_levels, solo.blew_up)
        np.testing.assert_array_equal(result.v_prev, solo.v_prev)
        np.testing.assert_array_equal(result.v_last, solo.v_last)
        assert len(solo_shown) == result.completed_levels
        for level, (_, _, values) in enumerate(shown):
            expected = solo_shown[level][2] if level < len(solo_shown) else 0.0
            np.testing.assert_array_equal(values[k], expected)


def test_forcing_impulse_at_t0_converges_to_the_exact_solution():
    # f = PPiece(1) delta(t): the exact solution counts the impulse at t = 0
    # fully, and so must the first-step forcing (its one-sided hat average
    # 2/h_t).  Dropping it leaves Ch at 0.25 for every N
    f = PiecewiseData((SeparableTerm(1.0, PPiece(1), TimeDirac(0.0)),))
    problem = ProblemSpec(
        name="impulse at 0", speeds=(1.0,), origin=(-0.5,), extents=(1.0,), horizon=0.5,
        u0=lambda x: np.zeros_like(x), f_data=f,
        exact=lambda x, t: _dalembert_forcing_part(f, x, t, 1.0),
    )
    points = []
    for n in (40, 80, 160, 320):
        axis = build_uniform_axis(n, 1.0, -0.5)
        m = step_count(problem, axis, "compact1d")
        [(result, triple)] = run_errors(problem, ["compact1d"], axis, m)
        assert result.stable
        points.append((n, triple.Ch))
    assert points[0][1] < 2e-4
    assert fit_order(points).gamma > 1.6


def test_problem_with_only_a_velocity_callable_assembles_and_runs():
    # the initial velocity follows its data type: u1_fn alone is sampled by
    # the compact formula; u = sin(pi x) sin(pi t) / pi
    problem = ProblemSpec(
        name="velocity only", speeds=(1.0,), origin=(0.0,), extents=(1.0,), horizon=0.5,
        u0=lambda x: np.zeros_like(x), u1_fn=lambda x: np.sin(np.pi * x),
        exact=lambda x, t: np.sin(np.pi * x) * np.sin(np.pi * t) / np.pi,
    )
    axis = build_uniform_axis(20, 1.0)
    tmesh = build_time_mesh(10, 0.5)
    scheme = Scheme(problem, SchemeKind.COMPACT_1D, [axis], tmesh)
    sampled = initial_velocity(problem.u1_fn, [axis], tmesh.h_t, problem.speeds)
    assert np.array_equal(scheme.u1n, sampled)
    [(result, triple)] = run_errors(problem, [SchemeKind.COMPACT_1D], axis, tmesh.n_steps)
    assert result.stable
    assert triple.Ch < 1e-5


def test_forcing_table_level_0_is_the_first_step_forcing():
    # f_N^0 = (1/3) f^0 + (2/3) f(h_t/2) + (S - I) f^0, with S the additive
    # compact average, S - I = sum_i (h_i^2/12) Lambda_i on uniform axes
    f = lambda x, y, t: np.exp(0.7 * x - t) * np.cos(2.0 * y + 3.0 * t)
    problem = dataclasses.replace(
        make_sine_mode_problem((1.0, 1.3), (1.0, 0.8), (2, 1)), f_fn=f
    )
    meshes = [build_uniform_axis(10, 1.0), build_uniform_axis(8, 0.8)]
    tmesh = build_time_mesh(6, 0.3)
    scheme = Scheme(problem, SchemeKind.COMPACT_ND, meshes, tmesh)
    x, y = np.meshgrid(meshes[0].nodes, meshes[1].nodes, indexing="ij")
    h_t = tmesh.h_t
    f0 = f(x, y, 0.0)
    lam_x = (f0[2:, 1:-1] - 2.0 * f0[1:-1, 1:-1] + f0[:-2, 1:-1]) / meshes[0].h**2
    lam_y = (f0[1:-1, 2:] - 2.0 * f0[1:-1, 1:-1] + f0[1:-1, :-2]) / meshes[1].h**2
    direct = (f0[1:-1, 1:-1] / 3.0 + 2.0 / 3.0 * f(x, y, 0.5 * h_t)[1:-1, 1:-1]
              + meshes[0].h**2 / 12.0 * lam_x + meshes[1].h**2 / 12.0 * lam_y)
    assert np.max(np.abs(scheme.fn_table(0) - direct)) < 1e-14


def test_forcing_table_covers_the_steps_0_to_m_minus_1():
    problem = make_smooth_nonuniform_problem()
    axis = build_uniform_axis(10, 1.0, -0.5)
    scheme = Scheme(problem, SchemeKind.COMPACT_1D, [axis], build_time_mesh(5, 1.0))
    assert scheme.fn_table.n_steps == 5
    for level in range(5):
        assert scheme.fn_table(level).shape == (9,)
    for level in (-1, 5):
        with pytest.raises(ValueError, match=r"outside 0\.\.4"):
            scheme.fn_table(level)


def test_characteristic_rejects_smooth_forcing():
    problem = make_smooth_nonuniform_problem()
    with pytest.raises(ValueError):
        run_explicit_characteristic(problem, 10, 5)


def _horizon_steps(problem, n):
    """Last characteristic-mesh level inside the horizon: floor(N a T / X)."""
    return math.floor(n * problem.speeds[0] * problem.horizon / problem.extents[0])


@pytest.mark.parametrize("n", [20, 40, 41, 200, 400, 800, 1000, 1600])
@pytest.mark.parametrize("alpha", EXAMPLE_ALPHAS)
def test_characteristic_exact_on_catalog(alpha, n):
    # odd N puts the data breakpoints between nodes; at N = 400 and 800 the
    # nodes next to the E_0.5 fronts carry the rounding of the origin, and
    # the exact solution and the runner's velocity data judge that tie on
    # one scale; N = 1000 and 1600 hold the recursion's roundoff, which
    # grows with N M, to the same bound
    problem = make_example(alpha)
    axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
    m = step_count(problem, axis, SchemeKind.EXPLICIT_CHARACTERISTIC)
    assert m == _horizon_steps(problem, n)
    result, triple = _characteristic_errors(problem, n, m)
    assert result.stable
    assert triple.Ch <= 1e-12


@pytest.mark.parametrize("n", [20, 40])
def test_characteristic_atom_on_footprint_corners(n):
    # with a = 1 the switch-on time t_* = 0.4 is a mesh level and the Dirac
    # atom at (0, t_*) sits on footprint corners and edges; the run stops
    # before the initial-velocity front reaches the boundary at t = 0.5
    _, triple = _characteristic_errors(make_example(0.5, horizon=0.8, a=1.0), n, n // 2 - 1)
    assert triple.Ch <= 1e-12


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
    _assert_forcing_matches_oracle(problem.f_data, problem, n, _horizon_steps(problem, n))


def _assert_forcing_matches_oracle(terms, problem, n, n_steps):
    """The runner's forcing terms (_char_forcing, the triangle's and then
    the rhombs') as averages, against the scalar oracle at every level."""
    axis, tmesh = characteristic_meshes(problem, n, n_steps)
    h = axis.h
    h_t = h / problem.speeds[0]
    levels = list(_char_forcing(terms, axis.nodes, tmesh, problem.speeds[0]))
    assert len(levels) == n_steps
    for level, term in enumerate(levels):
        got = term / ((0.5 if level == 0 else 1.0) * h_t**2)
        want = _oracle_forcing_level(terms, axis.nodes, level, h, h_t)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))


def _near_start_terms(problem, n, shift):
    """Forcing of every space profile and of degrees 0..2 in time, switched on
    at t_* = shift * h_t on the characteristic mesh of N = n."""
    h_t = characteristic_meshes(problem, n, 1)[0].h / problem.speeds[0]
    return PiecewiseData(tuple(
        SeparableTerm(1.0, space, QPiece(degree, shift * h_t))
        for space in (PPiece(0), PPiece(1), PPiece(3), SpaceDirac(0.0))
        for degree in (0, 1, 2)
    ))


@pytest.mark.parametrize("shift", [-0.3, 0.4])
def test_characteristic_forcing_switched_on_near_start_matches_scalar_oracle(shift):
    # t_* = shift * h_t: the forcing is on over part of the level-0 triangle,
    # where the crossing times of the nodes next to the breakpoint (odd N)
    # fall inside it.  Before t = 0 (shift < 0) the cone integrals would
    # count the forcing at negative times, so the runner rejects it
    problem = make_example(2.5)
    n = 41
    terms = _near_start_terms(problem, n, shift)
    if shift < 0:
        with pytest.raises(ValueError, match="switched on at t >= 0"):
            run_explicit_characteristic(dataclasses.replace(problem, f_data=terms), n, 3)
    else:
        _assert_forcing_matches_oracle(terms, problem, n, 3)


_B = schemes._BLOCK
_SEAM_CASES = [(200, m) for m in (1, _B - 1, _B, _B + 1, 2 * _B, 89)] + [(1600, 715)]


def _assert_block_forcing_equals_per_level(terms, problem, n, n_steps):
    axis, tmesh = characteristic_meshes(problem, n, n_steps)
    a = problem.speeds[0]
    got = list(_char_forcing(terms, axis.nodes, tmesh, a))
    want = list(char_forcing_per_level(terms, axis.nodes, tmesh, a))
    assert len(got) == len(want) == n_steps
    assert np.stack(got).tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize("n,n_steps", _SEAM_CASES)
def test_block_characteristic_forcing_equals_the_per_level_oracle_bitwise(n, n_steps):
    # blocks of one step, of one short of a block, of one and two whole
    # blocks and one over, and the workload's and the largest catalog run's
    # sizes: every term, -0.0 against +0.0 included
    for alpha in EXAMPLE_ALPHAS:
        problem = make_example(alpha)
        _assert_block_forcing_equals_per_level(problem.f_data, problem, n, n_steps)


@pytest.mark.parametrize("n_steps", [m for n, m in _SEAM_CASES if n == 200])
@pytest.mark.parametrize("shift", [-0.3, 0.4])
def test_block_near_start_forcing_equals_the_per_level_oracle_bitwise(shift, n_steps):
    problem = make_example(2.5)
    terms = _near_start_terms(problem, 41, shift)
    _assert_block_forcing_equals_per_level(terms, problem, 41, n_steps)


def test_characteristic_forcing_takes_one_cone_call_per_block(monkeypatch):
    calls = []
    cone = schemes._dalembert_forcing_part

    def counted(*args):
        calls.append(args)
        return cone(*args)

    monkeypatch.setattr(schemes, "_dalembert_forcing_part", counted)
    run_explicit_characteristic(make_example(2.5), 200, 89)
    assert 1 <= len(calls) <= math.ceil(89 / _B)


def test_characteristic_rejects_forcing_without_a_temporal_factor():
    problem = make_example(2.5)
    steady = PiecewiseData((SeparableTerm(1.0, PPiece(0)),))
    with pytest.raises(ValueError, match="temporal factor"):
        run_explicit_characteristic(dataclasses.replace(problem, f_data=steady), 20, 4)


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

