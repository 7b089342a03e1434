import collections
import dataclasses
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from compactwave.analysis import (
    ConvergenceReport,
    ErrorObserver,
    ErrorTriple,
    OrderRangeWarning,
    build_report,
    fit_order,
    run_errors,
    theoretical_orders,
)
from compactwave import analysis, operators, schemes, solvers
from compactwave.mesh import (
    NODE_DISTRIBUTIONS,
    build_graded_axis,
    build_time_mesh,
    build_uniform_axis,
    mesh_stats,
)
from compactwave.problems import ProblemSpec, make_example, make_smooth_nonuniform_problem
from compactwave.schemes import (
    Scheme,
    SchemeConfig,
    SchemeKind,
    run,
    step_count,
)
from oracles import PerLevelErrorObserver

_BLOCK = analysis._BLOCK


def test_fit_exact_power_law():
    points = [(n, 2.5 * (1.0 / n) ** 3) for n in (100, 200, 400, 800)]
    fit = fit_order(points)
    assert fit.c0 == pytest.approx(2.5, abs=1e-10)
    assert fit.gamma == pytest.approx(3.0, abs=1e-10)


def test_fit_excludes_bad_points():
    points = [(100, 1e-3), (200, 0.0), (400, 1.2e-4), (800, 1.4e-5)]
    with pytest.warns(UserWarning):
        fit = fit_order(points)
    assert fit.n_points == 3
    assert 200 in fit.excluded


@pytest.mark.parametrize(
    "bad,reason",
    [(0.0, "non-positive"), (-1e-5, "non-positive"), (math.inf, "non-finite"), (math.nan, "non-finite")],
)
def test_fit_warning_names_the_reason(bad, reason):
    points = [(100, 1e-3), (200, bad), (400, 1.2e-4), (800, 1.4e-5)]
    with pytest.warns(UserWarning, match=rf"^excluding {reason} error at N=200$"):
        fit = fit_order(points)
    assert fit.excluded == (200,)


def test_fit_drop_below_marks_star():
    points = [(n, 3.0 * (1.0 / n) ** 2) for n in (50, 100, 200, 400, 800)]
    fit = fit_order(points, drop_below=200)
    assert fit.starred
    assert set(fit.excluded) == {50, 100}
    assert fit.gamma == pytest.approx(2.0, abs=1e-10)


def test_fit_needs_three_points():
    with pytest.raises(ValueError):
        fit_order([(100, 1e-3), (200, 1e-4)])


def test_theoretical_orders_examples():
    assert theoretical_orders(1.5, 4) == pytest.approx((1.2, 0.8, 0.4))
    assert theoretical_orders(5.5, 4) == pytest.approx((4.0, 4.0, 3.6))
    assert theoretical_orders(1.5, 2) == pytest.approx((1.0, 2.0 / 3.0, 1.0 / 3.0))
    assert theoretical_orders(2.5, 2) == pytest.approx((5.0 / 3.0, 4.0 / 3.0, 1.0))
    with pytest.warns(OrderRangeWarning):
        theoretical_orders(0.5, 4)
    with pytest.raises(ValueError):
        theoretical_orders(1.5, 3)


def test_error_norms_constant_residual():
    # direct-summation oracle: a constant residual c has L2h = |c| sqrt(X - h),
    # Ch = |c|, and zero energy norm
    n, m_steps = 20, 5
    axis = build_uniform_axis(n, 1.0)
    tmesh = build_time_mesh(m_steps, 1.0)
    c = -0.7
    obs = ErrorObserver(lambda x, t: np.zeros_like(x), axis, tmesh)
    for level, t in enumerate(tmesh.nodes):
        obs.observe(level, t, np.full(n + 1, -c))
    triple = obs.result()
    assert triple.L2h == pytest.approx(abs(c) * math.sqrt(1.0 - axis.h), rel=1e-12)
    assert triple.Ch == pytest.approx(abs(c))
    assert triple.Eh == 0.0


def test_observer_norms_match_sum_of_squares():
    # the observer reduces with dot products; the reference sums squares
    # pairwise, so the two agree to the summation bound n * eps.  The levels
    # fill two blocks and part of a third
    n, m_steps = 800, 2 * _BLOCK + 4
    axis = build_uniform_axis(n, 1.0, -0.5)
    tmesh = build_time_mesh(m_steps, 1.0)
    rng = np.random.default_rng(5)
    levels = [rng.standard_normal(n + 1) for _ in range(m_steps + 1)]
    obs = ErrorObserver(lambda x, t: np.zeros_like(x), axis, tmesh)
    l2 = c = e = 0.0
    for level, values in enumerate(levels):
        obs.observe(level, tmesh.nodes[level], values)
        r = -values
        l2 = max(l2, math.sqrt(axis.h * np.sum(r[1:-1] ** 2)))
        c = max(c, np.max(np.abs(r)))
        if level >= 1:
            dt = (r + levels[level - 1]) / tmesh.h_t
            dx = np.diff(r) / axis.h
            e = max(e, math.sqrt(axis.h * np.sum(dt[1:-1] ** 2)), math.sqrt(axis.h * np.sum(dx**2)))
    rtol = (n + 1) * np.finfo(float).eps
    triple = obs.result()
    assert triple.L2h == pytest.approx(l2, rel=rtol)
    assert triple.Ch == c
    assert triple.Eh == pytest.approx(e, rel=rtol)


def test_error_norms_exact_run_is_zero():
    problem = make_example(1.5)
    axis = build_uniform_axis(20, problem.extents[0], problem.origin[0])
    [(_, triple)] = run_errors(problem, [SchemeKind.EXPLICIT_CHARACTERISTIC], axis, 10)
    assert triple.Ch < 1e-13
    assert triple.L2h < 1e-13


def test_observer_prefix_monotonicity():
    problem = make_example(1.5)
    axis = build_uniform_axis(40, 1.0, -0.5)
    tmesh = build_time_mesh(40, 1.0)
    obs = ErrorObserver(problem.exact, axis, tmesh)
    partials = []

    def watch(level, t, v):
        obs.observe(level, t, v)
        partials.append(obs.result())

    run(problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [axis], tmesh, observer=watch)
    for earlier, later in zip(partials[:-1], partials[1:]):
        assert earlier.L2h <= later.L2h + 1e-15
        assert earlier.Ch <= later.Ch + 1e-15
        assert earlier.Eh <= later.Eh + 1e-15


def _bits(triple):
    # equal bits: -0.0 and 0.0 differ, and a NaN equals a NaN of the same payload
    return np.array([triple.L2h, triple.Ch, triple.Eh]).tobytes()


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_block_observer_equals_the_per_level_oracle_bitwise(data):
    # level counts around the block's edges, uniform and graded axes, a
    # run's 1-D levels or a stack's (K, N+1) ones, result() asked mid-run,
    # and a level with an inf or NaN at a random position or over a whole
    # row: the block reduction gives each row the triple of the per-level
    # oracle on that row, bit for bit
    n_levels = data.draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 2]))
    n = data.draw(st.integers(2, 60))
    stacked = data.draw(st.sampled_from([None, 2, 3]))  # None: a run's levels
    rows = stacked or 1
    if data.draw(st.booleans()):
        phi = NODE_DISTRIBUTIONS[data.draw(st.sampled_from(sorted(NODE_DISTRIBUTIONS)))]
        axis = build_graded_axis(phi, n, 1.0, -0.5)
    else:
        axis = build_uniform_axis(n, data.draw(st.floats(0.5, 2.0)), -0.25)
    tmesh = build_time_mesh(max(n_levels - 1, 1), data.draw(st.floats(0.5, 2.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    levels = rng.standard_normal((n_levels, rows, n + 1))
    levels *= 10.0 ** rng.uniform(-12, 2, (n_levels, rows, 1))
    bad = data.draw(st.none() | st.tuples(
        st.integers(0, n_levels - 1), st.integers(0, rows - 1), st.integers(0, n),
        st.sampled_from([math.inf, -math.inf, math.nan]), st.booleans(),
    ))
    if bad is not None:
        level, row, node, value, whole_row = bad
        levels[level, row, slice(None) if whole_row else node] = value
    asked = data.draw(st.sets(st.integers(0, n_levels - 1), max_size=4))
    exact = lambda x, t: np.sin(3.0 * x - t) * 1e-3
    observer = ErrorObserver(exact, axis, tmesh)
    oracles = [PerLevelErrorObserver(exact, axis, tmesh) for _ in range(rows)]

    def assert_same_triples():
        got = observer.result()
        got = [got] if stacked is None else got
        assert [_bits(triple) for triple in got] == [_bits(oracle.result()) for oracle in oracles]

    with np.errstate(all="ignore"):
        for level, values in enumerate(levels):
            t = tmesh.nodes[level]
            observer.observe(level, t, values if stacked else values[0])
            for oracle, row in zip(oracles, values, strict=True):
                oracle.observe(level, t, row)
            if level in asked:
                assert_same_triples()
        assert_same_triples()
        # a second result() reduces nothing more
        assert_same_triples()


def test_observer_holds_no_view_of_the_callers_levels():
    # the caller refills one array for every level, as a march may: the
    # observer's triple is that of copies of the levels, blocks and a
    # result() asked mid-run included
    n = 50
    axis = build_uniform_axis(n, 1.0, -0.5)
    tmesh = build_time_mesh(2 * _BLOCK + 3, 1.0)
    rng = np.random.default_rng(11)
    levels = rng.standard_normal((tmesh.n_steps + 1, n + 1))
    exact = lambda x, t: np.cos(x + t)
    observer = ErrorObserver(exact, axis, tmesh)
    oracle = PerLevelErrorObserver(exact, axis, tmesh)
    buffer = np.empty(n + 1)
    for level, values in enumerate(levels):
        t = tmesh.nodes[level]
        buffer[:] = values
        observer.observe(level, t, buffer)
        oracle.observe(level, t, values.copy())
        buffer[:] = 1e3 * rng.standard_normal(n + 1)
        if level == _BLOCK + 5:
            assert observer.result() == oracle.result()
    assert observer.result() == oracle.result()


def test_blown_up_run_reports_infinite_norms():
    # level 1 is NaN, or beyond 1e100: the march's verdict ends the run
    # there, and the recipe reports the infinite triple for it (the observer
    # passes no verdict of its own)
    axis = build_uniform_axis(10, 1.0)
    for velocity in (math.nan, 1e104):
        problem = ProblemSpec(
            name="bad velocity", speeds=(1.0,), origin=(0.0,), extents=(1.0,), horizon=1.0,
            u0=lambda x: np.zeros_like(x), u1_fn=lambda x: np.full_like(x, velocity),
            exact=lambda x, t: np.zeros_like(x),
        )
        kinds = ["compact1d", "second-order", "characteristic"]
        for result, triple in run_errors(problem, kinds, axis, 4):
            assert result.blew_up and result.completed_levels == 2
            assert triple == ErrorTriple(math.inf, math.inf, math.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_past_the_square_range_reports_inf_without_warnings():
    # level 1 near 1e200 is past the range of the observers' squares (~1e154):
    # the run still reports the infinite triple, and no overflow warning
    axis = build_uniform_axis(10, 1.0)
    problem = ProblemSpec(
        name="huge velocity", speeds=(1.0,), origin=(0.0,), extents=(1.0,), horizon=1.0,
        u0=lambda x: np.zeros_like(x), u1_fn=lambda x: np.full_like(x, 1e200),
        exact=lambda x, t: np.zeros_like(x),
    )
    for kind in ("compact1d", "second-order", "characteristic"):
        [(result, triple)] = run_errors(problem, [kind], axis, 4)
        assert result.blew_up and result.completed_levels == 2
        assert triple == ErrorTriple(math.inf, math.inf, math.inf)


def test_build_report_formats():
    rep = ConvergenceReport(
        problem="E_2.5",
        scheme="compact1d",
        alpha=2.5,
        results=[
            (200, ErrorTriple(7.34e-6, 4.06e-5, 1.88e-3)),
            (400, ErrorTriple(1.8e-6, 1.3e-5, 8.0e-4)),
            (800, ErrorTriple(4.5e-7, 4.2e-6, 3.6e-4)),
        ],
    )
    rep.fit()
    rep.attach_theory()
    csv = build_report([rep], "csv")
    lines = csv.strip().split("\n")
    assert lines[0] == "problem,scheme,norm,c0,gamma_pr,gamma_th,gamma_th2,err_200,err_400,err_800"
    assert len(lines) == 4
    assert "7.340E-06" in csv
    md = build_report([rep], "md")
    assert md.startswith("| problem |")
    with pytest.raises(ValueError):
        build_report([rep], "json")


def test_build_report_empty():
    assert build_report([], "csv") == (
        "problem,scheme,norm,c0,gamma_pr,gamma_th,gamma_th2\n"
    )


def test_build_report_extras_columns():
    rep = ConvergenceReport(
        problem="phi6",
        scheme="nonuniform-compact",
        alpha=None,
        results=[(200, ErrorTriple(1e-3, 1e-3, 1e-2))],
        extras={"h_ratio": 56.55, "rho_min": 0.4142},
    )
    csv = build_report([rep], "csv")
    header = csv.splitlines()[0]
    assert header.endswith("err_200,h_ratio,rho_min")
    assert "5.655E+01" in csv


# ---------------------------------------------------------------------------
# stacked studies


def _separate_triples(problem, configs, axis, tmesh):
    triples = []
    for config in configs:
        obs = ErrorObserver(problem.exact, axis, tmesh)
        run(problem, config, [axis], tmesh, observer=obs)
        triples.append(obs.result())
    return triples


def test_run_errors_equal_separate_runs_with_one_exact_call_per_level():
    problem = make_example(2.5)
    calls = []

    def counted(x, t):
        calls.append(t)
        return problem.exact(x, t)

    axis = build_uniform_axis(40, problem.extents[0], problem.origin[0])
    tmesh = build_time_mesh(40, problem.horizon)
    kinds = [SchemeKind.COMPACT_1D, SchemeKind.SECOND_ORDER]
    shared = run_errors(dataclasses.replace(problem, exact=counted), kinds, axis, 40)
    configs = [SchemeConfig(kind=kind) for kind in kinds]
    assert [triple for _, triple in shared] == _separate_triples(problem, configs, axis, tmesh)
    assert all(result.completed_levels == 41 and not result.blew_up for result, _ in shared)
    assert calls == list(tmesh.nodes)


@pytest.mark.parametrize(
    "kinds", [["compact1d", "second-order"], ["compact1d"], ["characteristic"]],
    ids=["stack", "lone-kind", "characteristic"],
)
def test_every_run_asks_exact_once_per_level_with_one_time(kinds):
    # the observer's contract with the exact solutions, which evaluate one
    # time with scalar arithmetic and which a tracer keys by float(t): one
    # call per level of the run's time mesh, in order, each with a 0-d time
    # (the 1D traces come from g, not from exact)
    problem = make_example(2.5)
    calls = []

    def recorder(x, t):
        calls.append(t)
        return problem.exact(x, t)

    watched = dataclasses.replace(problem, exact=recorder)
    axis = build_uniform_axis(40, problem.extents[0], problem.origin[0])
    m = step_count(problem, axis, kinds[0])
    if kinds == ["characteristic"]:
        axis_c, tmesh = schemes.characteristic_meshes(problem, 40, m)
        obs = ErrorObserver(watched.exact, axis_c, tmesh)
        result = schemes.run_explicit_characteristic(watched, 40, m, obs)[0]
        assert obs.result().Ch <= 1e-12
    else:
        tmesh = build_time_mesh(m, problem.horizon)
        ((result, _), *_) = run_errors(watched, kinds, axis, m)
    assert result.completed_levels == m + 1 and not result.blew_up
    assert all(np.ndim(t) == 0 for t in calls)
    assert [float(t) for t in calls] == tmesh.nodes.tolist()


def test_run_errors_of_the_characteristic_kind_keeps_its_own_time_mesh():
    # h_t = h/a on the problem's axis, next to an implicit kind on h_t = T/M;
    # M = 16 < floor(a T / h) = 17 puts the switch-on time t_* = T/2 on the
    # implicit kind's time mesh
    problem = make_example(2.5)
    axis = build_uniform_axis(40, problem.extents[0], problem.origin[0])
    assert step_count(problem, axis, SchemeKind.EXPLICIT_CHARACTERISTIC) == 17
    m = 16
    (explicit, exact_triple), (implicit, triple) = run_errors(
        problem, ["characteristic", "compact1d"], axis, m
    )
    assert explicit.completed_levels == implicit.completed_levels == m + 1
    assert exact_triple.Ch <= 1e-12 < triple.Ch
    assert [triple] == _separate_triples(
        problem, [SchemeConfig(SchemeKind.COMPACT_1D)], axis, build_time_mesh(m, problem.horizon)
    )


INF = ErrorTriple(math.inf, math.inf, math.inf)


def _solo(problem, kind, axis, n_steps):
    """The kind's own march (Scheme.run) watched by an error observer: the
    reference of a row of the stack."""
    tmesh = build_time_mesh(n_steps, problem.horizon)
    obs = ErrorObserver(problem.exact, axis, tmesh)
    result = Scheme(problem, SchemeConfig(kind), [axis], tmesh).run(obs)
    return result, INF if result.blew_up else obs.result()


def _assert_same_run(got, expected):
    (result, triple), (reference, reference_triple) = got, expected
    assert result.completed_levels == reference.completed_levels
    assert result.blew_up == reference.blew_up
    np.testing.assert_array_equal(result.v_prev, reference.v_prev)
    np.testing.assert_array_equal(result.v_last, reference.v_last)
    assert triple == reference_triple


@pytest.mark.parametrize("alpha", [1.5, 2.5, 3.5])
@pytest.mark.parametrize("n", [40, 80])
@pytest.mark.parametrize("kinds", [["compact1d", "second-order"], ["second-order", "compact1d"]])
def test_stacked_kinds_equal_their_solo_runs_bitwise(alpha, n, kinds):
    problem = make_example(alpha)
    axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
    for kind, got in zip(kinds, run_errors(problem, kinds, axis, n)):
        _assert_same_run(got, _solo(problem, kind, axis, n))


def test_graded_axis_stacks_equal_their_solo_runs_bitwise():
    # callable data (sampled u1n and forcing) on a phi3-graded axis, where
    # only compact1d runs: a stack of two of its schemes, and run_errors'
    # lone kind
    problem = make_smooth_nonuniform_problem()
    axis = build_graded_axis(NODE_DISTRIBUTIONS["phi3"], 40, problem.extents[0], problem.origin[0])
    m = step_count(problem, axis, "compact1d")
    solo = _solo(problem, "compact1d", axis, m)
    assert not solo[0].blew_up and solo[0].completed_levels == m + 1
    tmesh = build_time_mesh(m, problem.horizon)
    obs = ErrorObserver(problem.exact, axis, tmesh)
    results = schemes.run_stacked(problem, ["compact1d"] * 2, axis, tmesh, obs)
    for got in zip(results, obs.result(), strict=True):
        _assert_same_run(got, solo)
    [got] = run_errors(problem, ["compact1d"], axis, m)
    _assert_same_run(got, solo)


def test_stack_shares_one_solve_and_one_forcing_lookup_per_level(monkeypatch):
    # two kinds on E_2.5 at N = M = 40: one block-diagonal solve and one
    # forcing entry per level, one exact evaluation per level, and one scheme
    # per kind (no extra construction for the stack)
    counts = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[f"{owner.__name__}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(solvers.TriSolver, "solve")
    count(operators.RhsTable, "__call__")
    count(schemes.Scheme, "__init__")
    # the stack steps through the scheme's own traced step methods
    count(schemes.Scheme, "first_step")
    count(schemes.Scheme, "time_step")
    count(schemes.Scheme, "apply_a_interior")
    problem = make_example(2.5)
    times = []

    def exact(x, t):
        times.append(t)
        return problem.exact(x, t)

    axis = build_uniform_axis(40, problem.extents[0], problem.origin[0])
    problem_counted = dataclasses.replace(problem, exact=exact)
    shared = run_errors(problem_counted, ["compact1d", "second-order"], axis, 40)
    assert all(result.completed_levels == 41 and not result.blew_up for result, _ in shared)
    assert counts == {
        "TriSolver.solve": 40, "RhsTable.__call__": 40, "Scheme.__init__": 2,
        "Scheme.first_step": 1, "Scheme.time_step": 39, "Scheme.apply_a_interior": 40,
    }
    assert times == list(build_time_mesh(40, problem.horizon).nodes)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("unstable_first", [True, False])
def test_lockstep_blowup_reports_inf_and_keeps_the_stable_triple(unstable_first):
    # Courant number a h_t / h = 1.79: compact1d (sigma = 1/12) blows up,
    # the sigma = 1/2 second-order scheme is unconditionally stable.  The
    # unstable row leaves the stack on its aborting level, before it can put
    # inf or NaN into the shared solve: the stable row matches its solo run
    problem = dataclasses.replace(make_example(1.5), horizon=20.0)
    axis = build_uniform_axis(40, problem.extents[0], problem.origin[0])
    unstable, stable = SchemeKind.COMPACT_1D, SchemeKind.SECOND_ORDER
    kinds = [unstable, stable] if unstable_first else [stable, unstable]
    shared = dict(zip(kinds, run_errors(problem, kinds, axis, 200)))
    separate = {kind: run_errors(problem, [kind], axis, 200)[0] for kind in kinds}
    assert shared[unstable][0].blew_up and separate[unstable][0].blew_up
    assert shared[unstable][1] == separate[unstable][1] == INF
    assert shared[stable][1] == separate[stable][1]
    assert math.isfinite(shared[stable][1].Ch)
    tmesh = build_time_mesh(200, 20.0)
    [expected] = _separate_triples(problem, [SchemeConfig(stable)], axis, tmesh)
    assert shared[stable][1] == expected
    for kind in kinds:
        _assert_same_run(shared[kind], _solo(problem, kind, axis, 200))
    assert shared[unstable][0].completed_levels < 201 == shared[stable][0].completed_levels


def test_data_tables_are_built_on_first_read(monkeypatch):
    # u1n and fn_table: a stack reads its first scheme's only, a scheme that
    # marches other data builds neither, and data that cannot be discretized
    # raises when the run starts, not at assembly
    built = collections.Counter()
    for name in ("build_rhs_table", "initial_velocity"):
        def counted(*args, _original=getattr(schemes, name), _name=name):
            built[_name] += 1
            return _original(*args)

        monkeypatch.setattr(schemes, name, counted)
    problem = make_example(2.5)
    axis = build_uniform_axis(20, problem.extents[0], problem.origin[0])
    tmesh = build_time_mesh(20, problem.horizon)
    scheme = Scheme(problem, SchemeConfig(SchemeKind.SECOND_ORDER), [axis], tmesh)
    assert built == {}
    obs = ErrorObserver(problem.exact, axis, tmesh)
    schemes.run_stacked(problem, ["compact1d", "second-order"], axis, tmesh, obs)
    assert built == {"build_rhs_table": 1, "initial_velocity": 1}
    built.clear()
    rng = np.random.default_rng(2)
    scheme.march_data(scheme.initial_level(), rng.standard_normal(19),
                      list(rng.standard_normal((20, 19))))
    assert built == {}
    # E_1.5's forcing has a time atom at t = 0.5, off the mesh of 7 steps
    problem = make_example(1.5)
    scheme = Scheme(problem, SchemeConfig(SchemeKind.COMPACT_1D), [axis], build_time_mesh(7, 1.0))
    with pytest.raises(ValueError, match="not located at a mesh node"):
        scheme.run()


def test_run_stacked_shows_each_level_once_to_its_one_observer():
    # a stack of K kinds shows its observer one (K, N+1) level per time
    # node, each row the kind's own run; a lone kind shows its own 1-D
    # levels; a stack of no kinds is refused
    problem = make_example(2.5)
    axis = build_uniform_axis(20, problem.extents[0], problem.origin[0])
    tmesh = build_time_mesh(20, problem.horizon)
    kinds = ["compact1d", "second-order"]
    for rows in (kinds, kinds[:1]):
        shown = []
        results = schemes.run_stacked(
            problem, rows, axis, tmesh, lambda level, t, v: shown.append((level, t, v.copy()))
        )
        assert [(level, t) for level, t, _ in shown] == list(enumerate(tmesh.nodes))
        last = shown[-1][2].reshape(len(rows), -1)
        for k, kind in enumerate(rows):
            solo = run(problem, SchemeConfig(SchemeKind(kind)), [axis], tmesh)
            np.testing.assert_array_equal(results[k].v_last, solo.v_last)
            np.testing.assert_array_equal(last[k], solo.v_last)
        assert shown[0][2].shape == ((axis.nodes.size,) if len(rows) == 1 else (2, axis.nodes.size))
    with pytest.raises(ValueError, match="at least one kind"):
        schemes.run_stacked(problem, [], axis, tmesh, None)


def test_every_1d_kind_has_the_one_stiffness_a_stack_shares():
    # run_stacked applies the first kind's A to every row: each 1D
    # implicit kind, one added later included, must have the same A
    problem = make_example(2.5)
    axis = build_uniform_axis(30, problem.extents[0], problem.origin[0])
    kinds = [
        kind for kind in SchemeKind
        if kind != SchemeKind.EXPLICIT_CHARACTERISTIC and 1 in schemes._KINDS[kind].dims
    ]
    assert len(kinds) == 3
    tmesh = build_time_mesh(30, problem.horizon)
    stack = [Scheme(problem, SchemeConfig(kind), [axis], tmesh) for kind in kinds]
    values = np.random.default_rng(3).standard_normal((31, 4))
    reference = stack[0].apply_a_interior(values)
    for scheme in stack[1:]:
        np.testing.assert_array_equal(scheme.apply_a_interior(values), reference)


def test_run_shows_the_aborting_level_to_the_observer():
    problem = make_example(1.5)
    axis = build_uniform_axis(40, problem.extents[0], problem.origin[0])
    tmesh = build_time_mesh(200, 20.0)
    seen = []
    result = run(
        problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [axis], tmesh,
        observer=lambda level, t, values: seen.append((level, np.abs(values).max())),
    )
    assert result.blew_up
    assert seen[-1][0] == result.completed_levels - 1 < tmesh.n_steps
    assert seen[-1][1] > 1e100
    assert all(peak <= 1e100 for _, peak in seen[:-1])


def test_run_shows_every_level_and_returns_the_run_result():
    problem = make_example(2.5)
    axis = build_uniform_axis(20, problem.extents[0], problem.origin[0])
    tmesh = build_time_mesh(20, problem.horizon)
    seen = []
    result = run(
        problem, SchemeConfig(kind=SchemeKind.COMPACT_1D), [axis], tmesh,
        observer=lambda level, t, values: seen.append((level, t, values.copy())),
    )
    assert [level for level, _, _ in seen] == list(range(tmesh.n_steps + 1))
    assert [t for _, t, _ in seen] == list(tmesh.nodes)
    assert not result.blew_up and result.completed_levels == tmesh.n_steps + 1
    np.testing.assert_array_equal(result.v_prev, seen[-2][2])
    np.testing.assert_array_equal(result.v_last, seen[-1][2])



def test_study_reports_equal_run_errors_and_mesh_stats():
    kinds = ("compact1d", "second-order")
    ns = (80, 40, 60)
    reports = analysis.study([("E_1.5", "uniform", ns), ("smooth1d", "phi3", ns)], kinds)
    assert [(rep.problem, rep.scheme) for rep in reports] == [
        ("E_1.5", "compact1d"), ("E_1.5", "second-order"),
        ("phi3", "compact1d"), ("phi3", "second-order"),
    ]
    groups = [
        (make_example(1.5), lambda n: build_uniform_axis(n, 1.0, -0.5)),
        (make_smooth_nonuniform_problem(),
         lambda n: build_graded_axis(NODE_DISTRIBUTIONS["phi3"], n, 1.0, -0.5)),
    ]
    for (problem, axis_at), pair in zip(groups, (reports[:2], reports[2:])):
        for j, n in enumerate(sorted(ns)):
            axis = axis_at(n)
            m = step_count(problem, axis, kinds[0])
            for rep, (_, triple) in zip(pair, run_errors(problem, kinds, axis, m)):
                assert rep.results[j] == (n, triple)
    # the catalog alpha's theory on E_1.5; step statistics and M/N at N = 80 on phi3
    assert reports[0].gamma_th == dict(zip(analysis.NORM_NAMES, theoretical_orders(1.5, 4)))
    assert reports[0].extras == reports[1].extras == {}
    problem, axis_at = groups[1]
    stats = mesh_stats(axis_at(80))
    assert reports[2].extras == reports[3].extras == {
        "h_ratio": stats.ratio, "rho_min": stats.rho_min, "rho_max": stats.rho_max,
        "M_over_N": step_count(problem, axis_at(80), kinds[0]) / 80,
    }
