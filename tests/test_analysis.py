import dataclasses
import math

import numpy as np
import pytest

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
from compactwave.mesh import build_time_mesh, build_uniform_axis
from compactwave.problems import ProblemSpec, make_example
from compactwave.schemes import (
    SchemeConfig,
    SchemeKind,
    assemble,
    run,
    step_count,
)


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
    # pairwise, so the two agree to the summation bound n * eps
    n, m_steps = 800, 6
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
# lockstep studies


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


@pytest.mark.parametrize("unstable_first", [True, False])
def test_lockstep_blowup_reports_inf_and_keeps_the_stable_triple(unstable_first):
    # Courant number a h_t / h = 1.79: compact1d (sigma = 1/12) blows up,
    # the sigma = 1/2 second-order scheme is unconditionally stable
    problem = dataclasses.replace(make_example(1.5), horizon=20.0)
    axis = build_uniform_axis(40, problem.extents[0], problem.origin[0])
    unstable, stable = SchemeKind.COMPACT_1D, SchemeKind.SECOND_ORDER
    kinds = [unstable, stable] if unstable_first else [stable, unstable]
    shared = dict(zip(kinds, run_errors(problem, kinds, axis, 200)))
    separate = {kind: run_errors(problem, [kind], axis, 200)[0] for kind in kinds}
    assert shared[unstable][0].blew_up and separate[unstable][0].blew_up
    assert shared[unstable][1] == separate[unstable][1] == ErrorTriple(math.inf, math.inf, math.inf)
    assert shared[stable][1] == separate[stable][1]
    assert math.isfinite(shared[stable][1].Ch)
    tmesh = build_time_mesh(200, 20.0)
    [expected] = _separate_triples(problem, [SchemeConfig(stable)], axis, tmesh)
    assert shared[stable][1] == expected


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


def test_march_yields_every_level_and_returns_the_run_result():
    problem = make_example(2.5)
    axis = build_uniform_axis(20, problem.extents[0], problem.origin[0])
    tmesh = build_time_mesh(20, problem.horizon)
    config = SchemeConfig(kind=SchemeKind.COMPACT_1D)
    levels = assemble(problem, config, [axis], tmesh).march()
    seen = []
    while True:
        try:
            level, t, values = next(levels)
        except StopIteration as done:
            result = done.value
            break
        seen.append((level, t, values.copy()))
    assert [level for level, _, _ in seen] == list(range(tmesh.n_steps + 1))
    assert [t for _, t, _ in seen] == list(tmesh.nodes)
    stored = []
    reference = run(
        problem, config, [axis], tmesh,
        observer=lambda level, t, values: stored.append(values.copy()),
    )
    assert not result.blew_up and result.completed_levels == reference.completed_levels
    np.testing.assert_array_equal(result.v_last, reference.v_last)
    assert len(stored) == len(seen)
    for (_, _, values), expected in zip(seen, stored):
        np.testing.assert_array_equal(values, expected)
