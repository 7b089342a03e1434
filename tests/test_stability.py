import dataclasses
import math

import numpy as np
import pytest

from compactwave import stability
from compactwave.mesh import (
    NODE_DISTRIBUTIONS,
    build_graded_axis,
    build_time_mesh,
    build_uniform_axis,
)
from compactwave.operators import pair_appliers
from compactwave.problems import (
    make_example,
    make_sine_mode_problem,
    make_smooth_nonuniform_problem,
)
from compactwave.schemes import _KINDS, Scheme, SchemeKind, operator_pair
from compactwave.solvers import operator_pair_c0
from compactwave.stability import check_cfl, largest_step, sharp_alpha2, verify_energy_bound

from oracles import energy_bound_per_level
from test_schemes import zero_problem

EPS0 = math.sqrt(0.5)


def test_cfl_marginal_band_reproduces_step_rule_case():
    a = 1.0 / math.sqrt(5.0)
    axis = build_uniform_axis(800, 1.0, -0.5)
    report = check_cfl("prod_stiffprod", [axis], (a,), 1.0 / 505, EPS0)
    assert report.value == pytest.approx(0.5019, abs=2e-4)
    assert not report.passed
    assert report.marginal
    assert report.c0 == 1.0


def test_cfl_small_step_full_margin():
    axis = build_uniform_axis(10, 1.0)
    report = check_cfl("prod_stiffprod", [axis], (1.0,), 1e-8, EPS0)
    assert report.passed
    assert report.margin == pytest.approx(1.0 - EPS0**2, abs=1e-10)


def test_cfl_c0_for_sum_pair():
    meshes = [build_uniform_axis(8, 1.0), build_uniform_axis(8, 1.0)]
    report = check_cfl("sum_stiffsum", meshes, (1.0, 1.0), 0.01, EPS0)
    assert report.c0 == pytest.approx(4.0 / 3.0)


def test_cfl_monotone_in_step():
    axis = build_uniform_axis(20, 1.0)
    steps = np.linspace(1e-4, 0.2, 50)
    passed = [check_cfl("prod_stiffprod", [axis], (1.0,), float(ht), EPS0).passed for ht in steps]
    # once failing, never passes again as the step grows
    assert passed == sorted(passed, reverse=True)


def test_largest_step_meets_the_cfl_threshold_for_every_kind():
    # at the largest step the condition's value is its threshold, for each
    # pair and dimension of the kind table
    rng = np.random.default_rng(12)
    for pair, dims in sorted({(k.pair, d) for k in _KINDS.values() if k.pair for d in k.dims}):
        meshes = [build_uniform_axis(int(rng.integers(3, 9)), rng.uniform(0.5, 2.0)) for _ in range(dims)]
        speeds = tuple(rng.uniform(0.3, 1.8, size=dims))
        report = check_cfl(pair, meshes, speeds, largest_step(pair, meshes, speeds, EPS0), EPS0)
        assert report.value == pytest.approx(report.threshold, rel=1e-14, abs=0.0), (pair, dims)


def test_cfl_rejects_bad_eps0():
    axis = build_uniform_axis(8, 1.0)
    for eps0 in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            check_cfl("prod_stiffprod", [axis], (1.0,), 0.01, eps0)


def test_sharp_alpha2_1d_formula():
    axis = build_uniform_axis(12, 1.0)
    lam_max = 4.0 / axis.h**2 * math.sin(math.pi * 11 / 24) ** 2
    expected = lam_max / (1.0 - axis.h**2 * lam_max / 12.0)
    got = sharp_alpha2([axis], (1.0,), "prod_stiffprod")
    assert got == pytest.approx(expected, rel=1e-12)
    assert got < 6.0 / axis.h**2


def test_sharp_alpha2_asymptotic():
    # 1 - alpha^2 h^2 / 6 decays like 1/N^2
    gaps = {}
    for n in (16, 32, 64):
        axis = build_uniform_axis(n, 1.0)
        alpha2 = sharp_alpha2([axis], (1.0,), "prod_stiffprod")
        gaps[n] = 1.0 - alpha2 * axis.h**2 / 6.0
    assert gaps[16] / gaps[32] == pytest.approx(4.0, rel=0.15)
    assert gaps[32] / gaps[64] == pytest.approx(4.0, rel=0.15)


@pytest.mark.parametrize(
    "pair,dims",
    [
        ("prod_stiffprod", 1),
        ("sum_stiffsum", 2),
        ("prod_stiffprod", 2),
        ("prod_residual_stiffprod", 2),
        ("prod_stiffsum", 3),
        ("prod_stiffprod", 3),
        ("prod_residual_stiffprod", 3),
    ],
)
def test_sharp_alpha2_matches_bruteforce_rayleigh(pair, dims):
    rng = np.random.default_rng(dims * 7 + len(pair))
    meshes = [build_uniform_axis(int(rng.integers(3, 9)), float(rng.uniform(0.5, 2.0))) for _ in range(dims)]
    speeds = tuple(rng.uniform(0.4, 1.6, size=dims))
    h_t = 0.02
    apply_b, apply_a = pair_appliers(pair, meshes, speeds, h_t)
    shape = tuple(m.nodes.size for m in meshes)
    interior = tuple(slice(1, -1) for _ in meshes)
    best = 0.0
    grids = np.meshgrid(*(m.nodes for m in meshes), indexing="ij")
    for mode in np.ndindex(*(m.n_intervals - 1 for m in meshes)):
        vec = np.ones(shape)
        for axis, m in enumerate(meshes):
            vec = vec * np.sin(np.pi * (mode[axis] + 1) * (grids[axis] - m.nodes[0]) / m.extent)
        num = float(np.sum(apply_a(vec) * vec[interior]))
        den = float(np.sum(apply_b(vec) * vec[interior]))
        best = max(best, num / den)
    got = sharp_alpha2(meshes, speeds, pair, h_t)
    assert got == pytest.approx(best, rel=1e-10)
    c0 = operator_pair_c0(pair)
    bound = 6.0 * c0 * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
    assert got < bound


# ---------------------------------------------------------------------------
# energy certificates


DEFAULT_ESTIMATES = {"strong", "strong_delta_f", "weak"}


def random_run(kind, dims, rng, m_steps=None):
    """stability.random_run on random uniform meshes and speeds, at a random
    fraction of the largest step the step condition allows."""
    n_list = [int(rng.integers(4, 8)) for _ in range(dims)]
    extents = [float(rng.uniform(0.5, 2.0)) for _ in range(dims)]
    speeds = tuple(float(rng.uniform(0.3, 1.8)) for _ in range(dims))
    meshes = [build_uniform_axis(n, x) for n, x in zip(n_list, extents)]
    pair = operator_pair(kind, dims)
    h_t = float(rng.uniform(0.2, 0.999)) * largest_step(pair, meshes, speeds, EPS0)
    if m_steps is None:
        m_steps = int(rng.integers(3, 9))
    return stability.random_run(kind, meshes, speeds, h_t, m_steps, rng)


def oracle_bound(scheme, trajectory, u1n, forcing, which):
    return energy_bound_per_level(
        trajectory, scheme.meshes, scheme.speeds, scheme.h_t, scheme.pair, u1n, forcing,
        which, EPS0,
    )


CERT_KINDS = [
    (SchemeKind.COMPACT_1D, 1),
    (SchemeKind.COMPACT_2D_SUM, 2),
    (SchemeKind.COMPACT_3D_PROD_MASS, 3),
    (SchemeKind.COMPACT_ND, 2),
    (SchemeKind.SPLITTING, 2),
    (SchemeKind.SPLITTING, 3),
]


@pytest.mark.parametrize("kind,dims", CERT_KINDS)
def test_energy_bounds_random_instances(kind, dims):
    rng = np.random.default_rng(42 + dims)
    for _ in range(20):
        certs = verify_energy_bound(*random_run(kind, dims, rng), EPS0)
        for which in ("strong", "weak"):
            assert certs[which].satisfied, (kind, which)


BATCH_KINDS = [
    (SchemeKind.COMPACT_1D, 1),
    (SchemeKind.COMPACT_2D_SUM, 2),
    (SchemeKind.COMPACT_3D_PROD_MASS, 3),
    (SchemeKind.COMPACT_ND, 2),
    (SchemeKind.COMPACT_ND, 3),
    (SchemeKind.SPLITTING, 2),
    (SchemeKind.SPLITTING, 3),
]


@pytest.mark.parametrize("kind,dims", BATCH_KINDS)
def test_batched_energy_bound_matches_per_level_oracle(kind, dims):
    rng = np.random.default_rng(70 + dims)
    for _ in range(10):
        run_data = random_run(kind, dims, rng)
        certs = verify_energy_bound(*run_data, EPS0)
        for which in ("strong", "weak"):
            cert = certs[which]
            lhs, rhs = oracle_bound(*run_data, which)
            assert cert.lhs == pytest.approx(lhs, rel=1e-14, abs=0.0), (kind, which)
            assert cert.rhs == pytest.approx(rhs, rel=1e-14, abs=0.0), (kind, which)


def _forced_sine_problem():
    return dataclasses.replace(
        make_sine_mode_problem((1.0, 1.3), (1.0, 0.8), (2, 1)),
        u1_fn=lambda x, y: x * (1.0 - x) * np.cos(y),
        f_fn=lambda x, y, t: np.sin(3.0 * x + t) * np.cos(2.0 * y),
    )


MARCH_MESHES = [build_uniform_axis(6, 1.0), build_uniform_axis(5, 0.8)]


def _own_data_cases():
    """(problem, kind, meshes, time mesh) of every data type: piecewise
    (E_2.5), callable (smooth1d on a graded axis, the forced 2D sine mode)
    and none (the free 2D sine mode)."""
    example = make_example(2.5)
    uniform = build_uniform_axis(20, example.extents[0], example.origin[0])
    smooth = make_smooth_nonuniform_problem()
    graded = build_graded_axis(
        NODE_DISTRIBUTIONS["phi3"], 20, smooth.extents[0], smooth.origin[0]
    )
    forced = _forced_sine_problem()
    free = make_sine_mode_problem((1.0, 1.3), (1.0, 0.8), (2, 1))
    return [
        (example, SchemeKind.COMPACT_1D, [uniform], build_time_mesh(20, example.horizon)),
        (example, SchemeKind.SECOND_ORDER, [uniform], build_time_mesh(20, example.horizon)),
        (smooth, SchemeKind.COMPACT_1D, [graded], build_time_mesh(30, smooth.horizon)),
        (forced, SchemeKind.COMPACT_ND, MARCH_MESHES, build_time_mesh(5, 0.2)),
        (forced, SchemeKind.SPLITTING, MARCH_MESHES, build_time_mesh(5, 0.2)),
        (free, SchemeKind.COMPACT_2D_SUM, MARCH_MESHES, build_time_mesh(5, 0.2)),
    ]


def test_march_data_with_own_data_equals_run():
    # run marches the scheme's own u1n and forcing table f^0 .. f^{M-1}
    # through the path of march_data, for every data type
    for problem, kind, meshes, tmesh in _own_data_cases():
        scheme = Scheme(problem, kind, meshes, tmesh)
        m_steps = tmesh.n_steps
        forcing = [scheme.fn_table(m) for m in range(m_steps)]
        levels = scheme.march_data(scheme.initial_level(), scheme.u1n, forcing)
        stored = []
        result = scheme.run(observer=lambda level, t, values: stored.append(values))
        assert result.stable, (problem.name, kind)
        assert len(levels) == len(stored) == m_steps + 1
        for got, expected in zip(levels, stored):
            assert np.array_equal(got, expected), (problem.name, kind)
        with pytest.raises(ValueError, match=f"{m_steps - 1} forcing levels for {m_steps} time"):
            scheme.march_data(scheme.initial_level(), scheme.u1n, forcing[:-1])


def test_march_data_ends_at_the_aborting_level():
    scheme = Scheme(
        _forced_sine_problem(), SchemeKind.COMPACT_ND, MARCH_MESHES, build_time_mesh(5, 0.2)
    )
    forcing = [scheme.fn_table(m) for m in range(5)]
    forcing[2] = np.full_like(forcing[2], 1e110)  # v^3 = v^{2+1} blows up
    levels = scheme.march_data(scheme.initial_level(), scheme.u1n, forcing)
    assert len(levels) == 4
    assert all(np.max(np.abs(v)) <= 1e100 for v in levels[:3])
    assert np.max(np.abs(levels[3])) > 1e100


@pytest.mark.parametrize("kind,dims", BATCH_KINDS)
def test_march_data_levels_satisfy_the_recursion_with_given_data(kind, dims):
    # residuals of (B + h_t^2/12 A)(v^1 - v^0)/h_t = u1n + (h_t/2)(f^0 - A v^0)
    # and (B + h_t^2/12 A)(v^{m+1} - 2v^m + v^{m-1}) = h_t^2 (f^m - A v^m)
    rng = np.random.default_rng(90 + dims)
    scheme, levels, u1n, forcing = random_run(kind, dims, rng)
    h_t = scheme.h_t
    s_op, a_op = scheme.apply_step_operator_interior, scheme.apply_a_interior
    inner = tuple(slice(1, -1) for _ in scheme.meshes)
    first = s_op(levels[1] - levels[0]) / h_t - u1n - 0.5 * h_t * (forcing[0] - a_op(levels[0]))
    assert np.max(np.abs(first)) < 1e-10 * max(1.0, np.max(np.abs(levels[1][inner])) / h_t)
    for m in range(1, len(forcing)):
        res = s_op(levels[m + 1] - 2.0 * levels[m] + levels[m - 1]) - h_t**2 * (
            forcing[m] - a_op(levels[m])
        )
        assert np.max(np.abs(res)) < 1e-12 * max(1.0, np.max(np.abs(levels[m + 1][inner])))


@pytest.mark.parametrize("which", ["strong", "weak"])
def test_energy_bound_non_finite_level_is_not_satisfied(which):
    rng = np.random.default_rng(6)
    scheme, trajectory, u1n, forcing = random_run(SchemeKind.COMPACT_ND, 2, rng)
    trajectory[2] = trajectory[2].copy()
    trajectory[2][1, 1] = np.nan
    certs = verify_energy_bound(scheme, trajectory, u1n, forcing, EPS0)
    assert math.isnan(certs[which].lhs) and not certs[which].satisfied
    assert not any(cert.satisfied for cert in certs.values())


def test_energy_bound_zero_data():
    axis = build_uniform_axis(8, 1.0)
    scheme = Scheme(zero_problem(1), SchemeKind.COMPACT_1D, [axis], build_time_mesh(4, 0.04))
    levels = [np.zeros(9) for _ in range(5)]
    certs = verify_energy_bound(scheme, levels, np.zeros(7), [np.zeros(7)] * 4, EPS0)
    assert set(certs) == DEFAULT_ESTIMATES
    for cert in certs.values():
        assert cert.lhs == 0.0 and cert.rhs == 0.0 and cert.satisfied


def test_energy_bound_alt_forcing_variant():
    rng = np.random.default_rng(3)
    certs = verify_energy_bound(*random_run(SchemeKind.COMPACT_1D, 1, rng), EPS0)
    assert certs["strong_delta_f"].satisfied
    # the same left side as the default strong estimate, another free-term part
    assert certs["strong_delta_f"].lhs == certs["strong"].lhs


@pytest.mark.parametrize("kind,dims", BATCH_KINDS)
def test_single_step_run_gets_every_default_estimate(kind, dims):
    # one step: no forcing differences, so the delta_f sum is empty
    rng = np.random.default_rng(110 + dims)
    for _ in range(3):
        run_data = random_run(kind, dims, rng, m_steps=1)
        certs = verify_energy_bound(*run_data, EPS0)
        assert set(certs) == DEFAULT_ESTIMATES
        assert all(cert.satisfied for cert in certs.values()), kind
        for which in ("strong", "weak"):
            lhs, rhs = oracle_bound(*run_data, which)
            assert certs[which].lhs == pytest.approx(lhs, rel=1e-14, abs=0.0)
            assert certs[which].rhs == pytest.approx(rhs, rel=1e-14, abs=0.0)


def test_energy_bound_telescoped_forcing_variant():
    # forcing given as a forward difference of a potential: the weak bound
    # admits the telescoped representation
    rng = np.random.default_rng(4)
    kind, dims = SchemeKind.COMPACT_1D, 1
    n = 10
    meshes = [build_uniform_axis(n, 1.0)]
    speeds = (1.0,)
    h_t = 0.5 * largest_step(operator_pair(kind, dims), meshes, speeds, EPS0)
    m_steps = 6
    g_series = [rng.standard_normal(n - 1) for _ in range(m_steps + 1)]
    forcing = [(g_series[m + 1] - g_series[m]) / h_t for m in range(m_steps)]
    scheme = Scheme(zero_problem(1), kind, meshes, build_time_mesh(m_steps, m_steps * h_t))
    u1n = rng.standard_normal(n - 1)
    full0 = np.zeros(n + 1)
    full0[1:-1] = rng.standard_normal(n - 1)
    trajectory = scheme.march_data(full0, u1n, forcing)
    certs = verify_energy_bound(scheme, trajectory, u1n, forcing, EPS0, g_series=g_series)
    assert certs["weak_delta_g"].satisfied
    assert certs["weak_delta_g"].lhs == certs["weak"].lhs
    # the telescoped estimate is there only when the g levels are given
    assert set(certs) == DEFAULT_ESTIMATES | {"weak_delta_g"}
    assert set(verify_energy_bound(scheme, trajectory, u1n, forcing, EPS0)) == DEFAULT_ESTIMATES


def test_energy_bound_rejects_bad_eps0():
    rng = np.random.default_rng(8)
    run_data = random_run(SchemeKind.COMPACT_1D, 1, rng)
    for eps0 in (0.0, 1.0):
        with pytest.raises(ValueError, match="eps0"):
            verify_energy_bound(*run_data, eps0)
