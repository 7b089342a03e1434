import dataclasses
import math

import numpy as np
import pytest

from compactwave.mesh import build_time_mesh, build_uniform_axis
from compactwave.operators import (
    GridFunction,
    product_average,
    splitting_residual,
    stiffness_product,
    stiffness_sum,
    sum_average,
)
from compactwave.problems import ProblemSpec, make_sine_mode_problem
from compactwave.schemes import SchemeConfig, SchemeKind, assemble, operator_pair
from compactwave.solvers import operator_pair_c0, pair_spectra, sine_coefficients
from compactwave.stability import (
    check_cfl,
    initial_velocity_term_eps0_zero,
    norm_0h,
    sharp_alpha2,
    verify_energy_bound,
)

from oracles import energy_bound_per_level

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


def _apply_pair(pair, meshes, speeds, h_t):
    def apply_b(gf):
        if pair == "sum_stiffsum":
            return sum_average(gf).values
        base = product_average(gf).values
        if pair == "prod_residual_stiffprod":
            base = base + splitting_residual(gf, speeds, h_t).values
        return base

    def apply_a(gf):
        if pair in ("sum_stiffsum", "prod_stiffsum"):
            return stiffness_sum(gf, speeds).values
        return stiffness_product(gf, speeds).values

    return apply_b, apply_a


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
    apply_b, apply_a = _apply_pair(pair, meshes, speeds, h_t)
    shape = tuple(m.nodes.size for m in meshes)
    interior = tuple(slice(1, -1) for _ in meshes)
    best = 0.0
    grids = np.meshgrid(*(m.nodes for m in meshes), indexing="ij")
    for mode in np.ndindex(*(m.n_intervals - 1 for m in meshes)):
        vec = np.ones(shape)
        for axis, m in enumerate(meshes):
            vec = vec * np.sin(np.pi * (mode[axis] + 1) * (grids[axis] - m.nodes[0]) / m.extent)
        gf = GridFunction(tuple(meshes), vec)
        num = float(np.sum(apply_a(gf)[interior] * vec[interior]))
        den = float(np.sum(apply_b(gf)[interior] * vec[interior]))
        best = max(best, num / den)
    got = sharp_alpha2(meshes, speeds, pair, h_t if pair == "prod_residual_stiffprod" else None)
    assert got == pytest.approx(best, rel=1e-10)
    c0 = operator_pair_c0(pair)
    bound = 6.0 * c0 * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
    assert got < bound


# ---------------------------------------------------------------------------
# energy certificates


def random_run(kind, dims, rng, step_fraction=None):
    n_list = [int(rng.integers(4, 8)) for _ in range(dims)]
    extents = [float(rng.uniform(0.5, 2.0)) for _ in range(dims)]
    speeds = tuple(float(rng.uniform(0.3, 1.8)) for _ in range(dims))
    meshes = [build_uniform_axis(n, x) for n, x in zip(n_list, extents)]
    pair = operator_pair(kind, dims)
    c0 = operator_pair_c0(pair)
    bound = c0 * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
    frac = step_fraction if step_fraction is not None else float(rng.uniform(0.2, 0.999))
    h_t = frac * math.sqrt((1.0 - EPS0**2) / bound)
    m_steps = int(rng.integers(3, 9))
    shape = tuple(m.nodes.size for m in meshes)
    interior_shape = tuple(s - 2 for s in shape)
    problem = ProblemSpec(
        name="random",
        speeds=speeds,
        origin=tuple(m.nodes[0] for m in meshes),
        extents=tuple(m.extent for m in meshes),
        horizon=m_steps * h_t,
        u0=lambda *xs: np.zeros_like(xs[0]),
    )
    tmesh = build_time_mesh(m_steps, m_steps * h_t)
    scheme = assemble(problem, SchemeConfig(kind=kind), meshes, tmesh)
    u1n = rng.standard_normal(interior_shape)
    forcing = [rng.standard_normal(interior_shape) for _ in range(m_steps)]
    full0 = np.zeros(shape)
    full0[tuple(slice(1, -1) for _ in shape)] = rng.standard_normal(interior_shape)
    trajectory = scheme.march_data(full0, u1n, forcing)
    return trajectory, meshes, speeds, h_t, pair, u1n, forcing


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
        trajectory, meshes, speeds, h_t, pair, u1n, forcing = random_run(kind, dims, rng)
        for which in ("strong", "weak"):
            cert = verify_energy_bound(
                trajectory, meshes, speeds, h_t, pair, u1n, forcing, which, EPS0
            )
            assert cert.satisfied, (kind, which)


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
        for which in ("strong", "weak"):
            cert = verify_energy_bound(*run_data, which, EPS0)
            lhs, rhs = energy_bound_per_level(*run_data, which, EPS0)
            assert cert.lhs == pytest.approx(lhs, rel=1e-14, abs=0.0), (kind, which)
            assert cert.rhs == pytest.approx(rhs, rel=1e-14, abs=0.0), (kind, which)


def _forced_sine_problem():
    return dataclasses.replace(
        make_sine_mode_problem((1.0, 1.3), (1.0, 0.8), (2, 1)),
        u1_fn=lambda x, y: x * (1.0 - x) * np.cos(y),
        f_fn=lambda x, y, t: np.sin(3.0 * x + t) * np.cos(2.0 * y),
    )


MARCH_MESHES = [build_uniform_axis(6, 1.0), build_uniform_axis(5, 0.8)]


def test_march_data_with_own_data_equals_run():
    problem = _forced_sine_problem()
    meshes = MARCH_MESHES
    tmesh = build_time_mesh(5, 0.2)
    for kind in (SchemeKind.COMPACT_ND, SchemeKind.SPLITTING):
        scheme = assemble(problem, SchemeConfig(kind=kind), meshes, tmesh)
        forcing = [scheme.fn0] + [scheme.fn_table(level) for level in range(1, 5)]
        levels = scheme.march_data(scheme.initial_level(), scheme.u1n, forcing)
        stored = scheme.run(store_trajectory=True).trajectory
        assert len(levels) == len(stored) == 6
        for got, expected in zip(levels, stored):
            assert np.array_equal(got, expected)
        with pytest.raises(ValueError, match="4 forcing levels for 5 time steps"):
            scheme.march_data(scheme.initial_level(), scheme.u1n, forcing[:4])


@pytest.mark.parametrize("kind,dims", BATCH_KINDS)
def test_march_data_levels_satisfy_the_recursion_with_given_data(kind, dims):
    # residuals of (B + h_t^2/12 A)(v^1 - v^0)/h_t = u1n + (h_t/2)(f^0 - A v^0)
    # and (B + h_t^2/12 A)(v^{m+1} - 2v^m + v^{m-1}) = h_t^2 (f^m - A v^m)
    rng = np.random.default_rng(90 + dims)
    levels, meshes, speeds, h_t, _, u1n, forcing = random_run(kind, dims, rng)
    m_steps = len(forcing)
    problem = ProblemSpec(
        name="random", speeds=speeds, origin=(0.0,) * dims,
        extents=tuple(m.extent for m in meshes), horizon=m_steps * h_t,
        u0=lambda *xs: np.zeros_like(xs[0]),
    )
    tmesh = build_time_mesh(m_steps, m_steps * h_t)
    scheme = assemble(problem, SchemeConfig(kind=kind), meshes, tmesh)
    s_op, a_op = scheme.apply_step_operator_interior, scheme.apply_a_interior
    inner = tuple(slice(1, -1) for _ in meshes)
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
    trajectory, *rest = random_run(SchemeKind.COMPACT_ND, 2, rng)
    trajectory[2] = trajectory[2].copy()
    trajectory[2][1, 1] = np.nan
    cert = verify_energy_bound(trajectory, *rest, which, EPS0)
    assert math.isnan(cert.lhs) and not cert.satisfied


def test_energy_bound_zero_data():
    rng = np.random.default_rng(0)
    axis = build_uniform_axis(8, 1.0)
    tmesh_levels = [np.zeros(9) for _ in range(5)]
    cert = verify_energy_bound(
        tmesh_levels, [axis], (1.0,), 0.01, "prod_stiffprod",
        np.zeros(7), [np.zeros(7)] * 4, "strong", EPS0,
    )
    assert cert.lhs == 0.0 and cert.rhs == 0.0 and cert.satisfied


def test_energy_bound_alt_forcing_variant():
    rng = np.random.default_rng(3)
    trajectory, meshes, speeds, h_t, pair, u1n, forcing = random_run(
        SchemeKind.COMPACT_1D, 1, rng
    )
    cert = verify_energy_bound(
        trajectory, meshes, speeds, h_t, pair, u1n, forcing, "strong", EPS0,
        f_variant="delta_f",
    )
    assert cert.satisfied


def test_energy_bound_telescoped_forcing_variant():
    # forcing given as a forward difference of a potential: the weak bound
    # admits the telescoped representation
    rng = np.random.default_rng(4)
    kind, dims = SchemeKind.COMPACT_1D, 1
    n = 10
    meshes = [build_uniform_axis(n, 1.0)]
    speeds = (1.0,)
    pair = operator_pair(kind, dims)
    bound = sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
    h_t = 0.5 * math.sqrt((1.0 - EPS0**2) / bound)
    m_steps = 6
    g_series = [rng.standard_normal(n - 1) for _ in range(m_steps + 1)]
    forcing = [(g_series[m + 1] - g_series[m]) / h_t for m in range(m_steps)]
    problem = ProblemSpec(
        name="random", speeds=speeds, origin=(0.0,), extents=(1.0,),
        horizon=m_steps * h_t, u0=lambda x: np.zeros_like(x),
    )
    tmesh = build_time_mesh(m_steps, m_steps * h_t)
    scheme = assemble(problem, SchemeConfig(kind=kind), meshes, tmesh)
    u1n = rng.standard_normal(n - 1)
    full0 = np.zeros(n + 1)
    full0[1:-1] = rng.standard_normal(n - 1)
    trajectory = scheme.march_data(full0, u1n, forcing)
    cert = verify_energy_bound(
        trajectory, meshes, speeds, h_t, pair, u1n, forcing, "weak", EPS0,
        f_variant="delta_g", g_series=g_series,
    )
    assert cert.satisfied


def test_step_weighted_norm_bounds():
    rng = np.random.default_rng(5)
    axis = build_uniform_axis(12, 1.0)
    speeds = (1.0,)
    pair = "prod_stiffprod"
    sigma = 1.0 / 12.0
    bound = sharp_alpha2([axis], speeds, pair)
    # (1/4 - sigma) h_t^2 alpha^2 <= 1 - eps0^2
    h_t = math.sqrt((1.0 - EPS0**2) / ((0.25 - sigma) * bound))
    w = rng.standard_normal(11)
    mu_b, _ = pair_spectra([axis], speeds, pair)
    coeffs = sine_coefficients(w)
    norm_b = math.sqrt(0.5 * float(np.sum(coeffs**2 * mu_b)))
    value = norm_0h(w, [axis], speeds, pair, sigma, h_t)
    assert EPS0 * norm_b <= value + 1e-12
    assert value <= norm_b + 1e-12  # sigma < 1/4


def test_eps0_zero_diagnostic_runs():
    rng = np.random.default_rng(6)
    axis = build_uniform_axis(10, 1.0)
    value = initial_velocity_term_eps0_zero(
        rng.standard_normal(9), [axis], (1.0,), "prod_stiffprod", 1.0 / 12.0, 0.05
    )
    assert value > 0.0 and math.isfinite(value)
