"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
that must equal its golden copy in golden/acceptance.txt.

Reference numbers are frozen benchmark values; tolerances are fixed here,
not calibrated at runtime.  Full-scale resolutions (N up to 3200) and the
roundoff-dominated smoothest cases run behind the CLI --full flag without
acceptance tolerances.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from compactwave.analysis import NORM_NAMES, fit_order, run_errors
from compactwave.mesh import (
    NODE_DISTRIBUTIONS,
    build_graded_axis,
    build_time_mesh,
    build_uniform_axis,
    mesh_stats,
)
from compactwave.operators import TridiagonalFactor, pair_appliers, step_factor, tridiag_second_diff
from compactwave.problems import EXAMPLE_ALPHAS, ProblemSpec, make_example, make_smooth_nonuniform_problem
from compactwave.schemes import Scheme, SchemeKind, operator_pair, step_count
from compactwave.solvers import (
    SpectralHandle,
    SplittingHandle,
    operator_pair_c0,
    pair_spectra,
)
from compactwave.stability import check_cfl, sharp_alpha2, verify_energy_bound
from oracles import assemble_dense_operator, dense, dense_solve_oracle, thomas_solve

EPS0 = math.sqrt(0.5)

# uniform-mesh reference values, (L2h, Ch, Eh) per smoothness parameter
REF_GAMMA_4TH = {
    1.5: (1.217, 0.742, 0.346),
    2.5: (2.007, 1.615, 1.167),
    3.5: (2.798, 2.403, 1.975),
}
REF_R200_4TH = {
    1.5: (0.635e-3, 0.475e-2, 0.201e-0),
    2.5: (0.734e-5, 0.406e-4, 0.188e-2),
    3.5: (0.160e-6, 0.111e-5, 0.422e-4),
}
REF_GAMMA_2ND_15 = (1.0, 2.0 / 3.0, 1.0 / 3.0)
REF_R200_2ND_15 = (0.272e-2, 0.180e-1, 0.404e-0)

# graded-mesh fitted-order targets (value, tolerance) per node distribution
REF_TABLE2_GAMMA = {
    "phi0": (4.0, 0.1),
    "phi1": (4.0, 0.1),
    "phi3": (4.0, 0.1),
    "phi4": (3.60, 0.1),
    "phi5": (3.02, 0.1),
    "phi6": (2.41, 0.15),
}

ACCEPT_N = (200, 400, 800)


# the ten ACCEPTANCE lines as printed, one per criterion, in order
GOLDEN_LINES = (Path(__file__).resolve().parent / "golden" / "acceptance.txt").read_text().splitlines()


def _report(number: int, ok: bool, detail: str) -> None:
    """Print the criterion's ACCEPTANCE line and check it against the golden
    file: a change that moves a printed figure updates the file and says why."""
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert line == GOLDEN_LINES[number - 1]


def _errors(problem, kind, axis, factor=math.sqrt(2.0)):
    """The run and error triple of one kind at the step rule's M."""
    [(result, triple)] = run_errors(problem, [kind], axis, step_count(problem, axis, kind, factor))
    return result, triple


def _uniform_study(alpha: float, kind: SchemeKind):
    # the step rule gives M = N: the time step equal to h
    problem = make_example(alpha)
    triples = []
    for n in ACCEPT_N:
        axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
        triples.append((n, _errors(problem, kind, axis)[1]))
    return triples


@pytest.fixture(scope="module")
def table1_fourth():
    return {alpha: _uniform_study(alpha, SchemeKind.COMPACT_1D) for alpha in REF_GAMMA_4TH}


@pytest.fixture(scope="module")
def table1_second():
    return {1.5: _uniform_study(1.5, SchemeKind.SECOND_ORDER)}


def test_criterion_1_exact_characteristic_scheme():
    # every catalog problem up to the last level inside the horizon,
    # M = floor(N a T / X); the timing bound is on the N = 20 runs, error
    # norms included
    err = 0.0
    elapsed = 0.0
    for alpha in EXAMPLE_ALPHAS:
        problem = make_example(alpha)
        for n in (20, 40, 200):
            axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
            start = time.perf_counter()
            _, triple = _errors(problem, SchemeKind.EXPLICIT_CHARACTERISTIC, axis)
            if n == 20:
                elapsed = max(elapsed, time.perf_counter() - start)
            err = max(err, triple.Ch)
    ok = err <= 1e-12 and elapsed < 0.1
    _report(
        1, ok,
        f"characteristic-mesh Ch error {err:.2E} (<=1e-12) on E_0.5..E_5.5, N = 20/40/200, "
        "every N = 20 run under 100 ms",
    )
    assert err <= 1e-12
    assert elapsed < 0.1


def test_criterion_2_table1_orders(table1_fourth):
    worst = 0.0
    for alpha, triples in table1_fourth.items():
        for norm, ref in zip(NORM_NAMES, REF_GAMMA_4TH[alpha]):
            points = [(n, t.as_dict()[norm]) for n, t in triples]
            gamma = fit_order(points).gamma
            worst = max(worst, abs(gamma - ref))
    ok = worst <= 0.12
    _report(2, ok, f"max |gamma - reference| = {worst:.3f} (<= 0.12)")
    assert ok


def test_criterion_3_table1_absolute_errors(table1_fourth):
    worst = 0.0
    for alpha, triples in table1_fourth.items():
        r200 = dict(triples)[200].as_dict()
        for norm, ref in zip(NORM_NAMES, REF_R200_4TH[alpha]):
            worst = max(worst, abs(r200[norm] / ref - 1.0))
    ok = worst <= 0.05
    _report(3, ok, f"max relative deviation of the N=200 norms = {worst * 100:.2f}% (<= 5%)")
    assert ok


def test_criterion_4_second_order_reference(table1_second):
    triples = table1_second[1.5]
    worst_gamma = 0.0
    worst_err = 0.0
    r200 = dict(triples)[200].as_dict()
    for norm, g_ref, r_ref in zip(NORM_NAMES, REF_GAMMA_2ND_15, REF_R200_2ND_15):
        points = [(n, t.as_dict()[norm]) for n, t in triples]
        worst_gamma = max(worst_gamma, abs(fit_order(points).gamma - g_ref))
        worst_err = max(worst_err, abs(r200[norm] / r_ref - 1.0))
    ok = worst_gamma <= 0.15 and worst_err <= 0.10
    _report(
        4,
        ok,
        f"2nd-order max |gamma - theory| = {worst_gamma:.3f} (<= 0.15), "
        f"max N=200 deviation = {worst_err * 100:.2f}% (<= 10%)",
    )
    assert ok


def test_criterion_5_table2_reproduction():
    problem = make_smooth_nonuniform_problem()
    worst = {}
    for name, (target, tol) in REF_TABLE2_GAMMA.items():
        phi = NODE_DISTRIBUTIONS[name]
        points = []
        for n in ACCEPT_N:
            axis = build_graded_axis(phi, n, problem.extents[0], problem.origin[0])
            points.append((n, _errors(problem, SchemeKind.COMPACT_1D, axis)[1].Ch))
        gamma = fit_order(points).gamma
        worst[name] = (gamma, target, tol)
    stats = mesh_stats(build_graded_axis(NODE_DISTRIBUTIONS["phi6"], 800, 1.0, -0.5))
    stats_ok = (
        abs(stats.ratio / 56.55 - 1.0) <= 0.005
        and abs(stats.rho_min / 0.4142 - 1.0) <= 0.005
    )
    orders_ok = all(abs(g - t) <= tol for g, t, tol in worst.values())
    detail = ", ".join(f"{k}:{v[0]:.3f}" for k, v in worst.items())
    _report(5, orders_ok and stats_ok, f"fitted orders {detail}; phi6 stats "
            f"ratio={stats.ratio:.2f} rho_min={stats.rho_min:.4f}")
    assert orders_ok
    assert stats_ok


def test_criterion_6_instability_reproduction():
    problem = make_smooth_nonuniform_problem()
    axis = build_uniform_axis(800, 1.0, -0.5)
    result, triple = _errors(problem, SchemeKind.COMPACT_1D, axis, 1.0 / math.sqrt(2.0))
    final_norm = triple.Ch
    ok = result.blew_up and final_norm > 1e10
    _report(6, ok, f"halved step rule: blow-up flag {result.blew_up}, Ch {final_norm:.2E} (> 1e10)")
    assert result.blew_up
    assert final_norm > 1e10


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = {"thomas": 0.0, "spectral": 0.0, "splitting": 0.0}

    for _ in range(100):
        n = int(rng.integers(3, 60))
        mesh = build_uniform_axis(n, float(rng.uniform(0.5, 2.0)))
        h_t = float(rng.uniform(0.0, 0.95)) * mesh.h / float(rng.uniform(0.5, 2.0))
        factor = step_factor(mesh, h_t, 1.0, 0)
        rhs = rng.standard_normal(n - 1)
        got = thomas_solve(factor, rhs)
        ref = dense_solve_oracle(dense(factor), rhs)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst["thomas"] = max(worst["thomas"], float(np.max(np.abs(got - ref))) / scale)

    for _ in range(100):
        dims = int(rng.integers(1, 4))
        meshes = [
            build_uniform_axis(int(rng.integers(3, 9 if dims > 1 else 40)), float(rng.uniform(0.5, 2.0)))
            for _ in range(dims)
        ]
        speeds = tuple(rng.uniform(0.4, 1.6, size=dims))
        pair = rng.choice(["sum_stiffsum", "prod_stiffprod"]) if dims == 2 else "prod_stiffprod"
        bound = operator_pair_c0(pair) * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
        h_t = 0.8 * math.sqrt(0.5 / bound)
        mu_b, mu_a = pair_spectra(meshes, speeds, pair)
        mass, stiffness = pair_appliers(pair, meshes, speeds)
        handle = SpectralHandle(
            mu_b + h_t**2 / 12.0 * mu_a, lambda v: mass(v) + h_t**2 / 12.0 * stiffness(v)
        )
        interior_shape = tuple(m.nodes.size - 2 for m in meshes)

        def apply(interior):
            full = np.zeros(tuple(m.nodes.size for m in meshes))
            full[tuple(slice(1, -1) for _ in meshes)] = interior
            return mass(full) + h_t**2 / 12.0 * stiffness(full)

        matrix = assemble_dense_operator(apply, interior_shape)
        rhs = rng.standard_normal(interior_shape)
        ref = dense_solve_oracle(matrix, rhs.reshape(-1)).reshape(interior_shape)
        got = handle.solve(rhs)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst["spectral"] = max(worst["spectral"], float(np.max(np.abs(got - ref))) / scale)

    for _ in range(100):
        dims = int(rng.integers(2, 4))
        meshes = [build_uniform_axis(int(rng.integers(3, 9)), float(rng.uniform(0.5, 2.0))) for _ in range(dims)]
        speeds = tuple(rng.uniform(0.4, 1.6, size=dims))
        h_t = 0.3 * min(m.h for m in meshes)
        factors = [step_factor(m, h_t, speeds[i], i) for i, m in enumerate(meshes)]
        handle = SplittingHandle(factors)
        interior_shape = tuple(m.nodes.size - 2 for m in meshes)

        def apply_split(interior):
            full = np.zeros(tuple(m.nodes.size for m in meshes))
            full[tuple(slice(1, -1) for _ in meshes)] = interior
            return handle.apply(full)

        matrix = assemble_dense_operator(apply_split, interior_shape)
        rhs = rng.standard_normal(interior_shape)
        ref = dense_solve_oracle(matrix, rhs.reshape(-1)).reshape(interior_shape)
        got = handle.solve(rhs)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst["splitting"] = max(worst["splitting"], float(np.max(np.abs(got - ref))) / scale)

    ok = all(v < 1e-11 for v in worst.values())
    detail = ", ".join(f"{k}={v:.2E}" for k, v in worst.items())
    _report(7, ok, f"worst kernel-vs-dense deviation over 100 instances each: {detail}")
    assert ok


def test_criterion_8_spectral_sharpness():
    rng = np.random.default_rng(88)
    worst_dev = 0.0
    min_gap = math.inf
    cases = [
        ("prod_stiffprod", 1),
        ("sum_stiffsum", 2),
        ("prod_stiffprod", 2),
        ("prod_residual_stiffprod", 2),
        ("prod_stiffsum", 3),
        ("prod_stiffprod", 3),
        ("prod_residual_stiffprod", 3),
    ]
    for pair, dims in cases:
        for _ in range(4):
            meshes = [
                build_uniform_axis(int(rng.integers(3, 9)), float(rng.uniform(0.5, 2.0)))
                for _ in range(dims)
            ]
            speeds = tuple(rng.uniform(0.4, 1.6, size=dims))
            h_t = 0.3 * min(m.h for m in meshes)
            alpha2 = sharp_alpha2(meshes, speeds, pair, h_t)
            apply_b, apply_a = pair_appliers(pair, meshes, speeds, h_t)
            # brute force over every tensor sine eigenvector
            grids = np.meshgrid(*(m.nodes for m in meshes), indexing="ij")
            best = 0.0
            for mode in np.ndindex(*(m.n_intervals - 1 for m in meshes)):
                vec = np.ones(tuple(m.nodes.size for m in meshes))
                for axis, m in enumerate(meshes):
                    vec = vec * np.sin(
                        np.pi * (mode[axis] + 1) * (grids[axis] - m.nodes[0]) / m.extent
                    )
                interior = tuple(slice(1, -1) for _ in meshes)
                ratio = float(np.sum(apply_a(vec) * vec[interior])) / float(
                    np.sum(apply_b(vec) * vec[interior])
                )
                best = max(best, ratio)
            worst_dev = max(worst_dev, abs(alpha2 - best) / best)
            c0 = operator_pair_c0(pair)
            bound = 6.0 * c0 * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
            min_gap = min(min_gap, 1.0 - alpha2 / bound)
    ok = worst_dev <= 1e-10 and min_gap > 0.0
    _report(
        8,
        ok,
        f"sharp-constant deviation {worst_dev:.2E} (<= 1e-10), "
        f"min bound gap 1 - alpha^2/(6 C0 sum a^2/h^2) = {min_gap:.3E} (> 0)",
    )
    assert ok


CERT_PLAN = [
    (SchemeKind.COMPACT_2D_SUM, (2,), 1000),
    (SchemeKind.COMPACT_3D_PROD_MASS, (3,), 1000),
    (SchemeKind.COMPACT_ND, (1, 2, 3), 1000),
    (SchemeKind.SPLITTING, (2, 3), 1000),
]


def test_criterion_9_energy_certificates():
    rng = np.random.default_rng(99)
    violations = 0
    total = 0
    worst_excess = -math.inf
    for kind, dims_cycle, count in CERT_PLAN:
        for i in range(count):
            dims = dims_cycle[i % len(dims_cycle)]
            n_list = [int(rng.integers(3, 7)) for _ in range(dims)]
            extents = [float(rng.uniform(0.5, 2.0)) for _ in range(dims)]
            speeds = tuple(float(rng.uniform(0.3, 1.8)) for _ in range(dims))
            meshes = [build_uniform_axis(n, x) for n, x in zip(n_list, extents)]
            pair = operator_pair(kind, dims)
            c0 = operator_pair_c0(pair)
            bound = c0 * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
            h_t = float(rng.uniform(0.2, 0.999)) * math.sqrt((1.0 - EPS0**2) / bound)
            report = check_cfl(pair, meshes, speeds, h_t, EPS0)
            assert report.passed
            m_steps = int(rng.integers(3, 7))
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
            scheme = Scheme(problem, kind, meshes, tmesh)
            u1n = rng.standard_normal(interior_shape)
            forcing = [rng.standard_normal(interior_shape) for _ in range(m_steps)]
            full0 = np.zeros(shape)
            full0[tuple(slice(1, -1) for _ in shape)] = rng.standard_normal(interior_shape)
            trajectory = scheme.march_data(full0, u1n, forcing)
            certs = verify_energy_bound(scheme, trajectory, u1n, forcing, EPS0)
            for which in ("strong", "weak"):
                cert = certs[which]
                total += 1
                worst_excess = max(worst_excess, cert.lhs - cert.rhs)
                if not cert.satisfied:
                    violations += 1
    ok = violations == 0
    _report(
        9,
        ok,
        f"{total} certificates (strong+weak over 4000 runs), {violations} violations, "
        f"worst lhs - rhs = {worst_excess:.2E}",
    )
    assert ok


def test_criterion_10_operator_identities():
    rng = np.random.default_rng(1010)
    worst_split = 0.0
    worst_mass = 0.0
    for dims in (2, 3):
        for _ in range(25):
            meshes = [
                build_uniform_axis(int(rng.integers(3, 9)), float(rng.uniform(0.5, 2.0)))
                for _ in range(dims)
            ]
            speeds = tuple(rng.uniform(0.4, 1.6, size=dims))
            h_t = float(rng.uniform(0.05, 0.4)) * min(m.h for m in meshes)
            shape = tuple(m.nodes.size for m in meshes)
            w = rng.standard_normal(shape)
            interior = tuple(slice(1, -1) for _ in meshes)

            factors = [step_factor(m, h_t, speeds[i], i) for i, m in enumerate(meshes)]
            lhs = SplittingHandle(factors).apply(w)
            split_mass, stiffness = pair_appliers("prod_residual_stiffprod", meshes, speeds, h_t)
            rhs = split_mass(w) + h_t**2 / 12.0 * stiffness(w)
            worst_split = max(worst_split, float(np.max(np.abs(lhs - rhs))))

            # product-minus-sum mass identity
            delta = pair_appliers("prod_stiffprod", meshes, speeds)[0](w) - pair_appliers(
                "sum_stiffsum", meshes, speeds
            )[0](w)
            h2 = [m.h**2 / 12.0 for m in meshes]
            lam = [TridiagonalFactor(i, *tridiag_second_diff(m)) for i, m in enumerate(meshes)]

            def mixed(*axes):
                # prod_{i in axes} Lambda_i w on the interior nodes
                out = w
                for i in axes:
                    out = lam[i].apply(out)
                return out[tuple(slice(None) if i in axes else slice(1, -1) for i in range(dims))]

            if dims == 2:
                expected = h2[0] * h2[1] * mixed(0, 1)
            else:
                expected = (
                    h2[0] * h2[1] * mixed(0, 1)
                    + h2[0] * h2[2] * mixed(0, 2)
                    + h2[1] * h2[2] * mixed(1, 2)
                    + h2[0] * h2[1] * h2[2] * mixed(0, 1, 2)
                )
            worst_mass = max(worst_mass, float(np.max(np.abs(delta - expected))))
    ok = worst_split <= 1e-13 and worst_mass <= 1e-13
    _report(
        10,
        ok,
        f"splitting identity residual {worst_split:.2E}, "
        f"mass-product identity residual {worst_mass:.2E} (<= 1e-13)",
    )
    assert ok
