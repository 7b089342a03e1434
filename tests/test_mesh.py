import math

import numpy as np
import pytest

from compactwave.mesh import (
    NODE_DISTRIBUTIONS,
    AxisMesh,
    MeshError,
    TimeMesh,
    build_graded_axis,
    build_time_mesh,
    build_uniform_axis,
    mesh_stats,
    select_time_step_count,
)


def test_uniform_axis_small():
    axis = build_uniform_axis(2, 1.0, 0.0)
    assert np.allclose(axis.nodes, [0.0, 0.5, 1.0])
    assert axis.uniform


def test_uniform_axis_table_row():
    axis = build_uniform_axis(800, 1.0, -0.5)
    stats = mesh_stats(axis)
    assert stats.h_min == pytest.approx(1.0 / 800, rel=1e-14)
    assert stats.h_max == pytest.approx(1.0 / 800, rel=1e-14)
    assert stats.rho_min == pytest.approx(1.0, abs=1e-13)
    assert stats.rho_max == pytest.approx(1.0, abs=1e-13)


def test_degenerate_axis_rejected():
    with pytest.raises(MeshError):
        build_uniform_axis(1, 1.0)
    with pytest.raises(MeshError):
        build_uniform_axis(10, -1.0)
    with pytest.raises(MeshError):
        AxisMesh(np.array([0.0, 0.5, 0.5, 1.0]))


def test_graded_identity_matches_uniform():
    uniform = build_uniform_axis(4, 1.0, 0.0)
    graded = build_graded_axis(NODE_DISTRIBUTIONS["phi0"], 4, 1.0, 0.0)
    assert np.max(np.abs(uniform.nodes - graded.nodes)) <= 1e-15


def test_graded_sqrt_stats():
    # strongly graded layout: ratio and first adjacent-step ratio are known
    axis = build_graded_axis(NODE_DISTRIBUTIONS["phi6"], 800, 1.0, -0.5)
    stats = mesh_stats(axis)
    assert stats.ratio == pytest.approx(56.55, rel=5e-3)
    assert stats.rho_min == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-10)
    assert stats.rho_max == pytest.approx(0.9994, rel=1e-3)


def test_graded_exponential_is_geometric():
    axis = build_graded_axis(NODE_DISTRIBUTIONS["phi1"], 800, 1.0, -0.5)
    stats = mesh_stats(axis)
    ratio = math.exp(5.0 / 800)
    assert stats.rho_min == pytest.approx(ratio, rel=1e-10)
    assert stats.rho_max == pytest.approx(ratio, rel=1e-10)
    assert stats.ratio == pytest.approx(147.5, rel=1e-3)


def test_graded_three_halves_ratio():
    axis = build_graded_axis(NODE_DISTRIBUTIONS["phi3"], 800, 1.0, -0.5)
    assert mesh_stats(axis).ratio == pytest.approx(42.41, rel=1e-3)


def test_graded_rejects_nonmonotone():
    with pytest.raises(MeshError):
        build_graded_axis(lambda xi: np.sin(4.0 * np.pi * xi) * 0.5 + xi * 0, 8, 1.0)


def test_steps_sum_to_extent_all_distributions():
    for name, phi in NODE_DISTRIBUTIONS.items():
        for n in (10, 57, 800):
            axis = build_graded_axis(phi, n, 1.0, -0.5)
            assert abs(axis.steps.sum() - 1.0) <= 1e-12, name


def test_center_node_exact_for_even_n():
    # breakpoint-at-zero data requires the midpoint to be a node exactly
    for n in (10, 200, 800):
        axis = build_uniform_axis(n, 1.0, -0.5)
        assert axis.nodes[n // 2] == 0.0


def test_time_mesh():
    tmesh = build_time_mesh(10, 2.0)
    assert tmesh.n_steps == 10
    assert tmesh.h_t == pytest.approx(0.2)
    with pytest.raises(MeshError):
        TimeMesh(np.array([0.5, 1.0, 1.5]))


def test_step_count_rule_table_values():
    a = 1.0 / math.sqrt(5.0)
    m = select_time_step_count(1.0 / 800, a, 1.0, math.sqrt(2.0))
    assert m == 505
    assert m / 800 == pytest.approx(0.631, abs=5e-4)
    assert select_time_step_count(1.0 / 800, a, 1.0, 1.0 / math.sqrt(2.0)) == 252
    assert select_time_step_count(1.0, 1.0, 1.0, 1.0) == 1


def test_step_count_rule_confirms_reported_ratios():
    # step-count/resolution quotients follow from h_min of each layout
    a = 1.0 / math.sqrt(5.0)
    for name, expected in (("phi2", 2.64), ("phi1", 18.6)):
        axis = build_graded_axis(NODE_DISTRIBUTIONS[name], 800, 1.0, -0.5)
        m = select_time_step_count(mesh_stats(axis).h_min, a, 1.0)
        assert m / 800 == pytest.approx(expected, rel=2e-3)


def test_step_count_rejects_zero():
    with pytest.raises(MeshError):
        select_time_step_count(10.0, 0.01, 1.0, 1.0)
    with pytest.raises(MeshError):
        select_time_step_count(-1.0, 1.0, 1.0)


@pytest.mark.parametrize("args", [
    (0.1, 1.0, 1.0, math.inf),
    (0.1, 1.0, 1.0, math.nan),
    (0.1, math.inf, 1.0, 1.0),
    (math.nan, 1.0, 1.0, 1.0),
    (1e-320, 1e10, 1e10, 1.0),  # finite arguments, infinite quotient
])
def test_step_count_rejects_a_non_finite_argument_or_quotient(args):
    with pytest.raises(MeshError):
        select_time_step_count(*args)
