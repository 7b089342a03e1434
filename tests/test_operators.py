import math

import numpy as np
import pytest
from scipy.integrate import quad

from compactwave.mesh import (
    NODE_DISTRIBUTIONS,
    AxisMesh,
    build_graded_axis,
    build_time_mesh,
    build_uniform_axis,
)
from compactwave.operators import (
    PPiece,
    PiecewiseData,
    QPiece,
    SeparableTerm,
    SpaceDirac,
    TimeDirac,
    TridiagonalFactor,
    _GAUSS_LEGENDRE,
    _hat_weights_t,
    build_rhs_table,
    hat_average_t0,
    hat_average_x,
    initial_velocity,
    pair_appliers,
    step_factor,
    tridiag_axis_average,
    tridiag_second_diff,
)
from compactwave.problems import make_example
from oracles import assemble_dense_operator, hat_average_t


def second_diff(mesh, values, axis=0):
    """The second-difference rows of `mesh` applied along `axis`."""
    return TridiagonalFactor(axis, *tridiag_second_diff(mesh)).apply(np.asarray(values, float))


def random_grid(meshes, rng, zero_boundary=True):
    shape = tuple(m.nodes.size for m in meshes)
    values = rng.standard_normal(shape)
    if zero_boundary:
        for axis in range(len(meshes)):
            idx = [slice(None)] * len(meshes)
            idx[axis] = 0
            values[tuple(idx)] = 0.0
            idx[axis] = -1
            values[tuple(idx)] = 0.0
    return values


def sum_pair(meshes, speeds=None):
    """(B, A) of the additive-average pair."""
    return pair_appliers("sum_stiffsum", meshes, speeds or (1.0,) * len(meshes))


def prod_pair(meshes, speeds=None):
    """(B, A) of the tensor-product pair."""
    return pair_appliers("prod_stiffprod", meshes, speeds or (1.0,) * len(meshes))


# ---------------------------------------------------------------------------
# second difference


def test_second_diff_annihilates_affine():
    axis = build_uniform_axis(8, 2.0, -1.0)
    out = second_diff(axis, 3.0 * axis.nodes + 1.0)
    assert np.max(np.abs(out)) < 1e-13


def test_second_diff_exact_on_quadratic():
    axis = build_uniform_axis(10, 1.0)
    out = second_diff(axis, axis.nodes**2)
    assert np.allclose(out, 2.0, atol=1e-11)


def test_second_diff_nonuniform_hand_value():
    # steps 1 and 2 around the middle node; w = x^2 gives exactly 2
    out = second_diff(AxisMesh(np.array([0.0, 1.0, 3.0])), [0.0, 1.0, 9.0])
    assert out[0] == pytest.approx(2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# compact averages


def test_sum_average_preserves_constants():
    meshes = [build_uniform_axis(6, 1.0), build_uniform_axis(5, 0.7)]
    w = np.ones((7, 6))
    assert np.allclose(sum_pair(meshes)[0](w), 1.0, atol=1e-15)
    assert np.allclose(prod_pair(meshes)[0](w), 1.0, atol=1e-15)


def test_sum_average_stencil_readout():
    axis = build_uniform_axis(8, 1.0)
    values = np.zeros(9)
    values[4] = 1.0
    out = sum_pair([axis])[0](values)
    assert out[3] == pytest.approx(10.0 / 12.0)
    assert out[2] == pytest.approx(1.0 / 12.0)
    assert out[4] == pytest.approx(1.0 / 12.0)


def test_sum_average_on_quadratic():
    axis = build_uniform_axis(16, 1.0)
    h = axis.h
    out = sum_pair([axis])[0](axis.nodes**2)
    assert np.allclose(out, axis.nodes[1:-1] ** 2 + h * h / 6.0, atol=1e-13)


def test_axis_average_uniform_limit_and_row_sum():
    axis = build_uniform_axis(6, 1.0)
    lo, di, hi = tridiag_axis_average(axis)
    assert np.allclose(lo, 1.0 / 12.0)
    assert np.allclose(di, 10.0 / 12.0)
    # alpha + 10 gamma + beta = 12 for any steps
    graded = AxisMesh(np.array([0.0, 0.1, 0.35, 0.5, 1.0]))
    glo, gdi, ghi = tridiag_axis_average(graded)
    assert np.allclose(12.0 * (glo + gdi + ghi), 12.0, atol=1e-12)


def test_axis_average_golden_ratio_zero_weight():
    # the lower weight vanishes when the step ratio hits (sqrt(5)+1)/2
    ratio = (math.sqrt(5.0) + 1.0) / 2.0
    nodes = np.array([0.0, 1.0, 1.0 + ratio, 1.0 + ratio + ratio**2])
    lo, _, _ = tridiag_axis_average(AxisMesh(nodes))
    assert abs(lo[0]) < 1e-14


def test_product_equals_sum_in_1d():
    axis = build_uniform_axis(9, 1.0)
    rng = np.random.default_rng(0)
    w = random_grid([axis], rng)
    assert np.allclose(prod_pair([axis])[0](w), sum_pair([axis])[0](w), atol=1e-14)


def test_product_minus_sum_identity_2d():
    # bar_s - s = (1/144) h1^2 h2^2 Lambda1 Lambda2 on interior nodes
    rng = np.random.default_rng(1)
    meshes = [build_uniform_axis(7, 1.0), build_uniform_axis(6, 0.9)]
    w = random_grid(meshes, rng, zero_boundary=False)
    delta = prod_pair(meshes)[0](w) - sum_pair(meshes)[0](w)
    mixed = second_diff(meshes[1], second_diff(meshes[0], w, 0), 1)
    expected = meshes[0].h ** 2 * meshes[1].h ** 2 / 144.0 * mixed
    assert np.max(np.abs(delta - expected)) < 1e-13


def test_product_average_eigenvector_scaling():
    meshes = [build_uniform_axis(8, 1.0), build_uniform_axis(6, 1.3)]
    p, q = 3, 2
    x, y = np.meshgrid(meshes[0].nodes, meshes[1].nodes, indexing="ij")
    mode = np.sin(np.pi * p * x / 1.0) * np.sin(np.pi * q * y / 1.3)
    lam1 = 4.0 / meshes[0].h ** 2 * math.sin(math.pi * p / (2 * 8)) ** 2
    lam2 = 4.0 / meshes[1].h ** 2 * math.sin(math.pi * q / (2 * 6)) ** 2
    factor = (1.0 - meshes[0].h ** 2 * lam1 / 12.0) * (1.0 - meshes[1].h ** 2 * lam2 / 12.0)
    out = prod_pair(meshes)[0](mode)
    assert np.max(np.abs(out - factor * mode[1:-1, 1:-1])) < 1e-12


# ---------------------------------------------------------------------------
# stiffness operators


def test_stiffness_sum_1d_quadratic():
    axis = build_uniform_axis(10, 1.0)
    out = sum_pair([axis], (1.0,))[1](axis.nodes * (1.0 - axis.nodes))
    assert np.allclose(out, 2.0, atol=1e-11)


def test_stiffness_sum_eigenvalue_2d():
    meshes = [build_uniform_axis(7, 1.0), build_uniform_axis(5, 0.8)]
    speeds = (1.1, 0.7)
    p, q = 2, 3
    x, y = np.meshgrid(meshes[0].nodes, meshes[1].nodes, indexing="ij")
    mode = np.sin(np.pi * p * x / 1.0) * np.sin(np.pi * q * y / 0.8)
    lam1 = 4.0 / meshes[0].h ** 2 * math.sin(math.pi * p / (2 * 7)) ** 2
    lam2 = 4.0 / meshes[1].h ** 2 * math.sin(math.pi * q / (2 * 5)) ** 2
    mu = speeds[0] ** 2 * lam1 * (1 - meshes[1].h ** 2 * lam2 / 12.0) + speeds[1] ** 2 * lam2 * (
        1 - meshes[0].h ** 2 * lam1 / 12.0
    )
    out = sum_pair(meshes, speeds)[1](mode)
    assert np.max(np.abs(out - mu * mode[1:-1, 1:-1])) < 1e-11


def test_stiffness_sum_equals_product_2d():
    rng = np.random.default_rng(2)
    meshes = [build_uniform_axis(6, 1.0), build_uniform_axis(7, 1.2)]
    w = random_grid(meshes, rng, zero_boundary=False)
    a = sum_pair(meshes, (1.0, 2.0))[1](w)
    b = prod_pair(meshes, (1.0, 2.0))[1](w)
    assert np.max(np.abs(a - b)) < 1e-14 * np.max(np.abs(a))


def test_operator_symmetry():
    rng = np.random.default_rng(3)
    meshes = [build_uniform_axis(6, 1.0), build_uniform_axis(5, 0.8)]
    u = random_grid(meshes, rng)
    w = random_grid(meshes, rng)
    weight = meshes[0].h * meshes[1].h

    def inner_h(op_values, grid):
        # mesh inner product over the interior nodes
        return float(weight * np.sum(op_values * grid[1:-1, 1:-1]))

    for op in (*sum_pair(meshes, (1.0, 1.5)), *prod_pair(meshes, (1.0, 1.5))):
        assert inner_h(op(u), w) == pytest.approx(inner_h(op(w), u), abs=1e-13)


def test_product_average_positive_definite_small_grids():
    # smallest eigenvalue of the tensor average exceeds (2/3)^n
    rng = np.random.default_rng(4)
    for meshes in (
        [build_uniform_axis(8, 1.0)],
        [build_uniform_axis(6, 1.0), build_uniform_axis(5, 0.7)],
        [build_uniform_axis(4, 1.0), build_uniform_axis(5, 0.7), build_uniform_axis(4, 1.3)],
    ):
        n = len(meshes)
        shape = tuple(m.nodes.size - 2 for m in meshes)
        mass = prod_pair(meshes)[0]

        def apply(interior):
            full = np.zeros(tuple(m.nodes.size for m in meshes))
            full[tuple(slice(1, -1) for _ in meshes)] = interior
            return mass(full)

        mat = assemble_dense_operator(apply, shape)
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        assert eigs.min() > (2.0 / 3.0) ** n
        assert eigs.max() < 1.0


# ---------------------------------------------------------------------------
# splitting factors and residual


def test_step_factor_examples():
    axis = build_uniform_axis(8, 8.0)  # h = 1
    ident = step_factor(axis, 1.0, 1.0)
    assert np.allclose(ident.lower, 0.0) and np.allclose(ident.diag, 1.0)
    avg = step_factor(axis, 0.0, 1.0)
    assert np.allclose(avg.lower, 1.0 / 12.0) and np.allclose(avg.diag, 10.0 / 12.0)
    half = step_factor(axis, 0.5, 1.0)
    assert np.allclose(half.lower, 1.0 / 16.0)
    assert np.allclose(half.diag, 7.0 / 8.0)


def test_splitting_residual_zero_in_1d():
    axis = build_uniform_axis(8, 1.0)
    rng = np.random.default_rng(5)
    w = random_grid([axis], rng)
    split_mass = pair_appliers("prod_residual_stiffprod", [axis], (1.0,), 0.3)[0]
    assert np.max(np.abs(split_mass(w) - prod_pair([axis])[0](w))) == 0.0


@pytest.mark.parametrize("dims", [2, 3])
def test_splitting_identity(dims):
    # product of step factors = tensor average + (h_t^2/12) stiffness + residual,
    # on uniform and on phi3-graded axes
    rng = np.random.default_rng(6)
    speeds = tuple(0.8 + 0.3 * i for i in range(dims))
    h_t = 0.07
    for graded in (False, True):
        meshes = [
            build_graded_axis(NODE_DISTRIBUTIONS["phi3"], 5 + i, 1.0 + 0.2 * i)
            if graded
            else build_uniform_axis(5 + i, 1.0 + 0.2 * i)
            for i in range(dims)
        ]
        w = random_grid(meshes, rng, zero_boundary=False)
        lhs = w
        for axis, mesh in enumerate(meshes):
            factor = step_factor(mesh, h_t, speeds[axis], axis)
            moved = np.moveaxis(lhs, axis, 0)
            out = moved.copy()
            lo = factor.lower.reshape((-1,) + (1,) * (moved.ndim - 1))
            di = factor.diag.reshape((-1,) + (1,) * (moved.ndim - 1))
            hi = factor.upper.reshape((-1,) + (1,) * (moved.ndim - 1))
            out[1:-1] = lo * moved[:-2] + di * moved[1:-1] + hi * moved[2:]
            lhs = np.moveaxis(out, 0, axis)
        mass, stiffness = pair_appliers("prod_residual_stiffprod", meshes, speeds, h_t)
        rhs = mass(w) + h_t**2 / 12.0 * stiffness(w)
        inner = tuple(slice(1, -1) for _ in meshes)
        assert np.max(np.abs(lhs[inner] - rhs)) < 1e-13
        with pytest.raises(ValueError):
            pair_appliers("prod_residual_stiffprod", meshes, speeds)


# ---------------------------------------------------------------------------
# hat averages


def test_hat_average_dirac():
    axis = build_uniform_axis(10, 1.0, -0.5)
    out = hat_average_x(SpaceDirac(0.0), axis)
    assert out[5] == pytest.approx(10.0)
    assert np.count_nonzero(out) == 1


def test_hat_average_dirac_off_node():
    axis = build_uniform_axis(9, 1.0, -0.5)  # odd: zero is between nodes
    with pytest.raises(ValueError):
        hat_average_x(SpaceDirac(0.0), axis)


def test_hat_average_heaviside_nodal():
    axis = build_uniform_axis(10, 1.0, -0.5)
    out = hat_average_x(PPiece(0), axis)
    assert out[5] == pytest.approx(0.5, abs=1e-14)
    assert out[3] == pytest.approx(0.0, abs=1e-14)
    assert out[7] == pytest.approx(1.0, abs=1e-14)


def test_hat_average_constant():
    # right of its breakpoint the Heaviside piece is the constant 1
    axis = build_uniform_axis(12, 1.0, 0.5)
    out = hat_average_x(PPiece(0), axis)
    assert np.allclose(out[1:-1], 1.0, atol=1e-13)


def test_hat_average_kink_profile():
    # brute-force quadrature oracle for the kink node value 1 - 2h/3
    axis = build_uniform_axis(10, 1.0, -0.5)
    h = axis.h
    out = hat_average_x(PPiece(1), axis)
    xs = np.linspace(-h, h, 20001)
    hat = 1.0 - np.abs(xs) / h
    oracle = np.trapezoid((1.0 - 2.0 * np.abs(xs)) * hat, xs) / h
    assert out[5] == pytest.approx(1.0 - 2.0 * h / 3.0, rel=1e-12)
    assert out[5] == pytest.approx(oracle, rel=1e-7)
    assert out[3] == pytest.approx(1.0 - 2.0 * abs(axis.nodes[3]), rel=1e-12)


@pytest.mark.parametrize("n", [6, 8])
def test_literal_gauss_rules_equal_leggauss_bitwise(n):
    nodes, weights = _GAUSS_LEGENDRE[n]
    expected_nodes, expected_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.tobytes() == expected_nodes.tobytes()
    assert weights.tobytes() == expected_weights.tobytes()


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)


def _hat_quad(fn, breakpoints, mesh, node):
    """Scalar oracle: hat-weighted average of fn at one interior node, 8-point
    Gauss on each piece of the two half-cells split at the breakpoints."""
    nodes = mesh.nodes
    xl, xc, xr = nodes[node - 1], nodes[node], nodes[node + 1]
    total = 0.0
    for a, b, rise in ((xl, xc, True), (xc, xr, False)):
        pts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
        for lo, hi in zip(pts[:-1], pts[1:]):
            half = 0.5 * (hi - lo)
            x = 0.5 * (lo + hi) + half * _GAUSS_X
            weight = (x - xl) / (xc - xl) if rise else (xr - x) / (xr - xc)
            total += half * float(np.sum(_GAUSS_W * fn(x) * weight))
    return total / (0.5 * (xr - xl))


_HAT_MESHES = {
    "uniform-even": build_uniform_axis(20, 1.0, -0.5),
    "uniform-odd": build_uniform_axis(21, 1.0, -0.5),
    "graded-phi3": build_graded_axis(NODE_DISTRIBUTIONS["phi3"], 21, 1.0, -0.5),
}


@pytest.mark.parametrize("mesh_name", sorted(_HAT_MESHES))
@pytest.mark.parametrize("profile", [PPiece(k) for k in range(6)] + ["off-axis"])
def test_hat_average_x_matches_scalar_oracle(mesh_name, profile):
    mesh = _HAT_MESHES[mesh_name]
    if profile == "off-axis":  # the breakpoint left of the axis: no cell is cut
        mesh, profile = AxisMesh(mesh.nodes + 1.0), PPiece(3)
    got = hat_average_x(profile, mesh)
    breaks = (profile.breakpoint,)
    oracle = [_hat_quad(profile.eval, breaks, mesh, k) for k in range(1, mesh.nodes.size - 1)]
    assert got[0] == got[-1] == 0.0
    np.testing.assert_allclose(got[1:-1], oracle, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("alpha", [1.5, 2.5, 3.5, 4.5])
def test_rhs_table_averaged_equals_per_level_composition(alpha):
    # the per-term temporal weights computed once at construction give the
    # same levels as composing hat_average_t level by level (Dirac atoms and
    # one-sided powers of degree 0..2 in time)
    problem = make_example(alpha)
    meshes = [build_uniform_axis(20, 1.0, -0.5)]
    tmesh = build_time_mesh(20, problem.horizon)
    table = build_rhs_table(problem.f_data, meshes, tmesh)
    for level in range(1, tmesh.n_steps):
        expected = np.zeros(19)
        for term in problem.f_data:
            qx = hat_average_x(term.space, meshes[0])[1:-1]
            expected += term.coef * hat_average_t(term.time, tmesh, level) * qx
        np.testing.assert_array_equal(table(level), expected)


def test_hat_average_t_values():
    tmesh = build_time_mesh(10, 1.0)
    h_t = tmesh.h_t
    t_star = 0.5
    # away from the hit level the three-point sample average is exact
    prof = QPiece(2, t_star)
    got = hat_average_t(prof, tmesh, 8)
    t = tmesh.nodes[8]
    expected = (prof.eval(t - h_t) + 10 * prof.eval(t) + prof.eval(t + h_t)) / 12.0
    assert got == pytest.approx(expected, rel=1e-14)
    # hit level closed form
    assert hat_average_t(QPiece(2, t_star), tmesh, 5) == pytest.approx(h_t**2 / 12.0)
    assert hat_average_t(QPiece(1, t_star), tmesh, 5) == pytest.approx(h_t / 6.0)
    # Heaviside profile: nodal values with the half convention
    assert hat_average_t(QPiece(0, t_star), tmesh, 5) == pytest.approx(0.5)
    assert hat_average_t(QPiece(0, t_star), tmesh, 6) == pytest.approx(1.0)
    # Dirac atom
    assert hat_average_t(TimeDirac(t_star), tmesh, 5) == pytest.approx(1.0 / h_t)
    assert hat_average_t(TimeDirac(t_star), tmesh, 4) == 0.0


def _quad_hat(profile, lo, peak, hi):
    """The hat average (2 / (hi - lo)) int y(t) hat(t) dt by adaptive
    quadrature, the hat rising from lo to 1 at peak and falling to hi (one
    side only when peak is an end), cut at the switch-on."""
    def piece(a, b, weight):
        if b <= a:
            return 0.0
        cut = [profile.t_star] if a < profile.t_star < b else None
        return quad(lambda t: profile.eval(t) * weight(t), a, b, points=cut,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
    rise = piece(lo, peak, lambda t: (t - lo) / (peak - lo))
    fall = piece(peak, hi, lambda t: (hi - t) / (hi - peak))
    return 2.0 * (rise + fall) / (hi - lo)


def test_hat_average_t_exactness_oracle():
    # the weights of every level of a switch-on at t_* = 0.5 on 10 steps
    # against adaptive quadrature: the hit level 5 and the levels away from
    # it, two-sided, and level 0, one-sided.  The (1, 10, 1)/12 sample
    # average is exact up to degree 3 only, so degrees 4 and 5 are refused
    tmesh = build_time_mesh(10, 1.0)
    h_t, nodes = tmesh.h_t, tmesh.nodes
    for degree in (0, 1, 2, 3):
        profile = QPiece(degree, 0.5)
        weights = _hat_weights_t(profile, tmesh)
        assert weights[0] == _quad_hat(profile, 0.0, 0.0, h_t) == 0.0
        assert weights[-1] == 0.0
        for level in range(1, 10):
            expected = _quad_hat(profile, nodes[level] - h_t, nodes[level], nodes[level] + h_t)
            assert weights[level] == pytest.approx(expected, rel=1e-13, abs=0.0), (degree, level)
    for degree in (4, 5):
        with pytest.raises(ValueError, match=f"not degree {degree}"):
            _hat_weights_t(QPiece(degree, 0.5), tmesh)


def test_hat_average_t_star_off_mesh():
    tmesh = build_time_mesh(7, 1.0)
    with pytest.raises(ValueError):
        hat_average_t(QPiece(1, 0.5), tmesh, 3)


def test_one_sided_average():
    # vanishes whenever the profile switches on after the first step
    assert hat_average_t0(QPiece(2, 0.5), 0.1) == 0.0
    assert hat_average_t0(TimeDirac(0.5), 0.1) == 0.0
    # an atom at t = 0 counts fully, as in the exact solutions: 2/h_t
    assert hat_average_t0(TimeDirac(0.0), 0.1) == pytest.approx(20.0, rel=1e-15)
    assert hat_average_t0(TimeDirac(-1e-3), 0.1) == 0.0
    # a profile switched on before t = 0 integrates over [0, h_t] only
    assert hat_average_t0(QPiece(0, -0.05), 0.1) == pytest.approx(1.0, rel=1e-14)
    assert hat_average_t0(QPiece(1, -0.05), 0.1) == pytest.approx(1.0 / 12.0, rel=1e-14)
    # switch-on inside the first cell: compare against brute quadrature
    prof = QPiece(1, 0.03)
    h_t = 0.1
    ts = np.linspace(0.0, h_t, 200001)
    oracle = 2.0 / h_t * np.trapezoid(prof.eval(ts) * (1.0 - ts / h_t), ts)
    assert hat_average_t0(prof, h_t) == pytest.approx(oracle, rel=1e-8)
    # level 0 of a piecewise table: the one-sided averages times the spatial ones
    mesh = build_uniform_axis(10, 1.0, -0.5)
    tmesh = build_time_mesh(10, 1.0)
    data = PiecewiseData((
        SeparableTerm(1.3, PPiece(1), QPiece(1, 0.0)),
        SeparableTerm(0.7, PPiece(0), TimeDirac(0.5)),
    ))
    one_sided = hat_average_t0(QPiece(1, 0.0), tmesh.h_t)
    assert one_sided == pytest.approx(tmesh.h_t / 3.0, rel=1e-14)
    expected = 1.3 * one_sided * hat_average_x(PPiece(1), mesh)[1:-1]
    assert np.array_equal(build_rhs_table(data, [mesh], tmesh)(0), expected)
    # and an atom at t = 0 there, level 0 only
    at_zero = PiecewiseData((SeparableTerm(1.0, SpaceDirac(0.0), TimeDirac(0.0)),))
    table = build_rhs_table(at_zero, [mesh], tmesh)
    assert table(0)[4] == pytest.approx(2.0 / tmesh.h_t / mesh.h, rel=1e-14)
    assert not table(1).any()


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("t_star", [-0.2, -0.05, -1e-3, 0.0, 0.03, 0.0999])
def test_one_sided_average_matches_quadrature_for_every_switch_on(degree, t_star):
    # (2/h_t) int_0^{h_t} y(t) (1 - t/h_t) dt, the profile switched on
    # before, at or after t = 0
    h_t = 0.1
    expected = _quad_hat(QPiece(degree, t_star), 0.0, 0.0, h_t)
    assert hat_average_t0(QPiece(degree, t_star), h_t) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# data constructions


def test_initial_velocity_zero():
    meshes = [build_uniform_axis(10, 1.0, -0.5)]
    out = initial_velocity(lambda x: np.zeros_like(x), meshes, 0.1, (1.0,))
    assert out.shape == (9,) and np.max(np.abs(out)) == 0.0
    assert np.array_equal(initial_velocity(None, meshes, 0.1, (1.0,)), np.zeros(9))


def test_initial_velocity_dirac():
    meshes = [build_uniform_axis(10, 1.0, -0.5)]
    data = PiecewiseData((SeparableTerm(0.4, SpaceDirac(0.0)),))
    out = initial_velocity(data, meshes, 0.1, (1.0,))
    assert out.shape == (9,)
    assert out[4] == pytest.approx(0.4 * 10.0)


def test_initial_velocity_compact_quadratic():
    meshes = [build_uniform_axis(10, 1.0)]
    h = meshes[0].h
    h_t, a = 0.05, 2.0
    out = initial_velocity(lambda x: x**2, meshes, h_t, (a,))
    x = meshes[0].nodes[1:-1]
    assert np.allclose(out, x**2 + (h * h + h_t * h_t * a * a) / 6.0, atol=1e-12)


def test_rhs_table_smooth_constant():
    meshes = [build_uniform_axis(8, 1.0)]
    tmesh = build_time_mesh(6, 1.0)
    table = build_rhs_table(lambda x, t: np.full_like(x, 3.0), meshes, tmesh)
    assert np.allclose(table(2), 3.0, atol=1e-13)


def test_rhs_table_smooth_matches_direct_stencil():
    meshes = [build_uniform_axis(10, 1.0, -0.5)]
    tmesh = build_time_mesh(10, 1.0)
    f = lambda x, t: np.exp(x + 0.5 - t)
    table = build_rhs_table(f, meshes, tmesh)
    h = meshes[0].h
    h_t = tmesh.h_t
    x = meshes[0].nodes
    m = 4
    t = tmesh.nodes[m]
    fm = f(x, t)
    direct = (
        fm
        + (f(x, t + h_t) - 2 * fm + f(x, t - h_t)) / 12.0
        + np.concatenate(([0.0], (fm[2:] - 2 * fm[1:-1] + fm[:-2]) / 12.0, [0.0]))
    )
    assert np.allclose(table(m), direct[1:-1], atol=1e-15)


def test_rhs_table_averaged_composition():
    # separable Heaviside-in-x, Dirac-in-time forcing: zero except at the hit
    # level where the spatial hat average is scaled by 1/h_t
    meshes = [build_uniform_axis(10, 1.0, -0.5)]
    tmesh = build_time_mesh(10, 1.0)
    c2 = 1.1
    data = PiecewiseData((SeparableTerm(c2, PPiece(0), TimeDirac(0.5)),))
    table = build_rhs_table(data, meshes, tmesh)
    assert np.max(np.abs(table(3))) == 0.0
    x = meshes[0].nodes[1:-1]
    expected = c2 * PPiece(0).eval(x) / tmesh.h_t
    assert np.allclose(table(5), expected, atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda f, meshes, tmesh: build_rhs_table(f, meshes, tmesh),
    lambda f, meshes, tmesh: build_rhs_table(f, meshes, tmesh)(0),
], ids=["build_rhs_table", "level_0"])
def test_forcing_constructors_reject_unsupported_data(build):
    # the construction follows the data type: neither piecewise nor callable
    # is a TypeError, piecewise forcing on a 2D mesh a ValueError
    mesh = build_uniform_axis(8, 1.0, -0.5)
    tmesh = build_time_mesh(4, 1.0)
    with pytest.raises(TypeError):
        build(np.ones(7), [mesh], tmesh)
    data = PiecewiseData((SeparableTerm(1.0, SpaceDirac(0.0), TimeDirac(0.5)),))
    with pytest.raises(ValueError):
        build(data, [mesh, mesh], tmesh)


def test_initial_rhs_on_constant():
    meshes = [build_uniform_axis(8, 1.0)]
    f = lambda x, t: np.full_like(x, 4.0)
    out = build_rhs_table(f, meshes, build_time_mesh(10, 1.0))(0)
    assert np.allclose(out, 4.0, atol=1e-13)


def test_initial_rhs_time_part_linear():
    # f = t: (1/3) f^0 + (2/3) f(h_t/2) reduces to h_t/3
    meshes = [build_uniform_axis(8, 1.0)]
    tmesh = build_time_mesh(4, 1.2)
    h_t = tmesh.h_t
    f = lambda x, t: np.full_like(x, t)
    out = build_rhs_table(f, meshes, tmesh)(0)
    assert np.allclose(out, h_t / 3.0, atol=1e-14)


def test_axis_average_preserves_constants_on_graded_mesh():
    graded = AxisMesh(np.array([0.0, 0.07, 0.2, 0.55, 0.72, 1.0]))
    average = TridiagonalFactor(0, *tridiag_axis_average(graded))
    assert np.allclose(average.apply(np.full(6, 3.7)), 3.7, atol=1e-13)
    # the Heaviside piece is the constant 1 on the axis moved right of 0
    out = hat_average_x(PPiece(0), AxisMesh(graded.nodes + 1.0))
    assert np.allclose(out[1:-1], 1.0, atol=1e-12)


def test_hat_average_t_constant_profile():
    # one-sided profile switching on at t=0 is constant 1 on the whole mesh
    tmesh = build_time_mesh(8, 1.0)
    prof = QPiece(0, 0.0)
    for level in range(1, 8):
        assert hat_average_t(prof, tmesh, level) == pytest.approx(1.0)
