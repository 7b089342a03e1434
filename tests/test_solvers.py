import functools
import importlib.machinery
import importlib.util

import numpy as np
import pytest
import scipy.linalg

from compactwave import solvers
from compactwave.mesh import NODE_DISTRIBUTIONS, build_graded_axis, build_uniform_axis
from compactwave.operators import (
    PAIR_FORMS,
    TridiagonalFactor,
    pair_appliers,
    step_factor,
    tridiag_second_diff,
)
from compactwave.solvers import (
    SingularSystemError,
    SpectralHandle,
    SplittingHandle,
    StackHandle,
    TriSolver,
    dst1,
    pair_spectra,
    sine_coefficients,
    sine_spectrum,
)
from oracles import assemble_dense_operator, dense, dense_solve_oracle, thomas_solve


def identity_factor(n):
    return TridiagonalFactor(0, np.zeros(n), np.ones(n), np.zeros(n))


def neg_second_diff_factor(mesh):
    lo, di, hi = tridiag_second_diff(mesh)
    return TridiagonalFactor(0, -lo, -di, -hi)


# ---------------------------------------------------------------------------
# tridiagonal solves


@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("dominant", [True, False])
def test_trisolver_matches_solve_banded(n, dominant):
    # the factored LAPACK solve against the banded one-shot solve, with
    # pivoting exercised by the non-dominant rows
    rng = np.random.default_rng(10 * n + dominant)
    diag = rng.standard_normal(n) + (4.0 if dominant else 0.0)
    factor = TridiagonalFactor(0, rng.standard_normal(n), diag, rng.standard_normal(n))
    ab = np.zeros((3, n))
    ab[0, 1:] = factor.upper[:-1]
    ab[1] = factor.diag
    ab[2, :-1] = factor.lower[1:]
    solver = TriSolver(factor)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        got = solver.solve(rhs)
        assert got.shape == rhs.shape
        expected = scipy.linalg.solve_banded((1, 1), ab, rhs)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)
        if n >= 3:
            np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("diag", [[0.0], [1.0, 0.0], [1.0, 0.0, 1.0]])
def test_trisolver_singular_factor_raises(diag):
    n = len(diag)
    factor = TridiagonalFactor(0, np.zeros(n), np.array(diag), np.zeros(n))
    with pytest.raises(SingularSystemError):
        TriSolver(factor)


def _pivoting_factor(n, rng):
    """Random rows that are not diagonally dominant, with the last row's
    coupling large enough that the elimination swaps the last two rows."""
    lower, diag, upper = rng.standard_normal((3, n))
    lower[-1] = 10.0 * (abs(diag[-2]) + 1.0)
    return TridiagonalFactor(0, lower, diag, upper)


def _graded_factor(phi, n):
    axis = build_graded_axis(NODE_DISTRIBUTIONS[phi], n, 1.0, -0.5)
    return step_factor(axis, 0.5 * float(np.min(axis.steps)), 1.0)


def _stack_cases():
    uniform = build_uniform_axis(40, 1.0, -0.5)
    compact = step_factor(uniform, 0.02, 1.0)
    second = step_factor(uniform, 0.02, 1.0, sigma=0.5)
    rng = np.random.default_rng(41)
    tiny = [step_factor(build_uniform_axis(n, 1.0), 0.3, 1.0) for n in (2, 3)]
    return {
        "uniform compact1d and second-order": [compact, second],
        "phi1 and phi2 graded compact1d": [_graded_factor("phi1", 30), _graded_factor("phi2", 30)],
        "pivoting": [_pivoting_factor(12, rng), _pivoting_factor(9, rng)],
        "blocks of 1 and 2 unknowns": tiny,
        "two blocks of 1 unknown": [tiny[0], tiny[0]],
        "three blocks": [compact, _pivoting_factor(7, rng), _graded_factor("phi2", 10)],
    }


@pytest.mark.parametrize("case", list(_stack_cases()))
def test_trisolver_over_several_factors_equals_each_own_solve_bitwise(case):
    # zero couplings between the blocks: no pivot crosses a block, so every
    # block of the stacked solve is the factor's own solve, bit for bit
    factors = _stack_cases()[case]
    if case == "pivoting":
        for f in factors:
            *_, ipiv, info = scipy.linalg.lapack.dgttrf(f.lower[1:], f.diag, f.upper[:-1])
            assert info == 0 and ipiv[-2] == f.n_interior  # the last two rows swap
    sizes = [f.n_interior for f in factors]
    rng = np.random.default_rng(len(case))
    solver = TriSolver(*factors)
    for columns in ((), (3,)):
        blocks = [rng.standard_normal((n,) + columns) for n in sizes]
        got = solver.solve(np.concatenate(blocks))
        assert got.shape == (sum(sizes),) + columns
        for part, factor, rhs in zip(np.split(got, np.cumsum(sizes)[:-1]), factors, blocks):
            np.testing.assert_array_equal(part, TriSolver(factor).solve(rhs))


def test_stack_handle_solves_each_column_as_its_own_stack_of_one_bitwise():
    # a trace lifted with each column's own couplings, then the block solve
    uniform = build_uniform_axis(40, 1.0, -0.5)
    factors = [
        step_factor(uniform, 0.02, 1.0),
        step_factor(uniform, 0.02, 1.0, sigma=0.5),
        _graded_factor("phi2", 40),
    ]
    n = 39
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal((n, 3))
    boundary = np.zeros((n + 2, 3))
    boundary[[0, -1]] = rng.standard_normal((2, 3))
    values = rng.standard_normal((n + 2, 3))
    handle = StackHandle(factors)
    got, applied = handle.solve(rhs, boundary), handle.apply(values)
    for k, factor in enumerate(factors):
        own = StackHandle([factor])
        np.testing.assert_array_equal(got[:, k], own.solve(rhs[:, k], boundary[:, k]))
        np.testing.assert_array_equal(applied[:, k], own.apply(values[:, k]))
        np.testing.assert_array_equal(
            own.solve(rhs[:, k], boundary[:, k]),
            SplittingHandle([factor]).solve(rhs[:, k], boundary[:, k]),
        )
    with pytest.raises(ValueError, match="2 columns for 3 step factors"):
        handle.apply(values[:, :2])
    with pytest.raises(ValueError):
        handle.solve(rhs[:, :2])


def test_trisolver_with_a_singular_block_raises():
    good = step_factor(build_uniform_axis(10, 1.0), 0.05, 1.0)
    singular = TridiagonalFactor(0, np.zeros(3), np.array([1.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(SingularSystemError):
        TriSolver(good, singular)
    with pytest.raises(SingularSystemError):
        TriSolver(singular, good, good)


@pytest.mark.parametrize("found", [False, True])
def test_a_missing_lapack_extension_is_an_import_error(monkeypatch, tmp_path, found):
    # no scipy package, or one whose linalg/ folder holds no extension
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec if found else None)
    with pytest.raises(ImportError, match="scipy.linalg._flapack"):
        solvers._load_flapack()


def _lapack_cases():
    rng = np.random.default_rng(25)
    compact = step_factor(build_uniform_axis(40, 1.0, -0.5), 0.02, 1.0)
    tiny = [step_factor(build_uniform_axis(n, 1.0), 0.3, 1.0) for n in (2, 3)]
    return {
        "one factor": [compact],
        "pivoting": [_pivoting_factor(12, rng)],
        "three blocks": [compact, _pivoting_factor(7, rng), _graded_factor("phi2", 10)],
        "one unknown": tiny[:1],
        "two unknowns": tiny[1:],
        "two blocks of one unknown": [tiny[0], tiny[0]],
        "zero pivot": [TridiagonalFactor(0, np.zeros(3), np.array([1.0, 0.0, 1.0]), np.zeros(3))],
    }


@pytest.mark.parametrize("case", list(_lapack_cases()))
def test_trisolver_equals_scipy_linalg_lapack_bitwise(case):
    # the wrappers bound from the compiled extension against those of the
    # scipy.linalg package, imported in this process, on the block-diagonal
    # rows built densely (decoupled unit rows pad a system to three unknowns)
    factors = _lapack_cases()[case]
    n = sum(f.n_interior for f in factors)
    matrix = scipy.linalg.block_diag(*map(dense, factors), np.eye(max(3 - n, 0)))
    *lu, info = scipy.linalg.lapack.dgttrf(np.diag(matrix, -1), np.diag(matrix), np.diag(matrix, 1))
    if case == "zero pivot":
        assert info > 0
        with pytest.raises(SingularSystemError):
            TriSolver(*factors)
        return
    assert info == 0
    if case == "pivoting":
        assert np.any(lu[-1] != np.arange(1, n + 1))
    solver = TriSolver(*factors)
    rng = np.random.default_rng(n)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        padded = np.concatenate([rhs, np.zeros((len(matrix) - n,) + rhs.shape[1:])])
        expected, info = scipy.linalg.lapack.dgttrs(*lu, padded)
        assert info == 0
        assert solver.solve(rhs).tobytes() == expected[:n].tobytes()


def test_thomas_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    assert np.allclose(thomas_solve(identity_factor(3), rhs), rhs)


def test_thomas_vs_dense_neg_laplacian():
    mesh = build_uniform_axis(4, 1.0)
    factor = neg_second_diff_factor(mesh)
    rhs = np.ones(3)
    got = thomas_solve(factor, rhs)
    expected = dense_solve_oracle(dense(factor), rhs)
    assert np.max(np.abs(got - expected)) < 1e-13


def test_thomas_random_dominant_residual():
    rng = np.random.default_rng(0)
    n = 10
    lo = rng.uniform(-1, 1, n)
    hi = rng.uniform(-1, 1, n)
    di = 3.0 + rng.uniform(0, 1, n)
    factor = TridiagonalFactor(0, lo, di, hi)
    rhs = rng.standard_normal(n)
    x = thomas_solve(factor, rhs)
    full = np.zeros(n + 2)
    full[1:-1] = x
    residual = factor.apply(full) - rhs
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(rhs))


def test_thomas_multiple_columns():
    rng = np.random.default_rng(1)
    mesh = build_uniform_axis(9, 1.0)
    factor = neg_second_diff_factor(mesh)
    rhs = rng.standard_normal((8, 5))
    got = thomas_solve(factor, rhs)
    for j in range(5):
        assert np.allclose(got[:, j], thomas_solve(factor, rhs[:, j]), atol=1e-12)


def test_thomas_zero_pivot():
    factor = TridiagonalFactor(0, np.ones(3), np.zeros(3), np.ones(3))
    with pytest.raises(SingularSystemError):
        thomas_solve(factor, np.ones(3))


# ---------------------------------------------------------------------------
# sine spectra and transforms


def test_sine_spectrum_smallest_grid():
    mesh = build_uniform_axis(2, 1.0)
    lam = sine_spectrum(mesh)
    assert lam.size == 1
    assert lam[0] == pytest.approx(2.0 / mesh.h**2)


def test_sine_spectrum_upper_bound():
    for n in (4, 17, 256):
        mesh = build_uniform_axis(n, 1.3)
        lam = sine_spectrum(mesh)
        assert np.all(lam < 4.0 / mesh.h**2)
        avg, _ = pair_spectra([mesh], (1.0,), "prod_stiffprod")
        assert np.all(avg > 2.0 / 3.0)


def test_sine_spectrum_matches_dense_eigs():
    mesh = build_uniform_axis(7, 1.0)
    lam = np.sort(sine_spectrum(mesh))
    factor = neg_second_diff_factor(mesh)
    eigs = np.sort(np.linalg.eigvalsh(dense(factor)))
    assert np.allclose(lam, eigs, rtol=1e-12)


def test_dst_direct_and_fast_agree():
    rng = np.random.default_rng(2)
    for n_int in (5, 31, 300):
        values = rng.standard_normal(n_int)
        direct = dst1(values, 0, direct=True)
        fast = dst1(values, 0, direct=False)
        assert np.max(np.abs(direct - fast)) < 1e-12 * max(1.0, np.max(np.abs(direct)))
        # the sine matrix squares to (N/2) I
        back = dst1(dst1(values, 0), 0) * 2.0 / (n_int + 1)
        assert np.max(np.abs(back - values)) < 1e-12


def _views(values):
    """The array itself plus non-contiguous views of it: every axis pair
    swapped, and a reversed stride on the first axis."""
    yield values
    for i in range(values.ndim):
        for j in range(i + 1, values.ndim):
            yield values.swapaxes(i, j)
    yield values[::-1]


@pytest.mark.parametrize("shape", [(9,), (7, 5), (6, 4, 5)])
def test_dst_direct_and_fast_agree_on_strided_views(shape):
    rng = np.random.default_rng(21)
    base = rng.standard_normal(tuple(2 * s for s in shape))[tuple(slice(None, None, 2) for _ in shape)]
    for values in _views(base):
        assert not values.flags.c_contiguous
        for axis in range(values.ndim):
            direct = dst1(values, axis, direct=True)
            fast = dst1(values, axis, direct=False)
            assert direct.shape == values.shape
            assert np.max(np.abs(direct - fast)) < 1e-13 * max(1.0, np.max(np.abs(fast)))


@pytest.mark.parametrize("shape", [(5,), (5, 4), (5, 4, 3), (3, 300)])
def test_stacked_sine_coefficients_equal_per_level_calls(shape):
    rng = np.random.default_rng(22)
    stack = rng.standard_normal((6,) + shape)
    batched = sine_coefficients(stack, batch=1)
    for level, values in enumerate(stack):
        assert np.max(np.abs(batched[level] - sine_coefficients(values))) < 1e-14
    twice = sine_coefficients(stack.reshape((2, 3) + shape), batch=2)
    assert np.max(np.abs(twice.reshape(stack.shape) - batched)) < 1e-14


def test_spectral_solve_recovers_average_input():
    # solve (compact average) x = (compact average) b -> x = b
    rng = np.random.default_rng(3)
    mesh = build_uniform_axis(12, 1.0)
    b = rng.standard_normal(11)
    mass = pair_appliers("prod_stiffprod", [mesh], (1.0,))[0]
    handle = SpectralHandle(pair_spectra([mesh], (1.0,), "prod_stiffprod")[0], mass)
    full = np.zeros(13)
    full[1:-1] = b
    rhs = pair_appliers("sum_stiffsum", [mesh], (1.0,))[0](full)
    x = handle.solve(rhs)
    assert np.max(np.abs(x - b)) < 1e-12


def test_spectral_solve_2d_vs_dense():
    rng = np.random.default_rng(4)
    meshes = [build_uniform_axis(8, 1.0), build_uniform_axis(6, 0.8)]
    speeds = (1.0, 1.4)
    h_t = 0.04
    mu_b, mu_a = pair_spectra(meshes, speeds, "sum_stiffsum")
    mass, stiffness = pair_appliers("sum_stiffsum", meshes, speeds)
    handle = SpectralHandle(
        mu_b + h_t**2 / 12.0 * mu_a, lambda v: mass(v) + h_t**2 / 12.0 * stiffness(v)
    )

    def apply(interior):
        full = np.zeros((9, 7))
        full[1:-1, 1:-1] = interior
        return handle.apply(full)

    rhs = rng.standard_normal((7, 5))
    dense = assemble_dense_operator(apply, (7, 5))
    expected = dense_solve_oracle(dense, rhs.reshape(-1)).reshape(7, 5)
    got = handle.solve(rhs)
    assert np.max(np.abs(got - expected)) < 1e-11


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("pair", sorted(PAIR_FORMS))
def test_sine_modes_diagonalize_the_pair_rows(pair, dims):
    # every tensor sine mode is an eigenvector of the stencil rows of B and A,
    # with the eigenvalues that pair_spectra composes from the per-axis ones
    rng = np.random.default_rng(30 + dims)
    meshes = [
        build_uniform_axis(int(rng.integers(2, 6)), float(rng.uniform(0.5, 2.0))) for _ in range(dims)
    ]
    speeds = tuple(float(v) for v in rng.uniform(0.3, 1.8, dims))
    h_t = float(rng.uniform(0.05, 0.5)) * min(m.h for m in meshes)
    mu_b, mu_a = pair_spectra(meshes, speeds, pair, h_t)
    # a broadcast axis left at length 1 would shrink the loop over the modes
    assert mu_b.shape == mu_a.shape == tuple(m.n_intervals - 1 for m in meshes)
    mass, stiffness = pair_appliers(pair, meshes, speeds, h_t)
    split = SplittingHandle([step_factor(m, h_t, speeds[i], i) for i, m in enumerate(meshes)])
    interior = tuple(slice(1, -1) for _ in meshes)
    for mode in np.ndindex(mu_b.shape):
        w = functools.reduce(np.multiply.outer, [
            np.sin(np.pi * (l + 1) * np.arange(m.n_intervals + 1) / m.n_intervals)
            for l, m in zip(mode, meshes)
        ])
        inner = w[interior]
        if PAIR_FORMS[pair].residual:
            step = mu_b[mode] + h_t**2 / 12.0 * mu_a[mode]
            assert np.max(np.abs(split.apply(w) - step * inner)) <= 1e-12 * abs(step)
        assert np.max(np.abs(mass(w) - mu_b[mode] * inner)) <= 1e-12 * abs(mu_b[mode])
        assert np.max(np.abs(stiffness(w) - mu_a[mode] * inner)) <= 1e-12 * abs(mu_a[mode])


def test_spectral_solve_preserves_symmetry():
    mesh = build_uniform_axis(10, 1.0)
    mass = pair_appliers("prod_stiffprod", [mesh], (1.0,))[0]
    handle = SpectralHandle(pair_spectra([mesh], (1.0,), "prod_stiffprod")[0], mass)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(9)
    rhs = rhs + rhs[::-1]
    x = handle.solve(rhs)
    assert np.max(np.abs(x - x[::-1])) < 1e-13


@pytest.mark.parametrize("spectral", [True, False])
def test_handles_solve_with_a_boundary_trace(spectral):
    # both handles: x = solve(rhs, boundary) on the interior of the trace
    # array gives apply(x) = rhs, the trace lifted by the handle itself
    rng = np.random.default_rng(8)
    meshes = [build_uniform_axis(7, 1.0), build_uniform_axis(5, 0.8)]
    speeds = (1.0, 1.4)
    h_t = 0.04
    if spectral:
        mu_b, mu_a = pair_spectra(meshes, speeds, "sum_stiffsum")
        step = lambda b, a: lambda v: b(v) + h_t**2 / 12.0 * a(v)
        handle = SpectralHandle(
            mu_b + h_t**2 / 12.0 * mu_a,
            step(*pair_appliers("sum_stiffsum", meshes, speeds)),
            lambda axis, side: step(*pair_appliers("sum_stiffsum", meshes, speeds, face=(axis, side))),
        )
    else:
        handle = SplittingHandle([step_factor(m, h_t, speeds[i], i) for i, m in enumerate(meshes)])
    full = rng.standard_normal((8, 6))
    full[1:-1, 1:-1] = 0.0
    rhs = rng.standard_normal((6, 4))
    full[1:-1, 1:-1] = handle.solve(rhs, boundary=full)
    assert np.max(np.abs(handle.apply(full) - rhs)) < 1e-12


def test_spectral_zero_eigenvalue_rejected():
    with pytest.raises(SingularSystemError):
        SpectralHandle(np.array([1.0, 0.0, 2.0]), lambda v: v[1:-1])


def test_sine_coefficients_roundtrip():
    rng = np.random.default_rng(6)
    interior = rng.standard_normal((5, 4, 3))
    coeffs = sine_coefficients(interior)
    from compactwave.solvers import sine_synthesis

    assert np.max(np.abs(sine_synthesis(coeffs) - interior)) < 1e-12


# ---------------------------------------------------------------------------
# splitting solves


def test_splitting_1d_equals_thomas():
    mesh = build_uniform_axis(9, 1.0)
    factor = step_factor(mesh, 0.05, 1.0, 0)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(8)
    assert np.allclose(SplittingHandle([factor]).solve(rhs), thomas_solve(factor, rhs), atol=1e-13)


def test_splitting_2d_vs_dense():
    rng = np.random.default_rng(8)
    meshes = [build_uniform_axis(7, 1.0), build_uniform_axis(5, 1.1)]
    speeds = (0.9, 1.7)
    h_t = 0.05
    factors = [step_factor(m, h_t, speeds[i], i) for i, m in enumerate(meshes)]
    handle = SplittingHandle(factors)
    dense = assemble_dense_operator(
        lambda interior: handle.apply(_pad(interior)), (6, 4)
    )
    rhs = rng.standard_normal((6, 4))
    expected = dense_solve_oracle(dense, rhs.reshape(-1)).reshape(6, 4)
    got = handle.solve(rhs)
    assert np.max(np.abs(got - expected)) < 1e-11


def _pad(interior):
    full = np.zeros(tuple(s + 2 for s in interior.shape))
    full[tuple(slice(1, -1) for _ in interior.shape)] = interior
    return full


def test_splitting_axis_order_invariance():
    rng = np.random.default_rng(9)
    meshes = [build_uniform_axis(6, 1.0), build_uniform_axis(7, 0.7), build_uniform_axis(5, 1.3)]
    speeds = (1.0, 0.6, 1.2)
    h_t = 0.03
    factors = [step_factor(m, h_t, speeds[i], i) for i, m in enumerate(meshes)]
    rhs = rng.standard_normal((5, 6, 4))
    ordered = SplittingHandle(factors).solve(rhs)
    permuted = SplittingHandle([factors[2], factors[0], factors[1]]).solve(rhs)
    assert np.max(np.abs(ordered - permuted)) < 1e-12 * max(1.0, np.max(np.abs(ordered)))


def test_splitting_boundary_folding():
    # nonzero Dirichlet data lifted from the face rows: solving the apply of
    # a full array gives back its interior, on uniform axes and on graded
    # ones, whose rows next to the two faces of an axis differ
    rng = np.random.default_rng(10)
    speeds = (1.1, 0.8)
    h_t = 0.04
    for meshes in (
        [build_uniform_axis(6, 1.0), build_uniform_axis(5, 0.9)],
        [build_graded_axis(NODE_DISTRIBUTIONS["phi2"], 6, 1.0, -0.5),
         build_graded_axis(NODE_DISTRIBUTIONS["phi3"], 5, 0.9, 0.0)],
    ):
        factors = [step_factor(m, h_t, speeds[i], i) for i, m in enumerate(meshes)]
        handle = SplittingHandle(factors)
        boundary = np.zeros((7, 6))
        boundary[0, :] = rng.standard_normal(6)
        boundary[-1, :] = rng.standard_normal(6)
        boundary[:, 0] = rng.standard_normal(7)
        boundary[:, -1] = rng.standard_normal(7)
        x_int = rng.standard_normal((5, 4))
        full = boundary.copy()
        full[1:-1, 1:-1] = x_int
        rhs = handle.apply(full)
        got = handle.solve(rhs, boundary=boundary)
        assert np.max(np.abs(got - x_int)) < 1e-11


# ---------------------------------------------------------------------------
# dense oracle


def test_dense_oracle_identity():
    rhs = np.arange(4.0)
    assert np.allclose(dense_solve_oracle(np.eye(4), rhs), rhs)


def test_dense_oracle_singular():
    with pytest.raises(SingularSystemError):
        dense_solve_oracle(np.zeros((3, 3)), np.ones(3))


def test_dense_oracle_size_cap():
    with pytest.raises(ValueError):
        dense_solve_oracle(np.eye(5000), np.ones(5000))


def test_oracle_equivalence_random_instances():
    # cross-check every kernel against the dense oracle on random instances
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(3, 40))
        mesh = build_uniform_axis(n, float(rng.uniform(0.5, 2.0)))
        h_t = float(rng.uniform(0.0, 0.9)) * mesh.h
        factor = step_factor(mesh, h_t, 1.0, 0)
        rhs = rng.standard_normal(n - 1)
        got = thomas_solve(factor, rhs)
        expected = dense_solve_oracle(dense(factor), rhs)
        scale = max(1.0, float(np.max(np.abs(expected))))
        worst = max(worst, float(np.max(np.abs(got - expected))) / scale)
    assert worst < 1e-11


def test_step_factor_spectrum_matches_dense():
    mesh = build_uniform_axis(9, 1.3)
    h_t, a = 0.07, 1.4
    # the step factor is B + (h_t^2/12) A of the 1D pair
    mu_b, mu_a = pair_spectra([mesh], (a,), "prod_stiffprod")
    spec = np.sort(mu_b + h_t**2 / 12.0 * mu_a)
    eigs = np.sort(np.linalg.eigvalsh(dense(step_factor(mesh, h_t, a))))
    assert np.allclose(spec, eigs, rtol=1e-12)
    with pytest.raises(ValueError):
        pair_spectra([mesh], (a,), "prod_residual_stiffprod")


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("pair", sorted(PAIR_FORMS))
def test_face_rows_give_the_full_apply_of_a_trace_bitwise(pair, dims):
    # the maps of one face take the slab at the face to the layer next to
    # it exactly as the full maps do; off those layers a zero-interior
    # trace maps to zero
    rng = np.random.default_rng(40 + dims)
    meshes = [
        build_uniform_axis(int(rng.integers(2, 6)), float(rng.uniform(0.5, 2.0))) for _ in range(dims)
    ]
    speeds = tuple(float(v) for v in rng.uniform(0.3, 1.8, dims))
    h_t = 0.3 * min(m.h for m in meshes)
    trace = rng.standard_normal(tuple(m.nodes.size for m in meshes))
    trace[tuple(slice(1, -1) for _ in meshes)] = 0.0
    full = pair_appliers(pair, meshes, speeds, h_t)
    near_face = np.zeros(tuple(m.nodes.size - 2 for m in meshes), dtype=bool)
    for axis in range(dims):
        for side in (0, -1):
            slab, layer = [slice(None)] * dims, [slice(None)] * dims
            slab[axis] = slice(0, 3) if side == 0 else slice(-3, None)
            layer[axis] = slice(0, 1) if side == 0 else slice(-1, None)
            face = pair_appliers(pair, meshes, speeds, h_t, face=(axis, side))
            for got, want in zip(face, full):
                assert np.array_equal(got(trace[tuple(slab)]), want(trace)[tuple(layer)])
            near_face[tuple(layer)] = True
    for want in full:
        assert not np.any(want(trace)[~near_face])


def test_spectral_trace_needs_face_appliers():
    mesh = build_uniform_axis(6, 1.0)
    mass = pair_appliers("prod_stiffprod", [mesh, mesh], (1.0, 1.0))[0]
    handle = SpectralHandle(pair_spectra([mesh, mesh], (1.0, 1.0), "prod_stiffprod")[0], mass)
    with pytest.raises(ValueError, match="face appliers"):
        handle.solve(np.zeros((5, 5)), boundary=np.ones((7, 7)))
