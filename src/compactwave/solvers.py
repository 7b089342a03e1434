"""Linear-system kernels: factored tridiagonal solves, sine-transform
diagonalization, sequential splitting solves, and a dense oracle for tests.

Every implicit scheme step solves a system with the same operator, so the
tridiagonal solver factors its operator once and the spectral solver keeps
the eigenvalue tensor of the assembled operator over the tensor sine basis.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np
import scipy.fft

from .mesh import AxisMesh, MeshError
from .operators import TridiagonalFactor

__all__ = [
    "SingularSystemError",
    "TriSolver",
    "sine_spectrum",
    "dst1",
    "idst1",
    "sine_coefficients",
    "sine_synthesis",
    "pair_spectra",
    "operator_pair_c0",
    "SpectralHandle",
    "SplittingHandle",
    "dense_solve_oracle",
    "assemble_dense_operator",
]

DENSE_ORACLE_MAX_UNKNOWNS = 4096
_DIRECT_DST_MAX = 256
# the LAPACK tridiagonal wrappers need at least three unknowns
_GT_MIN_UNKNOWNS = 3

_sine_matrix_cache: dict[int, np.ndarray] = {}


class SingularSystemError(RuntimeError):
    """Raised when an assembled operator is (numerically) singular."""


class TriSolver:
    """Repeated solves with one tridiagonal factor.

    The LU factorization with partial pivoting (LAPACK ?gttrf) is computed
    once; each solve is one ?gttrs sweep.  On strongly graded meshes the
    pivoted elimination keeps the roundoff floor of long runs visibly below
    the plain sweeps (the 4th-order error at desk scale sits near 1e-10).
    Systems of one or two unknowns are padded to three with decoupled unit
    rows.
    """

    def __init__(self, factor: TridiagonalFactor):
        # imported here, not with the module: scipy.linalg adds ~0.1 s and
        # ~5 MB to every run, and only the tridiagonal solves need it
        from scipy.linalg.lapack import dgttrf, dgttrs

        n = factor.n_interior
        pad = max(_GT_MIN_UNKNOWNS - n, 0)
        off = np.zeros(pad)
        *lu, info = dgttrf(
            np.concatenate([factor.lower[1:], off]),
            np.concatenate([factor.diag, np.ones(pad)]),
            np.concatenate([factor.upper[:-1], off]),
        )
        if info > 0:
            raise SingularSystemError(f"zero pivot in row {info} of the tridiagonal factor")
        self.factor = factor
        self._lu = lu
        self._pad = pad
        self._dgttrs = dgttrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        n = self.factor.n_interior
        if rhs.shape[0] != n:
            raise ValueError(f"rhs length {rhs.shape[0]} != interior count {n}")
        if self._pad:
            rhs = np.concatenate([rhs, np.zeros((self._pad,) + rhs.shape[1:])])
        x, _ = self._dgttrs(*self._lu, rhs)
        return x[:n]


# ---------------------------------------------------------------------------
# sine transforms and spectra


def sine_spectrum(
    mesh: AxisMesh, kind: str, h_t: float | None = None, speed: float | None = None
) -> np.ndarray:
    """Eigenvalues over the sine basis of one uniform axis.

    kind 'neg_second_diff': (4/h^2) sin^2(pi l h / (2 X)), l = 1..N-1;
    kind 'axis_average':    1 - h^2 lambda / 12;
    kind 'step_factor':     1 - (h^2 - h_t^2 a^2) lambda / 12.
    """
    if not mesh.uniform:
        raise MeshError("sine spectra require a uniform axis")
    n = mesh.n_intervals
    h = mesh.h
    lam = (4.0 / h**2) * np.sin(np.pi * np.arange(1, n) / (2.0 * n)) ** 2
    if kind == "neg_second_diff":
        return lam
    if kind == "axis_average":
        return 1.0 - h**2 * lam / 12.0
    if kind == "step_factor":
        if h_t is None or speed is None:
            raise ValueError("step_factor spectrum needs h_t and speed")
        return 1.0 - (h**2 - h_t**2 * speed**2) * lam / 12.0
    raise ValueError(f"unknown spectrum kind {kind!r}")


def _sine_matrix(n_intervals: int) -> np.ndarray:
    mat = _sine_matrix_cache.get(n_intervals)
    if mat is None:
        l = np.arange(1, n_intervals)
        mat = np.sin(np.pi * np.outer(l, l) / n_intervals)
        _sine_matrix_cache[n_intervals] = mat
    return mat


def dst1(values: np.ndarray, axis: int, direct: bool | None = None) -> np.ndarray:
    """Sine analysis c_l = sum_k w_k sin(pi l k / N) along one axis.

    Small axes use the direct O(N^2) matrix; larger ones the fast transform.
    Both paths agree to roundoff.
    """
    n_int = values.shape[axis]
    if direct is None:
        direct = n_int <= _DIRECT_DST_MAX
    if direct:
        mat = _sine_matrix(n_int + 1)
        return np.moveaxis(np.tensordot(mat, np.moveaxis(values, axis, 0), axes=1), 0, axis)
    return scipy.fft.dst(values, type=1, axis=axis) / 2.0


def idst1(values: np.ndarray, axis: int, direct: bool | None = None) -> np.ndarray:
    """Inverse of dst1 (the sine matrix squares to (N/2) I)."""
    n_int = values.shape[axis]
    return dst1(values, axis, direct) * (2.0 / (n_int + 1))


def sine_coefficients(interior: np.ndarray) -> np.ndarray:
    out = interior
    for axis in range(interior.ndim):
        out = dst1(out, axis)
    scale = 1.0
    for axis in range(interior.ndim):
        scale *= 2.0 / (interior.shape[axis] + 1)
    return out * scale


def sine_synthesis(coeffs: np.ndarray) -> np.ndarray:
    out = coeffs
    for axis in range(coeffs.ndim):
        out = dst1(out, axis)
    return out


def pair_spectra(
    meshes: Sequence[AxisMesh],
    speeds: Sequence[float],
    pair: str,
    h_t: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue tensors (mu_B, mu_A) of an operator pair over the sine basis.

    Pairs: 'sum_stiffsum' (additive average with sum-form stiffness),
    'prod_stiffsum', 'prod_stiffprod', 'prod_residual_stiffprod' (splitting;
    needs h_t), 'identity_stiffness' (unit mass with -a_i^2 Lambda_i).
    """
    n = len(meshes)
    lam = [sine_spectrum(m, "neg_second_diff") for m in meshes]
    shape = tuple(v.size for v in lam)
    lam_nd = [lam[i].reshape((1,) * i + (-1,) + (1,) * (n - i - 1)) for i in range(n)]
    s_fac = [1.0 - meshes[i].h ** 2 * lam_nd[i] / 12.0 for i in range(n)]
    a2 = [speeds[i] ** 2 for i in range(n)]

    def stiff_sum() -> np.ndarray:
        total = np.zeros(shape)
        for i in range(n):
            cross = np.ones(shape)
            for j in range(n):
                if j != i:
                    cross = cross - meshes[j].h ** 2 * lam_nd[j] / 12.0
            total = total + a2[i] * lam_nd[i] * cross
        return total

    def stiff_prod() -> np.ndarray:
        total = np.zeros(shape)
        for i in range(n):
            cross = np.ones(shape)
            for j in range(n):
                if j != i:
                    cross = cross * s_fac[j]
            total = total + a2[i] * lam_nd[i] * cross
        return total

    def mass_prod() -> np.ndarray:
        out = np.ones(shape)
        for i in range(n):
            out = out * s_fac[i]
        return out

    def residual() -> np.ndarray:
        if h_t is None:
            raise ValueError("splitting residual spectrum needs h_t")
        c = h_t**2 / 12.0
        out = np.zeros(shape)
        for k in range(2, n + 1):
            for combo in itertools.combinations(range(n), k):
                term = np.full(shape, c**k)
                for i in combo:
                    term = term * a2[i] * lam_nd[i]
                for j in range(n):
                    if j not in combo:
                        term = term * s_fac[j]
                out = out + term
        return out

    if pair == "sum_stiffsum":
        mu_b = np.ones(shape)
        for i in range(n):
            mu_b = mu_b - meshes[i].h ** 2 * lam_nd[i] / 12.0
        return mu_b, stiff_sum()
    if pair == "prod_stiffsum":
        return mass_prod(), stiff_sum()
    if pair == "prod_stiffprod":
        return mass_prod(), stiff_prod()
    if pair == "prod_residual_stiffprod":
        return mass_prod() + residual(), stiff_prod()
    if pair == "identity_stiffness":
        total = np.zeros(shape)
        for i in range(n):
            total = total + a2[i] * lam_nd[i]
        return np.ones(shape), total
    raise ValueError(f"unknown operator pair {pair!r}")


def operator_pair_c0(pair: str) -> float:
    """Time-step condition constant of the pair (4/3 for the additive-average
    pair in two dimensions, 1 otherwise)."""
    return 4.0 / 3.0 if pair == "sum_stiffsum" else 1.0


# ---------------------------------------------------------------------------
# solver handles


class SpectralHandle:
    """Diagonal solve over the tensor sine basis for an assembled operator."""

    def __init__(self, eigenvalues: np.ndarray):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        if np.any(eigenvalues == 0.0) or not np.all(np.isfinite(eigenvalues)):
            raise SingularSystemError("assembled operator has a zero eigenvalue")
        self.eigenvalues = eigenvalues

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.shape != self.eigenvalues.shape:
            raise ValueError("rhs shape does not match the spectrum table")
        coeffs = sine_coefficients(rhs)
        return sine_synthesis(coeffs / self.eigenvalues)

    def apply(self, interior: np.ndarray) -> np.ndarray:
        coeffs = sine_coefficients(interior)
        return sine_synthesis(coeffs * self.eigenvalues)


def _factor_apply_full(values: np.ndarray, factor: TridiagonalFactor) -> np.ndarray:
    w = np.moveaxis(values, factor.axis, 0)
    out = w.copy()
    ndim = w.ndim
    lo = factor.lower.reshape((-1,) + (1,) * (ndim - 1))
    di = factor.diag.reshape((-1,) + (1,) * (ndim - 1))
    hi = factor.upper.reshape((-1,) + (1,) * (ndim - 1))
    out[1:-1] = lo * w[:-2] + di * w[1:-1] + hi * w[2:]
    return np.moveaxis(out, 0, factor.axis)


class SplittingHandle:
    """Sequential per-axis tridiagonal solves for a factorized operator.

    Nonhomogeneous boundary values enter through the partial products of the
    remaining factors applied to the boundary extension.
    """

    def __init__(self, factors: Sequence[TridiagonalFactor]):
        self.factors = list(factors)
        self._solvers = [TriSolver(f) for f in self.factors]

    def apply_full(self, values: np.ndarray) -> np.ndarray:
        """Factor product applied on the full node array (interior valid)."""
        out = values
        for factor in self.factors:
            out = _factor_apply_full(out, factor)
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.apply_full(values)[tuple(slice(1, -1) for _ in self.factors)]

    def solve(self, rhs: np.ndarray, boundary: np.ndarray | None = None) -> np.ndarray:
        """Solve (product of factors) x = rhs on the interior.

        `boundary` is the full node array holding the known boundary values of
        x (zero interior); omit it for homogeneous data.
        """
        n = len(self.factors)
        partials: list[np.ndarray | None] = [None] * n
        if boundary is not None:
            trail = boundary
            partials[n - 1] = trail
            for j in range(n - 2, -1, -1):
                trail = _factor_apply_full(trail, self.factors[j + 1])
                partials[j] = trail
        out = np.asarray(rhs, dtype=float).copy()
        for j, (factor, solver) in enumerate(zip(self.factors, self._solvers)):
            axis = factor.axis
            if partials[j] is not None:
                pj = partials[j]
                face = np.moveaxis(pj, axis, 0)
                inner = tuple(slice(1, -1) for _ in range(n - 1))
                sub = np.moveaxis(out, axis, 0)
                sub[0] -= factor.lower[0] * face[0][inner]
                sub[-1] -= factor.upper[-1] * face[-1][inner]
            w = np.moveaxis(out, axis, 0)
            flat = w.reshape(w.shape[0], -1)
            solved = solver.solve(flat)
            out = np.moveaxis(solved.reshape(w.shape), 0, axis)
        return out


# ---------------------------------------------------------------------------
# dense oracle


def dense_solve_oracle(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Direct factorization solve of an explicitly assembled operator."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("operator matrix must be square")
    if matrix.shape[0] > DENSE_ORACLE_MAX_UNKNOWNS:
        raise ValueError(f"dense oracle capped at {DENSE_ORACLE_MAX_UNKNOWNS} unknowns")
    try:
        return np.linalg.solve(matrix, np.asarray(rhs, dtype=float).reshape(matrix.shape[0], -1)).reshape(np.shape(rhs))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc


def assemble_dense_operator(
    apply_fn: Callable[[np.ndarray], np.ndarray], interior_shape: tuple[int, ...]
) -> np.ndarray:
    """Materialize an interior-to-interior operator column by column."""
    size = int(np.prod(interior_shape))
    if size > DENSE_ORACLE_MAX_UNKNOWNS:
        raise ValueError(f"dense assembly capped at {DENSE_ORACLE_MAX_UNKNOWNS} unknowns")
    matrix = np.empty((size, size))
    basis = np.zeros(interior_shape)
    flat = basis.reshape(-1)
    for j in range(size):
        flat[j] = 1.0
        matrix[:, j] = np.asarray(apply_fn(basis)).reshape(-1)
        flat[j] = 0.0
    return matrix
