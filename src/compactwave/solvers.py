"""Linear-system kernels: factored tridiagonal solves, sine-transform
diagonalization and sequential splitting solves.

Every implicit scheme step solves a system with the same operator.  A
factored operator (one per-axis step factor for the 1D schemes, one per axis
for the splitting form) is solved axis by axis, with one TriSolver per factor
that factors its rows once.  The spectral solver keeps the eigenvalue tensor
of an assembled nD operator over the tensor sine basis.  Both handles apply
their operator and solve with it, lifting a given trace.  The spectra of an
operator pair are `operators.compose_pair`, the composer of the stencil
rows, over per-axis eigenvalue factors broadcast over the tensor.
The sine analysis transforms the trailing axes of a stack of arrays in one
call (the energy certificates analyse all levels of a run at once); on small
axes each transform is one matrix product with the symmetric sine matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.fft

from .mesh import AxisMesh, MeshError
from .operators import TridiagonalFactor, compose_pair, pair_forms

__all__ = [
    "SingularSystemError",
    "TriSolver",
    "sine_spectrum",
    "dst1",
    "sine_coefficients",
    "sine_synthesis",
    "pair_spectra",
    "operator_pair_c0",
    "SpectralHandle",
    "SplittingHandle",
]

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


def sine_spectrum(mesh: AxisMesh) -> np.ndarray:
    """Eigenvalues (4/h^2) sin^2(pi l h / (2 X)), l = 1..N-1, of -Lambda over
    the sine basis of one uniform axis."""
    if not mesh.uniform:
        raise MeshError("sine spectra require a uniform axis")
    n = mesh.n_intervals
    return (4.0 / mesh.h**2) * np.sin(np.pi * np.arange(1, n) / (2.0 * n)) ** 2


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
        # the sine matrix is symmetric: a right product on the swapped view
        return (values.swapaxes(axis, -1) @ _sine_matrix(n_int + 1)).swapaxes(axis, -1)
    return scipy.fft.dst(values, type=1, axis=axis) / 2.0


def sine_coefficients(interior: np.ndarray, batch: int = 0) -> np.ndarray:
    """Coefficients over the tensor sine basis of the trailing axes; the
    leading `batch` axes index a stack of arrays analysed in one call."""
    out = interior
    scale = 1.0
    for axis in range(batch, interior.ndim):
        out = dst1(out, axis)
        scale *= 2.0 / (interior.shape[axis] + 1)
    return out * scale


def sine_synthesis(coeffs: np.ndarray) -> np.ndarray:
    out = coeffs
    for axis in range(coeffs.ndim):
        out = dst1(out, axis)
    return out


@dataclass(frozen=True, eq=False)
class _SineFactor:
    """Per-axis sine eigenvalues as an operator factor: `apply` keeps the
    interior of its axis and scales it mode by mode (a one-node interior
    broadcasts to every mode)."""

    axis: int
    eigenvalues: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        w = values.swapaxes(self.axis, -1)
        return (w[..., 1:-1] * self.eigenvalues).swapaxes(-1, self.axis)


def pair_spectra(
    meshes: Sequence[AxisMesh],
    speeds: Sequence[float],
    pair: str | None,
    h_t: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue tensors (mu_B, mu_A) of an operator pair over the sine basis.

    `operators.compose_pair` over per-axis eigenvalue factors (lambda_i of
    -Lambda_i; 1 - h_i^2 lambda_i / 12 for S_i, a_i^2 lambda_i for the
    stiffness rows), applied to an array with one interior node per axis,
    which they broadcast over the tensor (mu_B = 1 of no pair too).  The
    splitting pair needs h_t.
    """
    lam = [sine_spectrum(m) for m in meshes]
    averages = [_SineFactor(i, 1.0 - m.h**2 * l / 12.0) for i, (m, l) in enumerate(zip(meshes, lam))]
    stiffs = [_SineFactor(i, a**2 * l) for i, (a, l) in enumerate(zip(speeds, lam))]
    mass, stiffness = compose_pair(pair, averages, stiffs, h_t)
    node = np.ones((3,) * len(meshes))
    return np.broadcast_arrays(mass(node), stiffness(node))


def operator_pair_c0(pair: str) -> float:
    """Time-step condition constant of the pair (4/3 for the additive-average
    pair in two dimensions, 1 otherwise)."""
    return pair_forms(pair).c0


# ---------------------------------------------------------------------------
# solver handles


class SpectralHandle:
    """Diagonal solve over the tensor sine basis for an assembled operator,
    given by its eigenvalue tensor and its applier (full array in, interior out)."""

    def __init__(self, eigenvalues: np.ndarray, apply: Callable[[np.ndarray], np.ndarray]):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        if np.any(eigenvalues == 0.0) or not np.all(np.isfinite(eigenvalues)):
            raise SingularSystemError("assembled operator has a zero eigenvalue")
        self.eigenvalues = eigenvalues
        self.apply = apply

    def solve(self, rhs: np.ndarray, boundary: np.ndarray | None = None) -> np.ndarray:
        """Solve on the interior; `boundary` as for SplittingHandle.solve."""
        if rhs.shape != self.eigenvalues.shape:
            raise ValueError("rhs shape does not match the spectrum table")
        if boundary is not None:
            rhs = rhs - self.apply(boundary)
        coeffs = sine_coefficients(rhs)
        return sine_synthesis(coeffs / self.eigenvalues)


class SplittingHandle:
    """Sequential per-axis tridiagonal solves for a product of factors, one
    per axis; a single factor is the step operator of a 1D scheme.

    Nonhomogeneous boundary values enter through the partial products of the
    remaining factors applied to the boundary extension.
    """

    def __init__(self, factors: Sequence[TridiagonalFactor]):
        self.factors = list(factors)
        self._solvers = [TriSolver(f) for f in self.factors]
        # the partial product of factor j is interior along the axes solved before j
        axes = [f.axis for f in self.factors]
        self._solved_before = [
            tuple(slice(1, -1) if a in axes[:j] else slice(None) for a in range(len(axes)))
            for j in range(len(axes))
        ]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Factor product applied to a full node array; interior values."""
        for factor in self.factors:
            values = factor.apply(values)
        return values

    def solve(self, rhs: np.ndarray, boundary: np.ndarray | None = None) -> np.ndarray:
        """Solve (product of factors) x = rhs on the interior.

        `boundary` is the full node array holding the known boundary values of
        x (zero interior); omit it for homogeneous data.
        """
        n = len(self.factors)
        # partials[j]: the factors after j applied to the boundary extension
        partials: list[np.ndarray | None] = [None] * n
        if boundary is not None:
            partials[n - 1] = boundary
            for j in range(n - 1, 0, -1):
                partials[j - 1] = self.factors[j].apply(partials[j])
        out = np.array(rhs, dtype=float)
        for factor, solver, partial, before in zip(
            self.factors, self._solvers, partials, self._solved_before
        ):
            axis = factor.axis
            w = out.swapaxes(axis, 0)
            if partial is not None:
                face = partial[before].swapaxes(axis, 0)
                w[0] -= factor.lower[0] * face[0]
                w[-1] -= factor.upper[-1] * face[-1]
            solved = solver.solve(w.reshape(w.shape[0], -1))
            out = solved.reshape(w.shape).swapaxes(0, axis)
        return out
