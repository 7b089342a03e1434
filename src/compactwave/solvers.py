"""Linear-system kernels: factored tridiagonal solves, sine-transform
diagonalization and sequential splitting solves.

Every implicit scheme step solves a system with the same operator.  The
splitting form's product of per-axis step factors is solved axis by axis,
with one TriSolver per factor that factors its rows once.  The step factor
of a 1D scheme is solved by a stack handle, which also solves the step
factors of several 1D schemes on one axis, one column each, as one
block-diagonal TriSolver whose blocks solve as they do alone.  The spectral
solver keeps the eigenvalue tensor of an assembled nD operator over the
tensor sine basis.  The handles apply their operator and solve with it,
lifting a given trace (the spectral one from the operator's rows next to each
face).  The spectra of an operator pair are `operators.compose_pair`, the
composer of the stencil rows, over per-axis eigenvalue factors broadcast over
the tensor.
The sine analysis transforms the trailing axes of a stack of arrays in one
call (the energy certificates analyse all levels of a run at once); on small
axes each transform is one matrix product with the symmetric sine matrix.
LAPACK's tridiagonal routines load with the module, bound from SciPy's
compiled `scipy.linalg._flapack` extension alone: the `scipy.linalg` package,
and the NumPy submodules its array-API layer loads, are not imported.
`scipy.fft` loads on the first fast transform, and that first call then pays
SciPy's base import (about 0.2 s).
"""

from __future__ import annotations

import functools
import importlib.util
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Callable, Sequence

import numpy as np

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
    "StackHandle",
]

_DIRECT_DST_MAX = 256
# the LAPACK tridiagonal wrappers need at least three unknowns
_GT_MIN_UNKNOWNS = 3

_sine_matrix_cache: dict[int, np.ndarray] = {}


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, `scipy.linalg._flapack`, loaded from
    the installed package's `linalg/` folder without running any package
    `__init__` (`find_spec` of a top-level package imports nothing).  The
    extension loader records the module in `sys.modules` under its own name,
    so a later `import scipy.linalg` takes this same module: these are the
    very routines `scipy.linalg.lapack` exports."""
    name = "scipy.linalg._flapack"
    scipy_spec = importlib.util.find_spec("scipy")
    spec = None
    if scipy_spec is not None:
        folder = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
        spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"cannot find the compiled extension {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs


class SingularSystemError(RuntimeError):
    """Raised when an assembled operator is (numerically) singular."""


class TriSolver:
    """Repeated solves with one tridiagonal factor, or with the
    block-diagonal system of several.

    The LU factorization with partial pivoting (LAPACK ?gttrf) is computed
    once; each solve is one ?gttrs sweep (the wrappers `scipy.linalg.lapack`
    exports, bound without importing `scipy.linalg`).  On strongly graded meshes the
    pivoted elimination keeps the roundoff floor of long runs visibly below
    the plain sweeps (the 4th-order error at desk scale sits near 1e-10).
    Systems of one or two unknowns are padded to three with decoupled unit
    rows.

    Several factors are solved as one system whose blocks are coupled by
    zeros, the rhs stacking the blocks' unknowns along its first axis.  A
    zero coupling never wins a pivot, so no row is swapped across a block and
    each block solves bit for bit as it does alone (a zero may change its
    sign).  A non-finite value in one block spreads to the others (0 * inf),
    so a caller keeps such blocks out of a shared solve.
    """

    def __init__(self, *factors: TridiagonalFactor):
        sizes = np.array([f.n_interior for f in factors])
        n = int(sizes.sum())
        pad = max(_GT_MIN_UNKNOWNS - n, 0)
        lower = np.concatenate([f.lower for f in factors] + [np.zeros(pad)])
        upper = np.concatenate([f.upper for f in factors] + [np.zeros(pad)])
        # each block's couplings to its boundary nodes become the zero
        # couplings between neighbouring blocks
        ends = np.cumsum(sizes)
        lower[ends - sizes] = 0.0
        upper[ends - 1] = 0.0
        *lu, info = dgttrf(
            lower[1:], np.concatenate([f.diag for f in factors] + [np.ones(pad)]), upper[:-1]
        )
        if info > 0:
            raise SingularSystemError(f"zero pivot in row {info} of the tridiagonal factor")
        self.n_interior = n
        self._lu = lu
        self._pad = pad

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        n = self.n_interior
        if rhs.shape[0] != n:
            raise ValueError(f"rhs length {rhs.shape[0]} != interior count {n}")
        if self._pad:
            rhs = np.concatenate([rhs, np.zeros((self._pad,) + rhs.shape[1:])])
        x, _ = dgttrs(*self._lu, rhs)
        return x[:n]


# ---------------------------------------------------------------------------
# sine transforms and spectra


def sine_spectrum(mesh: AxisMesh) -> np.ndarray:
    """Eigenvalues (4/h^2) sin^2(pi l h / (2 X)), l = 1..N-1, of -Lambda over
    the sine basis of one uniform axis."""
    if not mesh.uniform:
        raise MeshError("the sine basis requires uniform spatial meshes")
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

    Small axes use the direct O(N^2) matrix; larger ones the fast transform,
    which imports `scipy.fft` on its first call.  That import also pays
    SciPy's base package (about 0.2 s, once per process), which nothing else
    loads.  Both paths agree to roundoff.
    """
    n_int = values.shape[axis]
    if direct is None:
        direct = n_int <= _DIRECT_DST_MAX
    if direct:
        # the sine matrix is symmetric: a right product on the swapped view
        return (values.swapaxes(axis, -1) @ _sine_matrix(n_int + 1)).swapaxes(axis, -1)
    import scipy.fft

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
    given by its eigenvalue tensor and its applier (full array in, interior out).

    A trace is lifted face by face: face_apply(axis, side) is the operator
    with the rows of `axis` cut to the one next to that face (side 0 or -1;
    `operators.pair_appliers` with `face`).  The 2n face maps are built on
    the first solve with a trace, so a run that never lifts one never builds
    them.  Without face_apply the handle solves homogeneous systems only.
    """

    def __init__(
        self,
        eigenvalues: np.ndarray,
        apply: Callable[[np.ndarray], np.ndarray],
        face_apply: Callable[[int, int], Callable[[np.ndarray], np.ndarray]] | None = None,
    ):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        if np.any(eigenvalues == 0.0) or not np.all(np.isfinite(eigenvalues)):
            raise SingularSystemError("assembled operator has a zero eigenvalue")
        self.eigenvalues = eigenvalues
        self.apply = apply
        self._face_apply = face_apply

    @functools.cached_property
    def _faces(self) -> list[tuple[tuple, tuple, Callable[[np.ndarray], np.ndarray]]]:
        """(slab, layer, map) of each face: the 3-node slab at the face, the
        interior layer next to it and the face's map from one to the other."""
        if self._face_apply is None:
            raise ValueError("a trace needs the face appliers of the operator")
        n = self.eigenvalues.ndim
        faces = []
        for axis in range(n):
            for side in (0, -1):
                slab, layer = [slice(None)] * n, [slice(None)] * n
                slab[axis] = slice(0, 3) if side == 0 else slice(-3, None)
                layer[axis] = slice(0, 1) if side == 0 else slice(-1, None)
                faces.append((tuple(slab), tuple(layer), self._face_apply(axis, side)))
        return faces

    def solve(self, rhs: np.ndarray, boundary: np.ndarray | None = None) -> np.ndarray:
        """Solve on the interior; `boundary` as for SplittingHandle.solve.

        Its lift apply(boundary) is nonzero only on the interior layers next
        to a face.  Each face's map takes the 3-node slab at the face to its
        layer, and the layers are assigned, not added: a node next to two
        faces gets the full apply's value bit for bit, in O(N^{n-1}) work."""
        if rhs.shape != self.eigenvalues.shape:
            raise ValueError("rhs shape does not match the spectrum table")
        if boundary is not None:
            lift = np.zeros(rhs.shape)
            for slab, layer, applier in self._faces:
                lift[layer] = applier(boundary[slab])
            rhs = rhs - lift
        coeffs = sine_coefficients(rhs)
        return sine_synthesis(coeffs / self.eigenvalues)


class SplittingHandle:
    """Sequential per-axis tridiagonal solves for a product of factors, one
    per axis: the step operator of the splitting form.

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


class StackHandle:
    """The step factors of 1D schemes on one axis, one per column of a stack:
    a (N+1, K) node array steps column k with factor k, and a 1-D node array
    is a stack of one (a 1D scheme's own handle).

    The solve is one block-diagonal TriSolver over the K factors, whose
    blocks solve bit for bit as they do alone; each column lifts its trace
    with its own factor's couplings to the two boundary nodes.  Elementwise
    work is fast on a stack whose columns are contiguous (Fortran order).
    """

    def __init__(self, factors: Sequence[TridiagonalFactor]):
        self.factors = list(factors)
        self._solver = TriSolver(*self.factors)
        # the couplings to the boundary nodes, one per column (a scalar for one)
        self._lower = np.array([f.lower[0] for f in self.factors]).squeeze()
        self._upper = np.array([f.upper[-1] for f in self.factors]).squeeze()

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Each column's factor applied to a full node array; interior values."""
        columns = values.reshape(values.shape[0], -1).T
        if len(columns) != len(self.factors):
            raise ValueError(f"{len(columns)} columns for {len(self.factors)} step factors")
        out = [f.apply(c) for f, c in zip(self.factors, columns)]
        return np.stack(out, axis=-1).reshape((-1,) + values.shape[1:])

    def solve(self, rhs: np.ndarray, boundary: np.ndarray | None = None) -> np.ndarray:
        """Solve column by column on the interior; `boundary` as for
        SplittingHandle.solve.  The block-diagonal system stacks the columns
        one after another: a stack whose columns are contiguous (the
        transpose of a C-ordered (K, N+1) array) solves without a copy."""
        out = np.array(rhs, dtype=float)
        if boundary is not None:
            out[0] -= self._lower * boundary[0]
            out[-1] -= self._upper * boundary[-1]
        return self._solver.solve(out.T.reshape(-1)).reshape(out.shape[::-1]).T
