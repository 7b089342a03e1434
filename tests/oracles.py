"""Reference solvers that the tests compare the library kernels against."""

import math
from typing import Callable

import numpy as np

from compactwave.operators import TridiagonalFactor, _hat_weights_t
from compactwave.solvers import SingularSystemError, pair_spectra, sine_coefficients

_PIVOT_RTOL = 1e-14
DENSE_ORACLE_MAX_UNKNOWNS = 4096


def thomas_solve(factor: TridiagonalFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve the interior tridiagonal system by forward elimination and back
    substitution (no pivoting); rhs may carry trailing dimensions."""
    lo, di, up = factor.lower, factor.diag, factor.upper
    n = di.size
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != n:
        raise ValueError(f"rhs length {rhs.shape[0]} != interior count {n}")
    scale = max(np.abs(lo).max(), np.abs(di).max(), np.abs(up).max())
    cp = np.empty(n)
    x = rhs.astype(float, copy=True)
    den = di[0]
    if abs(den) <= _PIVOT_RTOL * scale:
        raise SingularSystemError("zero pivot in tridiagonal elimination")
    cp[0] = up[0] / den
    x[0] = x[0] / den
    for i in range(1, n):
        den = di[i] - lo[i] * cp[i - 1]
        if abs(den) <= _PIVOT_RTOL * scale:
            raise SingularSystemError("zero pivot in tridiagonal elimination")
        cp[i] = up[i] / den
        x[i] = (x[i] - lo[i] * x[i - 1]) / den
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


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


def hat_average_t(profile, tmesh, level: int) -> float:
    """Hat average of a temporal profile at one interior time level: the
    entry of the library's per-level weights, looked up one level at a time."""
    if not 1 <= level <= tmesh.n_steps - 1:
        raise ValueError(f"level {level} is not an interior time level")
    return float(_hat_weights_t(profile, tmesh)[level])


def energy_bound_per_level(trajectory, meshes, speeds, h_t, pair, u1n, forcing, which, eps0):
    """(lhs, rhs) of the default strong or weak energy estimate, with one
    sine analysis per level and one norm per level."""
    interior = tuple(slice(1, -1) for _ in meshes)
    mu_b, mu_a = pair_spectra(meshes, speeds, pair, h_t)
    scale = math.prod(m.extent / 2.0 for m in meshes)

    def norm(coeffs, weights):
        return math.sqrt(scale * float(np.sum(coeffs**2 * weights)))

    levels = [sine_coefficients(np.asarray(v)[interior]) for v in trajectory]
    f_coeffs = [sine_coefficients(np.asarray(f)) for f in forcing]
    u1_coeffs = sine_coefficients(np.asarray(u1n))
    if which == "strong":
        lhs = 0.0
        for m in range(1, len(levels)):
            diff = (levels[m] - levels[m - 1]) / h_t
            mean = 0.5 * (levels[m] + levels[m - 1])
            val = math.sqrt(
                eps0**2 * scale * float(np.sum(diff**2 * mu_b))
                + scale * float(np.sum(mean**2 * mu_a))
            )
            lhs = max(lhs, val)
        head = math.sqrt(
            scale * float(np.sum(levels[0] ** 2 * mu_a))
            + eps0**-2 * scale * float(np.sum(u1_coeffs**2 / mu_b))
        )
        l1 = 0.25 * h_t * norm(f_coeffs[0], 1.0 / mu_b)
        for fc in f_coeffs[1:]:
            l1 += h_t * norm(fc, 1.0 / mu_b)
        return lhs, head + 2.0 / eps0 * l1
    lhs = 0.0
    running = np.zeros_like(levels[0])
    for m in range(len(levels)):
        val = eps0 * norm(levels[m], mu_b)
        if m >= 1:
            running = running + h_t * 0.5 * (levels[m] + levels[m - 1])
            val = max(val, norm(running, mu_a))
        lhs = max(lhs, val)
    head = norm(levels[0], mu_b) + 2.0 * norm(u1_coeffs, 1.0 / mu_a)
    l1 = 0.25 * h_t * norm(f_coeffs[0], 1.0 / mu_a)
    for fc in f_coeffs[1:]:
        l1 += h_t * norm(fc, 1.0 / mu_a)
    return lhs, head + 2.0 * l1


def signed_power_pow(k: int, x) -> np.ndarray:
    """sign(x) (2x)^k for k >= 2 with a float pow, the formula the library's
    integer powers reproduce."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * (2.0 * x) ** k


def signed_power_antideriv_pow(k: int, x) -> np.ndarray:
    """Antiderivative of the signed-power piece vanishing at 0, with a float
    pow for k >= 2."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.maximum(x, 0.0)
    if k == 1:
        return x - x * np.abs(x)
    pos = (2.0 * x) ** (k + 1)
    neg = (-1.0) ** k * (-2.0 * x) ** (k + 1)
    return np.where(x >= 0, pos, neg) / (2.0 * (k + 1))


_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)


def forcing_convolution_gauss(j: int, degree: int, x, tau, a: float) -> np.ndarray:
    """int_0^tau s^degree [W_j(x + a(tau-s)) - W_j(x - a(tau-s))] ds by
    quadrature, W_j the signed-power antiderivative (zero for tau <= 0).

    The integrand is piecewise polynomial in s with breakpoints where the
    arguments cross zero; the 6-point Gauss rule on each of the three pieces
    is exact up to degree 11.
    """
    x, tau = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(tau, dtype=float))
    flat_x = x.reshape(-1)
    flat_tau = tau.reshape(-1)
    out = np.zeros_like(flat_x)
    active = flat_tau > 0
    if np.any(active):
        xa = flat_x[active]
        ta = flat_tau[active]
        cand = np.stack(
            [np.zeros_like(xa), ta, np.clip(ta + xa / a, 0.0, ta), np.clip(ta - xa / a, 0.0, ta)],
            axis=-1,
        )
        cand.sort(axis=-1)
        lo = cand[:, :-1]
        hi = cand[:, 1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        s = mid[..., None] + half[..., None] * _GL_X
        arg = ta[:, None, None] - s
        xa = xa[:, None, None]
        vals = s**degree * (
            signed_power_antideriv_pow(j, xa + a * arg) - signed_power_antideriv_pow(j, xa - a * arg)
        )
        out[active] = np.sum(half[..., None] * vals * _GL_W, axis=(-1, -2))
    return out.reshape(x.shape)
