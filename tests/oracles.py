"""Reference solvers that the tests compare the library kernels against."""

import math
from typing import Callable

import numpy as np

from compactwave.analysis import ErrorTriple
from compactwave.operators import (
    TIE_RTOL,
    QPiece,
    SpaceDirac,
    TimeDirac,
    TridiagonalFactor,
    _convolution_plan,
    _dalembert_forcing_part,
    _hat_weights_t,
    _horner,
    _int_power,
    _signed_power,
    _signed_power_antideriv,
    _snap,
    _step,
)
from compactwave.problems import EXAMPLE_COEFFICIENTS, _example_pieces
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


def dense(factor: TridiagonalFactor) -> np.ndarray:
    """The interior rows of a factor as a dense matrix."""
    m = np.diag(factor.diag)
    m += np.diag(factor.lower[1:], k=-1)
    m += np.diag(factor.upper[:-1], k=1)
    return m


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


class PerLevelErrorObserver:
    """The three error norms of analysis.ErrorObserver reduced level by level
    as each level is shown: one residual and one dot product per norm and
    level, with running maxima."""

    def __init__(self, exact, axis, tmesh):
        self.exact = exact
        self.nodes = axis.nodes
        self.h = axis.extent / axis.n_intervals
        self.h_t = tmesh.horizon / tmesh.n_steps
        self._prev_r = None
        self._l2 = 0.0
        self._c = 0.0
        self._e = 0.0

    def observe(self, level, t, values):
        r = self.exact(self.nodes, t) - values
        ri = r[1:-1]
        self._l2 = max(self._l2, math.sqrt(self.h * float(ri @ ri)))
        self._c = max(self._c, float(np.max(np.abs(r))))
        if level >= 1 and self._prev_r is not None:
            dt = (ri - self._prev_r[1:-1]) / self.h_t
            dx = (r[1:] - r[:-1]) / self.h
            e_time = math.sqrt(self.h * float(dt @ dt))
            e_space = math.sqrt(self.h * float(dx @ dx))
            self._e = max(self._e, e_time, e_space)
        self._prev_r = r

    def result(self):
        return ErrorTriple(self._l2, self._c, self._e)


def char_forcing_per_level(f_data, nodes, tmesh, a):
    """The characteristic runner's forcing terms (schemes._char_forcing) with
    one cone evaluation per level and a rolling window of three levels.

    The forcing terms of the recursion at the interior nodes, one per
    step m = 0 .. M-1: (h_t^2/2) f_k^0 at m = 0 and h_t^2 f_k^m after, with
    f_k^m the average of the forcing over the footprint of node k.

    By d'Alembert's parallelogram rule each footprint integral is a signed
    sum of backward-cone integrals C_m (operators._dalembert_forcing_part at
    t_m, all nodes), which the exact solutions evaluate, Dirac atoms on the
    cone's sides and apex included: C_1[k] for the triangle below t_1, and
    C_{m+1}[k] - C_m[k-1] - C_m[k+1] + C_{m-1}[k] for the rhomb
    (t_{m-1}, t_{m+1}).  C is evaluated once per level, when the level is
    asked for, and three levels are kept.
    """
    cone = lambda m: _dalembert_forcing_part(f_data, nodes, tmesh.nodes[m], a)
    mid, above = cone(0), cone(1)
    yield above[1:-1]
    for m in range(1, tmesh.n_steps):
        below, mid, above = mid, above, cone(m + 1)
        yield above[1:-1] - mid[:-2] - mid[2:] + below[1:-1]


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


# ---------------------------------------------------------------------------
# the E_alpha exact solutions as they were evaluated before one time took
# scalar arithmetic, the velocity term reused the position term's powers and
# a correction wave of zeros was skipped; frozen verbatim, every result of
# problems.make_example's evaluator must equal theirs bit for bit


def forcing_convolution_frozen(j: int, degree: int, x, tau, a: float) -> np.ndarray:
    """operators._forcing_convolution with tau a NumPy value or array."""
    left, right, cone, m = _convolution_plan(j, degree)
    tau = np.maximum(tau, 0.0)
    scale = {k: a**k * _int_power(tau, degree + k + 1) for k in range(1, m + 1, 2)}

    def odd_sum(rows):
        return _horner([sum(f * scale[k] for k, f in row) for row in rows], x)

    on_right = x >= 0
    cone = cone / a ** (degree + 1)
    if m % 2:
        cone = np.where(on_right, -cone, cone)
    reach = np.maximum(a * tau - np.abs(x), 0.0)
    odd = np.where(on_right, odd_sum(right), odd_sum(left))
    return odd + cone * _int_power(reach, degree + m + 1)


def dalembert_forcing_part_frozen(terms, x, t, a: float) -> np.ndarray:
    """operators._dalembert_forcing_part with t a NumPy value or array."""
    total = np.zeros(np.broadcast(x, t).shape)
    # the latest time asked for, widened past the snap of t - t_* to zero
    latest = (t + 2.0 * TIE_RTOL * np.abs(t)).max()
    for term in terms:
        space, time = term.space, term.time
        if latest < time.t_star:
            continue  # not switched on anywhere yet: the term adds exact zeros
        tau = t - time.t_star
        if isinstance(time, TimeDirac):
            if isinstance(space, SpaceDirac):
                # 1/2 on the cone's sides, 1/4 at its apex (0, t_*)
                dx = np.abs(x - space.location)
                contrib = _step(_snap(a * tau - dx, dx + a * np.abs(t))) * _step(
                    _snap(tau, np.abs(t))
                )
            else:
                contrib = _step(tau) * (
                    _signed_power_antideriv(space.degree, x + a * tau)
                    - _signed_power_antideriv(space.degree, x - a * tau)
                )
        elif isinstance(space, SpaceDirac):
            # window where the backward cone covers the atom
            lo = np.abs(x - space.location) / a
            width = np.maximum(tau - lo, 0.0)
            contrib = np.where(
                width > 0, QPiece(time.degree + 1, 0.0).eval(width) / (time.degree + 1), 0.0
            )
        else:
            contrib = forcing_convolution_frozen(space.degree, time.degree, x, tau, a)
        total += term.coef * contrib
    return total / (2.0 * a)


def example_exact_frozen(
    alpha: float, extent: float = 1.0, horizon: float = 1.0, a: float | None = None
) -> Callable:
    """The exact solution of problems.make_example(alpha, extent, horizon, a)."""
    if a is None:
        a = 1.0 / math.sqrt(5.0)
    t_star = horizon / 2.0
    k, u1, f = _example_pieces(alpha, t_star)
    coefs = EXAMPLE_COEFFICIENTS[alpha]
    c1, c2 = coefs[0], coefs[1]
    half = extent / 2.0

    # d'Alembert velocity term from the antiderivative of u1 at x -+ a t
    if k == 0:
        u1_part = lambda left, right: (c1 / (2.0 * a)) * (_step(right) - _step(left))
    else:
        u1_part = lambda left, right: (c1 / (2.0 * a)) * (
            _signed_power_antideriv(k - 1, right) - _signed_power_antideriv(k - 1, left)
        )

    # left-moving correction emitted where the smooth trace departs from the
    # whole-line trace (the Heaviside-in-x forcing term)
    if alpha == 0.5:
        correction = None
    elif alpha == 1.5:
        correction = lambda s: c2 * np.maximum(s, 0.0)
    else:
        correction = lambda s: c2 * _int_power(np.maximum(s, 0.0), k) / (k * (k - 1))

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        left, right = x - a * t, x + a * t
        if k == 0:
            left, right = _snap(left, half + extent), _snap(right, half + extent)
        u0_part = 0.5 * (_signed_power(k, left) + _signed_power(k, right))
        total = u0_part + u1_part(left, right) + dalembert_forcing_part_frozen(f, x, t, a)
        if correction is not None:
            total = total - correction((t - t_star) - (half - x) / a)
        return total

    return exact
