"""Benchmark problem catalog for the one-dimensional wave equation.

Six weak-data examples indexed by a smoothness parameter alpha in
{1/2, 3/2, ..., 11/2} combine signed-power initial data, one-sided
polynomial forcing in time, and Dirac atoms, together with smooth boundary
traces and a closed-form exact solution.  A smooth analytic problem drives
the graded-mesh studies.

The exact solution is reconstructed from the whole-line d'Alembert formula,
every part of it in closed form (the forcing convolution included).
The chosen boundary traces are smooth, which makes them differ from the
whole-line trace at the right end once the forcing switches on; the exact
solution of the initial-boundary problem therefore carries one additional
left-moving wave emitted at (X/2, t_*).  Within the time horizons used here
that wave never reaches the opposite end, so no further reflections occur.

For the forcing term f = c3 * P1(x) * delta(t - t_*) (alpha = 5/2) the time
derivative of the solution jumps across t = t_*; the d'Alembert construction
used here includes that jump.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .operators import (
    PPiece,
    PiecewiseData,
    QPiece,
    SeparableTerm,
    TIE_RTOL,
    SpaceDirac,
    TimeDirac,
    _int_power,
    _signed_power,
    _signed_power_antideriv,
)

__all__ = [
    "ProblemSpec",
    "eval_P",
    "eval_Q",
    "P_antideriv",
    "make_example",
    "make_smooth_nonuniform_problem",
    "make_sine_mode_problem",
    "catalog",
    "EXAMPLE_ALPHAS",
    "EXAMPLE_COEFFICIENTS",
]

EXAMPLE_ALPHAS = (0.5, 1.5, 2.5, 3.5, 4.5, 5.5)

# multipliers (c1, c2[, c3]) chosen to balance the error contributions
EXAMPLE_COEFFICIENTS: dict[float, tuple[float, ...]] = {
    0.5: (0.4, 0.4),
    1.5: (1.9, 1.1),
    2.5: (0.58, 2.1, 2.3),
    3.5: (2.8, 6.8, 7.3),
    4.5: (3.7, 13.0, 31.0),
    5.5: (4.6, 24.0, 51.0),
}

@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Initial-boundary value problem data with an exact-solution evaluator."""

    name: str
    speeds: tuple[float, ...]
    origin: tuple[float, ...]
    extents: tuple[float, ...]
    horizon: float
    u0: Callable
    u1_data: PiecewiseData | None = None
    u1_fn: Callable | None = None
    f_data: PiecewiseData | None = None
    f_fn: Callable | None = None
    g: tuple[Callable, Callable] | None = None
    exact: Callable | None = None
    alpha: float | None = None
    t_star: float | None = None
    u1n_default: str = "qx"

    @property
    def ndim(self) -> int:
        return len(self.extents)


def eval_P(k: int, x):
    """Signed-power spatial pieces; k = -1 returns the Dirac atom at 0."""
    if k < -1:
        raise ValueError("index must be >= -1")
    if k == -1:
        return SpaceDirac(0.0)
    return _signed_power(k, x)


def eval_Q(l: int, t, t_star: float):
    """One-sided temporal pieces; l = -1 returns the Dirac atom at t_*."""
    if l < -1:
        raise ValueError("index must be >= -1")
    if l == -1:
        return TimeDirac(t_star)
    return QPiece(l, t_star).eval(t)


def P_antideriv(k: int, x):
    """Antiderivative of the signed-power piece, vanishing at x = 0."""
    return _signed_power_antideriv(k, x)


def _step(z: np.ndarray) -> np.ndarray:
    return 0.5 * (np.sign(z) + 1.0)


def _snap(z: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """z with roundoff-sized values (relative to `scale`) set to zero, so a
    point on a singular line takes the line's half value."""
    return np.where(np.abs(z) <= TIE_RTOL * scale, 0.0, z)


@functools.lru_cache(maxsize=None)
def _convolution_plan(j: int, degree: int):
    """The x-, tau- and a-free coefficients of _forcing_convolution.

    W_j = P_antideriv(j, .) is q + c y_+^m with q the polynomial left of 0.
    For the polynomials left and right of 0, one row per power e of x: pairs
    (k, f) such that the x^e coefficient of the odd Taylor sum is
    sum_k f a^k tau^(d+k+1).  `cone` is c d! m!/(d+m+1)!.
    """
    d = degree
    if j == 0:
        left, c, m = (0.0,), 1.0, 1
    elif j == 1:
        left, c, m = (0.0, 1.0, 1.0), -2.0, 2
    else:
        # sign(y) (2y)^(j+1) / (2(j+1)) = kappa (2 y_+^(j+1) - y^(j+1))
        kappa = 2.0**j / (j + 1)
        left, c, m = (0.0,) * (j + 1) + (-kappa,), 2.0 * kappa, j + 1
    right = list(left) + [0.0] * (m + 1 - len(left))
    right[m] += c
    beta = {
        k: 2.0 * math.factorial(d) * math.factorial(k) / math.factorial(d + k + 1)
        for k in range(1, m + 1, 2)
    }

    def odd_taylor(p):
        return tuple(
            tuple((k, b * math.comb(e + k, k) * p[e + k]) for k, b in beta.items() if e + k < len(p))
            for e in range(len(p) - 1)
        )

    cone = c * math.factorial(d) * math.factorial(m) / math.factorial(d + m + 1)
    return odd_taylor(left), odd_taylor(right), cone, m


def _horner(coefs, x):
    """sum_e coefs[e] x^e (0 for no coefficients)."""
    out = coefs[-1] if coefs else 0.0
    for c in coefs[-2::-1]:
        out = out * x + c
    return out


def _forcing_convolution(j: int, degree: int, x, tau, a: float) -> np.ndarray:
    """int_0^tau s^degree [W_j(x + a(tau-s)) - W_j(x - a(tau-s))] ds in closed
    form, W_j = P_antideriv(j, .); zero for tau <= 0.

    With u = tau - s and W_j = q + c y_+^m, let p be the polynomial of W_j on
    the side of x.  Taylor expansion in a u and the Beta integrals give
        int_0^tau (tau-u)^d [p(x+au) - p(x-au)] du
            = 2 sum_{k odd} p^(k)(x)/k! a^k tau^(d+k+1) d! k!/(d+k+1)!,
    a polynomial in x.  Where the cone |x| < a tau covers the breakpoint, the
    truncated power adds c s_x B a^-(d+1) (a tau - |x|)_+^(d+m+1), with
    B = d! m!/(d+m+1)! and s_x = (-1)^m for x >= 0, 1 for x < 0.  No term is
    scaled up by a power of 1/a, so no digits cancel for slow waves.
    """
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


def _dalembert_forcing_part(
    terms: PiecewiseData, x: np.ndarray, t: np.ndarray, a: float
) -> np.ndarray:
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
            contrib = _forcing_convolution(space.degree, time.degree, x, tau, a)
        total += term.coef * contrib
    return total / (2.0 * a)


def _example_pieces(alpha: float, t_star: float) -> tuple[int, PiecewiseData, PiecewiseData]:
    k = int(alpha)
    coefs = EXAMPLE_COEFFICIENTS[alpha]
    c1 = coefs[0]
    u1_space = SpaceDirac(0.0) if k == 0 else PPiece(k - 1)
    u1 = PiecewiseData((SeparableTerm(c1, u1_space),))
    if alpha == 0.5:
        f = PiecewiseData((SeparableTerm(coefs[1], SpaceDirac(0.0), TimeDirac(t_star)),))
    elif alpha == 1.5:
        f = PiecewiseData((SeparableTerm(coefs[1], PPiece(0), TimeDirac(t_star)),))
    else:
        c2, c3 = coefs[1], coefs[2]
        second_time = TimeDirac(t_star) if k == 2 else QPiece(k - 3, t_star)
        f = PiecewiseData(
            (
                SeparableTerm(c2, PPiece(0), QPiece(k - 2, t_star)),
                SeparableTerm(c3, PPiece(1), second_time),
            )
        )
    return k, u1, f


def _smooth_traces(alpha: float, a: float) -> tuple[Callable, Callable]:
    """Smooth boundary traces: (c1 t)^[alpha] for alpha < 2, otherwise the
    binomial combinations of (1 -/+ 2 a t)^k.  Plain arithmetic, so a float
    time gives a float and an array of times an array."""
    k = int(alpha)
    c1 = EXAMPLE_COEFFICIENTS[alpha][0]
    if alpha == 0.5:
        return (lambda t: 0.0 * t), (lambda t: 0.0 * t + 1.0)
    if alpha == 1.5:
        return (lambda t: 0.0 * t), (lambda t: c1 * t)

    def even_odd(t):
        lo, hi = (1.0 - 2.0 * a * t) ** k, (1.0 + 2.0 * a * t) ** k
        odd = 0.0 * t if k == 2 else (hi - lo) / (4.0 * a * k)
        return 0.5 * (lo + hi), c1 * odd

    sign = (-1.0) ** k

    def g0(t):
        even, odd = even_odd(t)
        return sign * (-even + odd)

    def g1(t):
        even, odd = even_odd(t)
        return even + odd

    return g0, g1


def make_example(
    alpha: float, extent: float = 1.0, horizon: float = 1.0, a: float | None = None
) -> ProblemSpec:
    """Weak-data example with smoothness parameter alpha.

    Initial position P_[alpha], initial velocity c1 * P_[alpha]-1 (a Dirac
    atom for alpha = 1/2), and forcing built from Heaviside/kink spatial
    profiles with one-sided polynomial or Dirac temporal factors.  The wave
    speed defaults to 1/sqrt(5) and the forcing switches on at t_* = T/2, so
    the mesh is not aligned with the characteristics.
    """
    if alpha not in EXAMPLE_COEFFICIENTS:
        raise ValueError(f"unsupported smoothness parameter {alpha}")
    if a is None:
        a = 1.0 / math.sqrt(5.0)
    t_star = horizon / 2.0
    k, u1, f = _example_pieces(alpha, t_star)
    coefs = EXAMPLE_COEFFICIENTS[alpha]
    c1, c2 = coefs[0], coefs[1]
    half = extent / 2.0

    u0 = lambda x: _signed_power(k, x)

    # d'Alembert velocity term from the antiderivative of u1 at x -+ a t
    if k == 0:
        u1_part = lambda left, right: (c1 / (2.0 * a)) * (_step(right) - _step(left))
        u1_fn = None
    else:
        u1_part = lambda left, right: (c1 / (2.0 * a)) * (
            _signed_power_antideriv(k - 1, right) - _signed_power_antideriv(k - 1, left)
        )
        u1_fn = lambda x: c1 * _signed_power(k - 1, x)

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
            # the jumps travel along x = +-a t: nodes on them take the average
            scale = np.abs(x) + a * np.abs(t)
            left, right = _snap(left, scale), _snap(right, scale)
        u0_part = 0.5 * (_signed_power(k, left) + _signed_power(k, right))
        total = u0_part + u1_part(left, right) + _dalembert_forcing_part(f, x, t, a)
        if correction is not None:
            total = total - correction((t - t_star) - (half - x) / a)
        return total

    g0, g1 = _smooth_traces(alpha, a)
    return ProblemSpec(
        name=f"E_{alpha}",
        speeds=(a,),
        origin=(-half,),
        extents=(extent,),
        horizon=horizon,
        u0=u0,
        u1_data=u1,
        u1_fn=u1_fn,
        f_data=f,
        g=(g0, g1),
        exact=exact,
        alpha=alpha,
        t_star=t_star,
        u1n_default="qx" if alpha <= 2.5 else "compact",
    )


def make_smooth_nonuniform_problem(a: float | None = None) -> ProblemSpec:
    """Analytic problem for graded-mesh studies: sine initial data and an
    exponential forcing with closed-form boundary traces (requires a != 1)."""
    if a is None:
        a = 1.0 / math.sqrt(5.0)
    if abs(a - 1.0) < 1e-12:
        raise ValueError("wave speed 1 makes the boundary-trace formula singular")

    u0 = lambda x: np.sin(2.0 * np.pi * (x + 0.5))
    u1 = lambda x: 4.0 * np.sin(3.0 * np.pi * (x + 0.5))
    f = lambda x, t: np.exp(x + 0.5 - t)

    def forcing_bracket(t):
        t = np.asarray(t, dtype=float)
        return (
            np.exp(a * t) / (a + 1.0)
            + np.exp(-a * t) / (a - 1.0)
            - np.exp(-t) * 2.0 * a / (a * a - 1.0)
        )

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        part0 = 0.5 * (u0(x - a * t) + u0(x + a * t))
        part1 = -(2.0 / (3.0 * np.pi * a)) * (
            np.cos(3.0 * np.pi * (x + a * t + 0.5)) - np.cos(3.0 * np.pi * (x - a * t + 0.5))
        )
        part2 = np.exp(x + 0.5) / (2.0 * a) * forcing_bracket(t)
        return part0 + part1 + part2

    g0 = lambda t: forcing_bracket(t) / (2.0 * a)
    g1 = lambda t: math.e * forcing_bracket(t) / (2.0 * a)
    return ProblemSpec(
        name="smooth1d",
        speeds=(a,),
        origin=(-0.5,),
        extents=(1.0,),
        horizon=1.0,
        u0=u0,
        u1_fn=u1,
        f_fn=f,
        g=(g0, g1),
        exact=exact,
        u1n_default="compact",
    )


def make_sine_mode_problem(
    speeds: Sequence[float],
    extents: Sequence[float],
    mode: Sequence[int],
    amplitude: float = 1.0,
) -> ProblemSpec:
    """Separable sine eigenmode with zero forcing and boundary (test support).

    u = amplitude * prod_k sin(pi p_k x_k / X_k) * cos(omega t) with
    omega^2 = sum_k (a_k pi p_k / X_k)^2.
    """
    speeds = tuple(float(s) for s in speeds)
    extents = tuple(float(x) for x in extents)
    mode = tuple(int(p) for p in mode)
    freqs = tuple(np.pi * p / ext for p, ext in zip(mode, extents))
    omega = math.sqrt(sum((a * w) ** 2 for a, w in zip(speeds, freqs)))

    def shape(*xs):
        out = None
        for x, w in zip(xs, freqs):
            s = np.sin(w * np.asarray(x, dtype=float))
            out = s if out is None else out * s
        return amplitude * out

    u0 = shape
    exact = lambda *args: shape(*args[:-1]) * np.cos(omega * args[-1])
    return ProblemSpec(
        name=f"sine{''.join(map(str, mode))}",
        speeds=speeds,
        origin=tuple(0.0 for _ in extents),
        extents=extents,
        horizon=1.0,
        u0=u0,
        u1_fn=lambda *xs: 0.0 * shape(*xs),
        exact=exact,
        u1n_default="compact",
    )


def catalog(name: str) -> ProblemSpec:
    """Look up a problem by name: 'E_0.5' ... 'E_5.5' or 'smooth1d'."""
    if name == "smooth1d":
        return make_smooth_nonuniform_problem()
    if name.startswith("E_"):
        try:
            alpha = float(name[2:])
        except ValueError:
            raise KeyError(f"unknown problem {name!r}") from None
        if alpha in EXAMPLE_COEFFICIENTS:
            return make_example(alpha)
    raise KeyError(f"unknown problem {name!r}")
