"""Benchmark problem catalog for the one-dimensional wave equation.

Six weak-data examples indexed by a smoothness parameter alpha in
{1/2, 3/2, ..., 11/2} combine signed-power initial data, one-sided
polynomial forcing in time, and Dirac atoms, together with smooth boundary
traces and a closed-form exact solution.  A smooth analytic problem drives
the graded-mesh studies.

The exact solution is reconstructed from the whole-line d'Alembert formula,
every part of it in closed form.  Its forcing part is the backward-cone
integral of operators._dalembert_forcing_part, whose differences are also
the forcing data of the characteristic-mesh scheme.
The chosen boundary traces are smooth, which makes them differ from the
whole-line trace at the right end once the forcing switches on; the exact
solution of the initial-boundary problem therefore carries one additional
left-moving wave emitted at (X/2, t_*).  Within the time horizons used here
that wave never reaches the opposite end, so no further reflections occur.
An evaluator takes one time (the error observer's call per level) as a
Python float and skips that wave where it is zero at every node asked for;
a (nodes x times) block gives the one-time calls' values bit for bit.  It
holds the two characteristic sides x - a t and x + a t as one (2, ...)
array (operators._sides), which passes once through the node snap, the
signed power and the velocity antiderivative.

For the forcing term f = c3 * P1(x) * delta(t - t_*) (alpha = 5/2) the time
derivative of the solution jumps across t = t_*; the d'Alembert construction
used here includes that jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mesh import AxisMesh, build_axis
from .operators import (
    PPiece,
    PiecewiseData,
    QPiece,
    SeparableTerm,
    SpaceDirac,
    TimeDirac,
    _dalembert_forcing_part,
    _int_power,
    _one_time,
    _signed_power,
    _signed_power_antideriv,
    _sides,
    _snap,
)

__all__ = [
    "ProblemSpec",
    "make_example",
    "make_smooth_nonuniform_problem",
    "make_sine_mode_problem",
    "catalog",
    "CATALOG_NAMES",
    "EXAMPLE_ALPHAS",
    "EXAMPLE_COEFFICIENTS",
]

EXAMPLE_ALPHAS = (0.5, 1.5, 2.5, 3.5, 4.5, 5.5)
# the catalog's problems by name, as reports print them
CATALOG_NAMES = ("smooth1d", *(f"E_{alpha}" for alpha in EXAMPLE_ALPHAS))

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

    @property
    def ndim(self) -> int:
        return len(self.extents)

    def axis(self, n_intervals: int, phi: str | None = None) -> AxisMesh:
        """N intervals on the problem's interval (its first axis): uniform,
        or graded by the node distribution named `phi`."""
        return build_axis(n_intervals, self.extents[0], self.origin[0], phi)

    def trace(self, faces: Sequence[Sequence]) -> Callable[[float], list] | None:
        """The Dirichlet trace of every run on the given faces, each given
        by its node coordinates: a map from t to one value (or array) per
        face, or None when the trace is identically zero.  The rule: the
        traces g on one axis (faces: the ends of the problem's interval, left
        then right, else a ValueError), else the exact solution, else none."""
        if self.g is not None and self.ndim == 1:
            ends = (self.origin[0], self.origin[0] + self.extents[0])
            scale = abs(ends[0]) + self.extents[0]  # the nodes' rounding scale
            if not np.allclose(faces[0] + faces[1], ends, rtol=0.0, atol=1e-13 * scale):
                raise ValueError(f"the traces g of {self.name} hold on [{ends[0]:g}, {ends[1]:g}],"
                                 f" not on the axis [{faces[0][0]:g}, {faces[1][0]:g}]")
            return lambda t: [g(t) for g in self.g]
        if self.exact is not None:
            return lambda t: [self.exact(*coords, t) for coords in faces]
        return None


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

    # d'Alembert velocity term from the antiderivative of u1 at y = x -+ a t,
    # which takes the position term's power at y: for k = 0 it is that power
    # (_step), and for k >= 3 that power over 2k, since
    # _signed_power_antideriv(k - 1, y) is _signed_power(k, y) / (2k) by the
    # same multiplications.  y holds both sides, one (2, ...) array
    c1_2a = c1 / (2.0 * a)
    if k == 0:
        u1_anti = lambda y, power: power
    elif k >= 3:
        u1_anti = lambda y, power: power / (2.0 * k)
    else:
        u1_anti = lambda y, power: _signed_power_antideriv(k - 1, y)
    # the schemes sample a continuous velocity (alpha >= 3.5) and average
    # the rougher ones from u1_data
    u1_fn = (lambda x: c1 * _signed_power(k - 1, x)) if alpha >= 3.5 else None

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
        one_time = _one_time(t)
        t = float(t) if one_time else np.asarray(t, dtype=float)
        sides = _sides(x, a * t)  # x - a t and x + a t
        if k == 0:
            # the jumps travel along x = +-a t: nodes on them take the
            # average, judged on the axis scale |origin| + X that the nodes'
            # rounding follows (as the characteristic runner's atom weights)
            sides = _snap(sides, half + extent)
        power = _signed_power(k, sides)
        anti = u1_anti(sides, power)
        u1_part = c1_2a * (anti[1] - anti[0])
        total = 0.5 * (power[0] + power[1]) + u1_part + _dalembert_forcing_part(f, x, t, a)
        # where its argument is <= 0 the correction is +-0, which leaves the
        # sum (never -0: its forcing part is not) as it is; at one time it is
        # skipped when even the largest x, whose argument is largest, has none
        if correction is not None and not (
            one_time and x.size and (t - t_star) - (half - x.max()) / a <= 0.0
        ):
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
        # plain arithmetic: a float time gives a float, an array of times an array
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
    )


def catalog(name: str) -> ProblemSpec:
    """A problem by its name as reports print it, one of CATALOG_NAMES
    ('smooth1d', 'E_0.5' ... 'E_5.5'); any other name is a KeyError."""
    if name not in CATALOG_NAMES:
        raise KeyError(f"unknown problem {name!r}")
    return make_smooth_nonuniform_problem() if name == "smooth1d" else make_example(float(name[2:]))
