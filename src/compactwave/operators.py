"""Discrete operators of the compact 4th-order wave-equation schemes.

Every operator is built from per-axis tridiagonal stencil rows
(`TridiagonalFactor`).  Their coefficients are computed in three places, for
uniform and graded axes alike: `tridiag_second_diff`, `tridiag_axis_average`
and `step_factor`.  `TridiagonalFactor.apply` applies rows along one axis;
the averages, the stiffness operators, the splitting residual and the
compact corrections of the data are products and sums of such applications.
On one axis each of them is a single row application.  One table,
`PAIR_FORMS`, says which sum and product forms make up each operator pair;
`compose_pair` is the one composer by it (the splitting residual included):
`pair_appliers` over the stencil rows, mapping a full node array (boundary
values included) to its interior values, and `solvers.pair_spectra` over
per-axis sine eigenvalues.

The discrete data are built as their type asks: piecewise data
(`PiecewiseData`, one axis) gets the exact hat averages, a callable the
compact sampling formulas, None zeros; anything else is a TypeError.
`build_rhs_table` makes the one forcing table f_N^0 .. f_N^{M-1}, one entry
per time step, whose level 0 is the forcing of the first-step equation;
`initial_velocity` makes u_1N.  The hat averages integrate piecewise
polynomials analytically (Gauss rules of sufficient order per smooth piece)
and give Dirac atoms located at mesh nodes the weight 1/h_*.  In time they
are exact up to degree 3, the catalog's highest; a temporal power of a
higher degree is a ValueError.

The backward-cone integral of piecewise forcing (`_dalembert_forcing_part`,
closed form) is the forcing part of the catalog's exact solutions and, in
signed sums over four nodes, the forcing data of the characteristic-mesh
scheme (`schemes._char_forcing`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .mesh import AxisMesh, TimeMesh

__all__ = [
    "TridiagonalFactor",
    "PPiece",
    "QPiece",
    "SpaceDirac",
    "TimeDirac",
    "SeparableTerm",
    "PiecewiseData",
    "PAIR_FORMS",
    "pair_forms",
    "compose_pair",
    "pair_appliers",
    "step_factor",
    "tridiag_second_diff",
    "tridiag_axis_average",
    "hat_average_x",
    "hat_average_t0",
    "initial_velocity",
    "RhsTable",
    "build_rhs_table",
]

# Gauss-Legendre nodes and weights on [-1, 1] by point count, written out:
# np.polynomial.legendre.leggauss(n) bit for bit, without loading
# numpy.polynomial on import
_GAUSS_LEGENDRE = {
    6: (np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                  0.2386191860831969, 0.6612093864662645, 0.9324695142031519]),
        np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                  0.46791393457269104, 0.3607615730481387, 0.17132449237917027])),
    8: (np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                  -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975362]),
        np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                  0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                  0.22238103445337443, 0.10122853629037706])),
}
_GAUSS_X, _GAUSS_W = _GAUSS_LEGENDRE[8]
NODE_SNAP_TOL = 1e-12
# relative distance below which a point counts as lying on a singular line
# or on the end of an integration window (a few units in the last place)
TIE_RTOL = 8.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# tridiagonal stencils


@dataclass(frozen=True, eq=False)
class TridiagonalFactor:
    """Per-interior-node stencil rows (lower, diag, upper) along one axis.

    lower[0] and upper[-1] are the couplings to the two boundary nodes; the
    strictly tridiagonal system uses lower[1:], diag, upper[:-1].
    """

    axis: int
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        n = self.diag.size
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("stencil arrays must have equal length (interior count)")

    @property
    def n_interior(self) -> int:
        return self.diag.size

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The rows applied along `axis` of a node array: that axis keeps only
        its interior nodes (a full 1-D array gives the interior values)."""
        w = values.swapaxes(self.axis, -1)
        out = self.lower * w[..., :-2] + self.diag * w[..., 1:-1] + self.upper * w[..., 2:]
        return out.swapaxes(-1, self.axis)

    def face_row(self, side: int) -> TridiagonalFactor:
        """The row next to a face (side 0 or -1) alone: it takes the 3-node
        slab at that face to the interior layer next to it, element for
        element as the full rows do."""
        rows = slice(0, 1) if side == 0 else slice(-1, None)
        return TridiagonalFactor(self.axis, self.lower[rows], self.diag[rows], self.upper[rows])


def tridiag_second_diff(mesh: AxisMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior stencil rows of the (possibly non-uniform) second difference."""
    h_lo = mesh.steps[:-1]
    h_hi = mesh.steps[1:]
    h_c = 0.5 * (h_lo + h_hi)
    lo = 1.0 / (h_c * h_lo)
    hi = 1.0 / (h_c * h_hi)
    return lo, -(lo + hi), hi


def tridiag_axis_average(mesh: AxisMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior stencil rows of the compact single-axis average.

    Non-uniform coefficients: alpha = 2 - h_+^2/(h h_*), beta = 2 - h^2/(h_+ h_*),
    gamma = 1 + (h_+ - h)^2/(5 h h_+); they satisfy alpha + 10 gamma + beta = 12.
    Negative alpha/beta on strongly graded meshes are permitted.
    """
    if mesh.uniform:
        n = mesh.n_intervals - 1
        return (np.full(n, 1.0 / 12.0), np.full(n, 10.0 / 12.0), np.full(n, 1.0 / 12.0))
    h_lo = mesh.steps[:-1]
    h_hi = mesh.steps[1:]
    h_c = 0.5 * (h_lo + h_hi)
    alpha = 2.0 - h_hi**2 / (h_lo * h_c)
    beta = 2.0 - h_lo**2 / (h_hi * h_c)
    gamma = 1.0 + (h_hi - h_lo) ** 2 / (5.0 * h_lo * h_hi)
    return alpha / 12.0, 10.0 * gamma / 12.0, beta / 12.0


def step_factor(
    mesh: AxisMesh, h_t: float, speed: float, axis: int = 0, sigma: float | None = None
) -> TridiagonalFactor:
    """Per-axis factor of the splitting step operator; the whole step
    operator of a 1D scheme.

    Uniform steps give I + (1/12)(h^2 - h_t^2 a^2) Lambda; the factor reduces
    to the identity on the characteristic mesh h_t = h/a and to the compact
    average at h_t = 0.  A weight sigma gives the factor I - sigma h_t^2 a^2
    Lambda of the weighted second-order scheme instead.
    """
    l_lo, l_di, l_hi = tridiag_second_diff(mesh)
    if sigma is not None:
        c = sigma * speed**2 * h_t**2
        return TridiagonalFactor(axis, -c * l_lo, 1.0 - c * l_di, -c * l_hi)
    s_lo, s_di, s_hi = tridiag_axis_average(mesh)
    c = h_t**2 * speed**2 / 12.0
    return TridiagonalFactor(axis, s_lo - c * l_lo, s_di - c * l_di, s_hi - c * l_hi)


# ---------------------------------------------------------------------------
# operator compositions


def _trim(values: np.ndarray, axes) -> np.ndarray:
    """The interior nodes of `values` along `axes`, every node along the others."""
    return values[tuple(slice(1, -1) if a in axes else slice(None) for a in range(values.ndim))]


def _average_factors(meshes: Sequence[AxisMesh]) -> list[TridiagonalFactor]:
    return [TridiagonalFactor(axis, *tridiag_axis_average(m)) for axis, m in enumerate(meshes)]


def _stiffness_factors(meshes: Sequence[AxisMesh], speeds: Sequence[float]) -> list[TridiagonalFactor]:
    """The rows of -a_i^2 Lambda_i on every axis."""
    return [
        TridiagonalFactor(axis, *(-speeds[axis] ** 2 * r for r in tridiag_second_diff(m)))
        for axis, m in enumerate(meshes)
    ]


def _product(values: np.ndarray, factors: Sequence) -> np.ndarray:
    """The factors applied in turn, each along its own axis."""
    for factor in factors:
        values = factor.apply(values)
    return values


def _additive(values: np.ndarray, factors: Sequence) -> np.ndarray:
    """I + sum_j (F_j - I) over factors on distinct axes: the additive
    compact average (F_0 itself for one factor), interior along their axes;
    added out of place, so that terms of broadcast shapes add."""
    if not factors:
        return values
    axes = {f.axis for f in factors}
    out = _trim(factors[0].apply(values), axes - {factors[0].axis})
    base = _trim(values, axes)
    for factor in factors[1:]:
        out = out + (_trim(factor.apply(values), axes - {factor.axis}) - base)
    return out


def _stiffness(values, stiffs, averages, cross) -> np.ndarray:
    """sum_i cross(stiff_i values) with the averages of the other axes, on the
    interior; cross is _additive (sum form) or _product (product form)."""
    out = None
    for i, stiff in enumerate(stiffs):
        term = cross(stiff.apply(values), averages[:i] + averages[i + 1:])
        out = term if out is None else out + term
    return out


@dataclass(frozen=True)
class PairForms:
    """How an operator pair composes its per-axis operators.

    The mass is the additive average I + sum_i (S_i - I) or the product
    average prod_i S_i; the stiffness is sum_i a_i^2 (-Lambda_i) times the
    additive or product average of the other axes (its cross average); the
    splitting pair adds to its mass the residual of the factored step
    operator.  c0 is the constant of the pair's time-step condition.
    """

    additive_mass: bool
    additive_cross: bool
    residual: bool
    c0: float


# the pairs named by `schemes.operator_pair`: additive mass, additive cross, residual, C0
PAIR_FORMS = {
    "sum_stiffsum": PairForms(True, True, False, 4.0 / 3.0),
    "prod_stiffsum": PairForms(False, True, False, 1.0),
    "prod_stiffprod": PairForms(False, False, False, 1.0),
    "prod_residual_stiffprod": PairForms(False, False, True, 1.0),
}


def pair_forms(pair: str) -> PairForms:
    """The table row of a pair."""
    if pair not in PAIR_FORMS:
        raise ValueError(f"unknown operator pair {pair!r}")
    return PAIR_FORMS[pair]


def compose_pair(
    pair: str | None, averages: Sequence, stiffs: Sequence, h_t: float | None = None
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The mass B and the stiffness A of an operator pair, composed by
    `PAIR_FORMS` from per-axis factors in axis order: the averages S_i and
    the stiffness rows -a_i^2 Lambda_i.  A factor has an `axis` and an
    `apply` that keeps only the interior nodes of that axis.  The splitting
    pair's mass adds the residual of its factored step operator,
    c^|K| prod_{i in K} (-a_i^2 Lambda_i) prod_{j not in K} S_j over the axis
    sets K with |K| >= 2, c = h_t^2/12; it needs h_t.  No pair (second-order)
    has the identity mass, and no average in its stiffness."""
    if pair is None:
        identity = lambda v, factors: _trim(v, {f.axis for f in factors})
        return (lambda v: identity(v, averages)), lambda v: _stiffness(v, stiffs, averages, identity)
    forms = pair_forms(pair)
    mass = _additive if forms.additive_mass else _product
    cross = _additive if forms.additive_cross else _product
    stiffness = lambda v: _stiffness(v, stiffs, averages, cross)
    if not forms.residual:
        return (lambda v: mass(v, averages)), stiffness
    if h_t is None:
        raise ValueError("splitting residual needs h_t")
    c = h_t**2 / 12.0
    n = len(averages)
    residual = [
        (c**k, [stiffs[i] if i in combo else averages[i] for i in range(n)])
        for k in range(2, n + 1)
        for combo in itertools.combinations(range(n), k)
    ]
    split_mass = lambda v: sum((_product(coef * v, f) for coef, f in residual), _product(v, averages))
    return split_mass, stiffness


def pair_appliers(
    pair: str | None,
    meshes: Sequence[AxisMesh],
    speeds: Sequence[float],
    h_t: float | None = None,
    face: tuple[int, int] | None = None,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The mass B and the stiffness A of a scheme's operator pair as maps from
    a full node array to its interior values: `compose_pair` over the
    stencil rows (the splitting pair needs h_t).

    face = (axis, side) keeps only the row next to that face (side 0 or -1)
    on its axis: the maps take the 3-node slab at the face and give the
    interior layer next to it, element for element as the full maps do."""
    averages, stiffs = _average_factors(meshes), _stiffness_factors(meshes, speeds)
    if face is not None:
        axis, side = face
        averages[axis], stiffs[axis] = averages[axis].face_row(side), stiffs[axis].face_row(side)
    return compose_pair(pair, averages, stiffs, h_t)


# ---------------------------------------------------------------------------
# piecewise data and hat averages


def _int_power(y: np.ndarray, m: int) -> np.ndarray:
    """y**m for an integer m >= 1 by repeated multiplication (no float pow)."""
    out = y
    for _ in range(m - 1):
        out = out * y
    return out


def _odd_power(y: np.ndarray, m: int) -> np.ndarray:
    """sign(y) |y|**m, the odd extension of y**m."""
    return np.copysign(_int_power(np.abs(y), m), y)


def _step(z: np.ndarray) -> np.ndarray:
    return 0.5 * (np.sign(z) + 1.0)


def _signed_power(k: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if k == 0:
        return _step(x)
    if k == 1:
        return 1.0 - 2.0 * np.abs(x)
    # sign(x) (2x)^k: odd for even k, even for odd k
    return _odd_power(2.0 * x, k) if k % 2 == 0 else _int_power(np.abs(2.0 * x), k)


def _signed_power_antideriv(k: int, x: np.ndarray) -> np.ndarray:
    """Antiderivative of the signed-power piece, vanishing at the breakpoint."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.maximum(x, 0.0)
    if k == 1:
        return x - x * np.abs(x)
    # |2x|^(k+1) / (2(k+1)), with the sign of x for odd k
    power = _odd_power(2.0 * x, k + 1) if k % 2 else _int_power(np.abs(2.0 * x), k + 1)
    return power / (2.0 * (k + 1))


@dataclass(frozen=True)
class PPiece:
    """Signed-power spatial profile with a single breakpoint at x = 0.

    degree 0 is the Heaviside-type jump (value 1/2 at the breakpoint),
    degree 1 the even kink 1 - 2|x|, and degree k >= 2 the odd/even pair
    sign(x) (2x)^k.
    """

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0; use SpaceDirac for the atom")

    def eval(self, x: np.ndarray) -> np.ndarray:
        return _signed_power(self.degree, x)

    def antideriv(self, x: np.ndarray) -> np.ndarray:
        return _signed_power_antideriv(self.degree, x)

    breakpoint = 0.0


@dataclass(frozen=True)
class SpaceDirac:
    """Unit Dirac atom at a fixed spatial location."""

    location: float = 0.0


@dataclass(frozen=True)
class QPiece:
    """One-sided temporal profile (t - t_*)^l for t > t_*, zero before."""

    degree: int
    t_star: float

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0; use TimeDirac for the atom")

    def eval(self, t: np.ndarray) -> np.ndarray:
        dt = np.asarray(t, dtype=float) - self.t_star
        if self.degree == 0:
            return _step(dt)
        return np.where(dt > 0, dt, 0.0) ** self.degree


@dataclass(frozen=True)
class TimeDirac:
    """Unit Dirac atom at time t_*."""

    t_star: float


SpaceProfile = Union[PPiece, SpaceDirac]
TimeProfile = Union[QPiece, TimeDirac]


@dataclass(frozen=True)
class SeparableTerm:
    """One summand coef * fx(x) * ft(t); ft None means time-independent."""

    coef: float
    space: SpaceProfile
    time: TimeProfile | None = None


@dataclass(frozen=True)
class PiecewiseData:
    """Sum of separable piecewise-polynomial / Dirac terms."""

    terms: tuple[SeparableTerm, ...]

    def __iter__(self):
        return iter(self.terms)


def _nearest_node(nodes: np.ndarray, x: float, scale: float, data: str, mesh: str) -> int:
    """The index of the node at x; a ValueError naming the data and the mesh
    when no node lies within roundoff (relative to `scale`) of x."""
    idx = int(np.argmin(np.abs(nodes - x)))
    if abs(nodes[idx] - x) > NODE_SNAP_TOL * max(scale, 1.0):
        raise ValueError(f"{data} is not located at a mesh node of the {mesh}")
    return idx


def hat_average_x(profile: SpaceProfile, mesh: AxisMesh) -> np.ndarray:
    """Exact hat-function average at every interior node (faces set to zero).

    Each half-cell is cut at the profile's breakpoint clipped to the cell (a
    breakpoint outside gives a zero-width piece) and every piece gets the
    8-point Gauss rule, for all interior nodes at once.  Dirac atoms must sit
    on a mesh node and contribute 1/h_* there.
    """
    nodes = mesh.nodes
    out = np.zeros(nodes.size)
    if isinstance(profile, SpaceDirac):
        idx = _nearest_node(
            nodes, profile.location, mesh.extent, f"the spatial atom at x = {profile.location}",
            f"axis with N = {mesh.n_intervals}",
        )
        if idx == 0 or idx == nodes.size - 1:
            raise ValueError("Dirac atom on the boundary is not supported")
        h_star = 0.5 * (nodes[idx + 1] - nodes[idx - 1])
        out[idx] = 1.0 / h_star
        return out
    xl, xc, xr = (v[:, None] for v in (nodes[:-2], nodes[1:-1], nodes[2:]))
    total = np.zeros(nodes.size - 2)
    for a, b, rise in ((xl, xc, True), (xc, xr, False)):
        cuts = (a, np.clip(profile.breakpoint, a, b), b)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            half = 0.5 * (hi - lo)
            x = 0.5 * (lo + hi) + half * _GAUSS_X
            weight = (x - xl) / (xc - xl) if rise else (xr - x) / (xr - xc)
            total += half[:, 0] * np.sum(_GAUSS_W * profile.eval(x) * weight, axis=1)
    out[1:-1] = total / (0.5 * (nodes[2:] - nodes[:-2]))
    return out


def _hat_weights_t(profile: TimeProfile, tmesh: TimeMesh) -> np.ndarray:
    """Hat averages of a temporal profile at every time step: the one-sided
    average hat_average_t0 at level 0, the two-sided ones at the interior
    levels (0 at the last node).

    One-sided power profiles with the breakpoint on the mesh: nodal samples
    for degree 0 and h_t^degree / ((degree+1)(degree+2)) at the hit level
    are exact, and away from it the three-point (1, 10, 1)/12 sample average
    is exact up to degree 3 only, the catalog's highest: a higher degree is
    a ValueError (past the hit level degree 4 would be 4.8% off one step on,
    degree 5 17%).
    """
    if isinstance(profile, QPiece) and profile.degree > 3:
        raise ValueError(
            f"the hat averages in time are exact up to degree 3, not degree {profile.degree}"
        )
    h_t = tmesh.h_t
    t_star = profile.t_star
    idx = _nearest_node(
        tmesh.nodes, t_star, tmesh.horizon, f"the forcing's switch-on time t_* = {t_star}",
        f"time mesh with M = {tmesh.n_steps}",
    )
    out = np.zeros(tmesh.nodes.size)
    t = tmesh.nodes[1:-1]
    if isinstance(profile, TimeDirac):
        out[idx] = 1.0 / h_t
    elif profile.degree == 0:
        out[1:-1] = profile.eval(t)
    else:
        out[1:-1] = (profile.eval(t - h_t) + 10.0 * profile.eval(t) + profile.eval(t + h_t)) / 12.0
        out[idx] = h_t**profile.degree / ((profile.degree + 1) * (profile.degree + 2))
    # the ends last: a hit level 0 takes the one-sided average, not the above
    out[0] = hat_average_t0(profile, h_t)
    out[-1] = 0.0
    return out


def hat_average_t0(profile: TimeProfile, h_t: float) -> float:
    """One-sided hat average (2/h_t) * int_0^{h_t} y(t) (1 - t/h_t) dt; an
    atom at t = 0 counts fully, as it does in the exact solutions.

    For y = (t - t_*)_+^l it is (2/h_t^2) [Y(h_t) - Y(0) - h_t Y'(0)] with
    Y = (t - t_*)_+^(l+2) / ((l+1)(l+2)), Y'' = y, for every t_*.
    """
    t_star = profile.t_star
    if isinstance(profile, TimeDirac):
        return (2.0 / h_t) * (1.0 - t_star / h_t) if 0.0 <= t_star < h_t else 0.0
    if t_star >= h_t:
        return 0.0
    k = profile.degree
    y = lambda t: max(t - t_star, 0.0)
    big_y = lambda t: y(t) ** (k + 2) / ((k + 1) * (k + 2))
    return 2.0 / h_t**2 * (big_y(h_t) - big_y(0.0) - h_t * y(0.0) ** (k + 1) / (k + 1))


# ---------------------------------------------------------------------------
# backward-cone integrals of piecewise forcing


def _one_time(t) -> bool:
    """Whether t is one time (a float or 0-d): the exact solutions take it as a
    Python float, so that its arithmetic is scalar, not 0-d NumPy operations."""
    return isinstance(t, float) or np.ndim(t) == 0


def _snap(z: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """z with roundoff-sized values (relative to `scale`) set to zero, so a
    point on a singular line takes the line's half value."""
    return np.where(np.abs(z) <= TIE_RTOL * scale, 0.0, z)


@functools.lru_cache(maxsize=None)
def _convolution_plan(j: int, degree: int):
    """The x-, tau- and a-free coefficients of _forcing_convolution.

    W_j = PPiece(j).antideriv is q + c y_+^m with q the polynomial left of 0.
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
    form, W_j = PPiece(j).antideriv; zero for tau <= 0.

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
    tau = max(float(tau), 0.0) if _one_time(tau) else np.maximum(tau, 0.0)
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
    """The forcing part of the whole-line d'Alembert solution at (x, t): the
    forcing integrated over the backward cone |y - x| < a (t - s) of (x, t),
    divided by 2a, in closed form.  Each term counts from its switch-on time
    t_*, before t = 0 too, so it needs a temporal factor.  A Dirac atom in
    space and time counts half on a side of the cone and a quarter at its
    apex (ties judged on the scales |x - location| + a|t| and |t|).
    """
    # the latest time asked for, widened past the snap of t - t_* to zero
    if _one_time(t):
        t = float(t)
        latest = t + 2.0 * TIE_RTOL * abs(t)
    else:
        latest = (t + 2.0 * TIE_RTOL * np.abs(t)).max()
    total = np.zeros(np.broadcast(x, t).shape)
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


# ---------------------------------------------------------------------------
# right-hand-side constructions


def _meshgrid(meshes: Sequence[AxisMesh]) -> list[np.ndarray]:
    return np.meshgrid(*(m.nodes for m in meshes), indexing="ij")


def initial_velocity(
    u1,
    meshes: Sequence[AxisMesh],
    h_t: float,
    speeds: Sequence[float],
) -> np.ndarray:
    """Discrete initial velocity u_1N on the interior nodes, chosen by the
    data type.

    Piecewise data: the exact hat average (one-dimensional).
    A callable: S u1 + sum_i (h_t^2 a_i^2/12) Lambda_i u1 from samples, with
    S the additive compact average (on uniform axes
    u1 + sum_i ((h_i^2 + h_t^2 a_i^2)/12) Lambda_i u1).  None: zero data.
    """
    meshes = list(meshes)
    if u1 is None:
        return np.zeros(tuple(m.nodes.size - 2 for m in meshes))
    if isinstance(u1, PiecewiseData):
        if len(meshes) != 1:
            raise ValueError("hat averaging of data is one-dimensional")
        out = np.zeros(meshes[0].nodes.size - 2)
        for term in u1:
            out += term.coef * hat_average_x(term.space, meshes[0])[1:-1]
        return out
    if not callable(u1):
        raise TypeError(
            f"unsupported initial-velocity data {type(u1)!r}: piecewise data, a callable or None"
        )
    samples = u1(*_meshgrid(meshes))
    axes = range(len(meshes))
    out = _additive(samples, _average_factors(meshes))
    for axis, mesh in enumerate(meshes):
        lam = TridiagonalFactor(axis, *tridiag_second_diff(mesh))
        c = h_t**2 * speeds[axis] ** 2 / 12.0
        out += c * _trim(lam.apply(samples), set(axes) - {axis})
    return out


class RhsTable:
    """Compact forcing f_N^m on the interior nodes, one entry per time step
    m = 0 .. n_steps - 1; level 0 is the forcing of the first-step equation."""

    def __init__(self, getter: Callable[[int], np.ndarray], n_steps: int):
        self._getter = getter
        self.n_steps = n_steps

    def __call__(self, level: int) -> np.ndarray:
        if not 0 <= level < self.n_steps:
            raise ValueError(f"level {level} outside 0..{self.n_steps - 1}")
        return self._getter(level)


def build_rhs_table(f, meshes: Sequence[AxisMesh], tmesh: TimeMesh) -> RhsTable:
    """The compact forcing f_N^0 .. f_N^{M-1} of the time mesh's M steps,
    built as the type of f asks; level 0 is the forcing of the first-step
    equation.

    Piecewise data (one axis) composes the exact spatial and temporal hat
    averages of its separable terms, the one-sided temporal average at
    level 0 (_hat_weights_t).  A callable f(x..., t) is sampled: at level
    m >= 1, S f + (h_t^2/12) Lambda_t f with S the additive compact average
    (on uniform axes f + sum_i (h_i^2/12) Lambda_i f); at level 0, the
    third-order (1/3) f^0 + (2/3) f(h_t/2) with the compact correction
    S f^0 - f^0 of f^0.  None is zero forcing; other data raise TypeError.
    """
    meshes = list(meshes)
    if f is None:
        shape = tuple(m.nodes.size - 2 for m in meshes)
        return RhsTable(lambda m: np.zeros(shape), tmesh.n_steps)
    if isinstance(f, PiecewiseData):
        if len(meshes) != 1:
            raise ValueError("averaged forcing is one-dimensional")
        if any(term.time is None for term in f):
            raise ValueError("forcing terms need a temporal factor")
        axis = meshes[0]
        parts = [
            (term.coef, hat_average_x(term.space, axis)[1:-1], _hat_weights_t(term.time, tmesh))
            for term in f
        ]

        def averaged(level: int) -> np.ndarray:
            out = np.zeros(axis.nodes.size - 2)
            for coef, qx, qt in parts:
                out += coef * qt[level] * qx
            return out

        return RhsTable(averaged, tmesh.n_steps)
    if not callable(f):
        raise TypeError(
            f"unsupported forcing data {type(f)!r}: piecewise data, a callable or None"
        )
    interior = tuple(slice(1, -1) for _ in meshes)
    grids = _meshgrid(meshes)
    h_t = tmesh.h_t
    averages = _average_factors(meshes)

    def sampled(level: int) -> np.ndarray:
        if level == 0:
            f0 = f(*grids, 0.0)
            half = f(*grids, 0.5 * h_t) - f0
            return _additive(f0, averages) + (2.0 / 3.0) * half[interior]
        t = tmesh.nodes[level]
        fm = f(*grids, t)
        lam_t = f(*grids, t + h_t) - 2.0 * fm + f(*grids, t - h_t)
        return _additive(fm, averages) + lam_t[interior] / 12.0

    return RhsTable(sampled, tmesh.n_steps)
