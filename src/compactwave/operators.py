"""Discrete operators of the compact 4th-order wave-equation schemes.

Every operator is built from per-axis tridiagonal stencil rows
(`TridiagonalFactor`).  Their coefficients are computed in three places, for
uniform and graded axes alike: `tridiag_second_diff`, `tridiag_axis_average`
and `step_factor`.  `TridiagonalFactor.apply` applies rows along one axis;
the averages, the stiffness operators, the splitting residual and the
compact corrections of the data are products and sums of such applications.
On one axis each of them is a single row application.  `pair_appliers`
chooses the sum or product forms of a scheme's operator pair.

The GridFunction operators act on full node arrays (boundary values
included) and return full-shape arrays whose entries are meaningful on the
interior node set: the averages keep their input on the boundary faces, and
the stiffness operators return zero on every face (their codomain is the
zero-boundary space).

Averaging conventions for non-smooth data follow the exact hat-function
averages: piecewise polynomials are integrated analytically (Gauss rules of
sufficient order per smooth piece) and Dirac atoms located at mesh nodes get
the weight 1/h_*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .mesh import AxisMesh, MeshError, TimeMesh

__all__ = [
    "GridFunction",
    "TridiagonalFactor",
    "PPiece",
    "QPiece",
    "SpaceDirac",
    "TimeDirac",
    "SeparableTerm",
    "PiecewiseData",
    "second_diff",
    "axis_average",
    "sum_average",
    "product_average",
    "stiffness_sum",
    "stiffness_product",
    "splitting_residual",
    "step_factor",
    "tridiag_second_diff",
    "tridiag_axis_average",
    "inner_h",
    "hat_average_x",
    "hat_average_t",
    "hat_average_t0",
    "initial_velocity",
    "initial_rhs",
    "RhsTable",
    "build_rhs_table",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
NODE_SNAP_TOL = 1e-12
# relative distance below which a point counts as lying on a singular line
# or on the end of an integration window (a few units in the last place)
TIE_RTOL = 8.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values at every node of a tensor-product spatial mesh."""

    meshes: tuple[AxisMesh, ...]
    values: np.ndarray

    def __post_init__(self):
        meshes = tuple(self.meshes)
        values = np.asarray(self.values, dtype=float)
        expected = tuple(m.nodes.size for m in meshes)
        if values.shape != expected:
            raise ValueError(f"value shape {values.shape} does not match mesh shape {expected}")
        object.__setattr__(self, "meshes", meshes)
        object.__setattr__(self, "values", values)

    @property
    def ndim(self) -> int:
        return len(self.meshes)

    @property
    def interior(self) -> np.ndarray:
        return self.values[tuple(slice(1, -1) for _ in self.meshes)]


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

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        m += np.diag(self.lower[1:], k=-1)
        m += np.diag(self.upper[:-1], k=1)
        return m


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


def _interior_slices(n: int) -> tuple[slice, ...]:
    return tuple(slice(1, -1) for _ in range(n))


def _trim(values: np.ndarray, axes) -> np.ndarray:
    """The interior nodes of `values` along `axes`, every node along the others."""
    return values[tuple(slice(1, -1) if a in axes else slice(None) for a in range(values.ndim))]


def _embed(part: np.ndarray, base: np.ndarray) -> np.ndarray:
    """A copy of the full array `base` with `part` written over its interior
    along every axis on which `part` is two nodes shorter."""
    out = base.copy()
    out[tuple(slice(1, -1) if p < b else slice(None) for p, b in zip(part.shape, base.shape))] = part
    return out


def _average_factors(meshes: Sequence[AxisMesh]) -> list[TridiagonalFactor]:
    return [TridiagonalFactor(axis, *tridiag_axis_average(m)) for axis, m in enumerate(meshes)]


def _stiffness_factors(meshes: Sequence[AxisMesh], speeds: Sequence[float]) -> list[TridiagonalFactor]:
    """The rows of -a_i^2 Lambda_i on every axis."""
    return [
        TridiagonalFactor(axis, *(-speeds[axis] ** 2 * r for r in tridiag_second_diff(m)))
        for axis, m in enumerate(meshes)
    ]


def _product(values: np.ndarray, factors: Sequence[TridiagonalFactor]) -> np.ndarray:
    """The factors applied in turn, each along its own axis."""
    for factor in factors:
        values = factor.apply(values)
    return values


def _additive(values: np.ndarray, factors: Sequence[TridiagonalFactor]) -> np.ndarray:
    """I + sum_j (F_j - I) over factors on distinct axes: the additive
    compact average (F_0 itself for one factor), interior along their axes."""
    if not factors:
        return values
    axes = {f.axis for f in factors}
    out = _trim(factors[0].apply(values), axes - {factors[0].axis})
    base = _trim(values, axes)
    for factor in factors[1:]:
        out += _trim(factor.apply(values), axes - {factor.axis}) - base
    return out


def _stiffness(values, stiffs, averages, cross) -> np.ndarray:
    """sum_i cross(stiff_i values) with the averages of the other axes, on the
    interior; cross is _additive (sum form) or _product (product form)."""
    out = None
    for i, stiff in enumerate(stiffs):
        term = cross(stiff.apply(values), averages[:i] + averages[i + 1:])
        out = term if out is None else out + term
    return out


def pair_appliers(
    pair: str | None, meshes: Sequence[AxisMesh], speeds: Sequence[float]
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The mass B and the stiffness A of a scheme's operator pair (as named by
    `schemes.operator_pair`; None takes the product forms) as maps from a full
    node array to its interior values.

    The splitting pair's mass is its product average: the h_t-dependent
    residual enters only through the product of the step factors.
    """
    averages = _average_factors(meshes)
    stiffs = _stiffness_factors(meshes, speeds)
    mass = _additive if pair == "sum_stiffsum" else _product
    cross = _additive if pair in ("sum_stiffsum", "prod_stiffsum") else _product
    return (lambda v: mass(v, averages)), (lambda v: _stiffness(v, stiffs, averages, cross))


def _check_axis(w: GridFunction, axis: int) -> None:
    if not 0 <= axis < w.ndim:
        raise ValueError(f"axis {axis} out of range for dimension {w.ndim}")


def second_diff(w: GridFunction, axis: int) -> GridFunction:
    """Three-point second difference along one axis (zero on its own faces)."""
    _check_axis(w, axis)
    lam = TridiagonalFactor(axis, *tridiag_second_diff(w.meshes[axis]))
    return GridFunction(w.meshes, _embed(lam.apply(w.values), np.zeros_like(w.values)))


def axis_average(w: GridFunction, axis: int) -> GridFunction:
    """Compact single-axis average with weights (alpha, 10*gamma, beta)/12.

    Uniform steps give the (1, 10, 1)/12 stencil exactly; identity on the
    axis' own boundary faces.
    """
    _check_axis(w, axis)
    avg = TridiagonalFactor(axis, *tridiag_axis_average(w.meshes[axis]))
    return GridFunction(w.meshes, _embed(avg.apply(w.values), w.values))


def sum_average(w: GridFunction) -> GridFunction:
    """Additive compact average I + sum_i (h_i^2/12) Lambda_i (uniform axes)."""
    if not all(mesh.uniform for mesh in w.meshes):
        raise MeshError("additive compact average requires uniform axes")
    return GridFunction(w.meshes, _embed(_additive(w.values, _average_factors(w.meshes)), w.values))


def product_average(w: GridFunction) -> GridFunction:
    """Tensor-product compact average (factors commute on tensor grids)."""
    return GridFunction(w.meshes, _embed(_product(w.values, _average_factors(w.meshes)), w.values))


def _stiffness_grid(w: GridFunction, speeds: Sequence[float], cross) -> GridFunction:
    if w.ndim > 3:
        raise ValueError("supported for dimensions 1..3 only")
    stiff = _stiffness(w.values, _stiffness_factors(w.meshes, speeds), _average_factors(w.meshes), cross)
    return GridFunction(w.meshes, _embed(stiff, np.zeros_like(w.values)))


def stiffness_sum(w: GridFunction, speeds: Sequence[float]) -> GridFunction:
    """-sum_i a_i^2 (cross additive average) Lambda_i w, zero on all faces."""
    return _stiffness_grid(w, speeds, _additive)


def stiffness_product(w: GridFunction, speeds: Sequence[float]) -> GridFunction:
    """-sum_i a_i^2 (cross product average) Lambda_i w, zero on all faces."""
    return _stiffness_grid(w, speeds, _product)


def splitting_residual(w: GridFunction, speeds: Sequence[float], h_t: float) -> GridFunction:
    """Difference between the factorized step operator and its unsplit form:
    the terms of order h_t^4 and up of prod_i (S_i - (h_t^2/12) a_i^2 Lambda_i),
    zero on all faces (and everywhere in one dimension)."""
    n = w.ndim
    if n > 3:
        raise ValueError("supported for dimensions 1..3 only")
    averages = _average_factors(w.meshes)
    stiffs = _stiffness_factors(w.meshes, speeds)
    c = h_t**2 / 12.0
    out = np.zeros(tuple(m.nodes.size - 2 for m in w.meshes))
    for k in range(2, n + 1):
        for combo in itertools.combinations(range(n), k):
            factors = [stiffs[i] if i in combo else averages[i] for i in range(n)]
            out += c**k * _product(w.values, factors)
    return GridFunction(w.meshes, _embed(out, np.zeros_like(w.values)))


def inner_h(u: GridFunction, w: GridFunction) -> float:
    """Mesh inner product h_1...h_n * sum over interior nodes (uniform axes)."""
    weight = 1.0
    for mesh in u.meshes:
        weight *= mesh.h
    return float(weight * np.sum(u.interior * w.interior))


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


def _signed_power(k: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if k == 0:
        return 0.5 * (np.sign(x) + 1.0)
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
            return 0.5 * (np.sign(dt) + 1.0)
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

    @property
    def has_space_atom(self) -> bool:
        return any(isinstance(t.space, SpaceDirac) for t in self.terms)


def _nearest_node(nodes: np.ndarray, x: float, scale: float) -> int:
    idx = int(np.argmin(np.abs(nodes - x)))
    if abs(nodes[idx] - x) > NODE_SNAP_TOL * max(scale, 1.0):
        raise ValueError(f"atom at {x} is not located at a mesh node")
    return idx


def hat_average_x(
    profile: SpaceProfile | Callable[[np.ndarray], np.ndarray], mesh: AxisMesh
) -> np.ndarray:
    """Exact hat-function average at every interior node (faces set to zero).

    Each half-cell is cut at the profile's breakpoint clipped to the cell (a
    breakpoint outside gives a zero-width piece) and every piece gets the
    8-point Gauss rule, for all interior nodes at once.  Dirac atoms must sit
    on a mesh node and contribute 1/h_* there.
    """
    nodes = mesh.nodes
    out = np.zeros(nodes.size)
    if isinstance(profile, SpaceDirac):
        idx = _nearest_node(nodes, profile.location, mesh.extent)
        if idx == 0 or idx == nodes.size - 1:
            raise ValueError("Dirac atom on the boundary is not supported")
        h_star = 0.5 * (nodes[idx + 1] - nodes[idx - 1])
        out[idx] = 1.0 / h_star
        return out
    if isinstance(profile, PPiece):
        fn, cut = profile.eval, profile.breakpoint
    else:
        fn, cut = profile, None
    xl, xc, xr = (v[:, None] for v in (nodes[:-2], nodes[1:-1], nodes[2:]))
    total = np.zeros(nodes.size - 2)
    for a, b, rise in ((xl, xc, True), (xc, xr, False)):
        cuts = (a, b) if cut is None else (a, np.clip(cut, a, b), b)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            half = 0.5 * (hi - lo)
            x = 0.5 * (lo + hi) + half * _GAUSS_X
            weight = (x - xl) / (xc - xl) if rise else (xr - x) / (xr - xc)
            total += half[:, 0] * np.sum(_GAUSS_W * fn(x) * weight, axis=1)
    out[1:-1] = total / (0.5 * (nodes[2:] - nodes[:-2]))
    return out


def _hat_weights_t(profile: TimeProfile, tmesh: TimeMesh) -> np.ndarray:
    """hat_average_t of one profile at every time level (0 at both ends)."""
    h_t = tmesh.h_t
    idx = _nearest_node(tmesh.nodes, profile.t_star, tmesh.horizon)
    out = np.zeros(tmesh.nodes.size)
    t = tmesh.nodes[1:-1]
    if isinstance(profile, TimeDirac):
        out[idx] = 1.0 / h_t
    elif profile.degree == 0:
        out[1:-1] = profile.eval(t)
    else:
        out[1:-1] = (profile.eval(t - h_t) + 10.0 * profile.eval(t) + profile.eval(t + h_t)) / 12.0
        out[idx] = h_t**profile.degree / ((profile.degree + 1) * (profile.degree + 2))
    out[[0, -1]] = 0.0
    return out


def hat_average_t(profile: TimeProfile, tmesh: TimeMesh, level: int) -> float:
    """Hat average of a temporal profile at an interior time level.

    One-sided power profiles with the breakpoint on the mesh use the exact
    values: nodal samples for degree 0, the three-point (1, 10, 1)/12 sample
    average away from the hit level for degree >= 1, and
    h_t^degree / ((degree+1)(degree+2)) at the hit level.
    """
    if not 1 <= level <= tmesh.n_steps - 1:
        raise ValueError(f"level {level} is not an interior time level")
    return float(_hat_weights_t(profile, tmesh)[level])


def hat_average_t0(profile: TimeProfile, h_t: float) -> float:
    """One-sided hat average (2/h_t) * int_0^{h_t} y(t) (1 - t/h_t) dt."""
    if isinstance(profile, TimeDirac):
        if 0.0 < profile.t_star < h_t:
            return (2.0 / h_t) * (1.0 - profile.t_star / h_t)
        return 0.0
    if profile.t_star >= h_t:
        return 0.0
    pts = sorted({0.0, h_t, profile.t_star})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        t = mid + half * _GAUSS_X
        total += half * float(np.sum(_GAUSS_W * profile.eval(t) * (1.0 - t / h_t)))
    return 2.0 * total / h_t


# ---------------------------------------------------------------------------
# right-hand-side constructions


def _meshgrid(meshes: Sequence[AxisMesh]) -> list[np.ndarray]:
    return np.meshgrid(*(m.nodes for m in meshes), indexing="ij")


def initial_velocity(
    u1,
    meshes: Sequence[AxisMesh],
    h_t: float,
    speeds: Sequence[float],
    mode: str,
) -> np.ndarray:
    """Discrete initial-velocity data (full-shape array, faces zero).

    mode 'qx': exact hat average of piecewise data.
    mode 'compact': S u1 + sum_i (h_t^2 a_i^2/12) Lambda_i u1 from samples, with
                    S the additive compact average (on uniform axes
                    u1 + sum_i ((h_i^2 + h_t^2 a_i^2)/12) Lambda_i u1).
    mode 'samples': plain nodal samples (second-order reference choice).
    """
    meshes = list(meshes)
    shape = tuple(m.nodes.size for m in meshes)
    if mode == "qx":
        if not isinstance(u1, PiecewiseData):
            raise TypeError("hat averaging requires piecewise data")
        if len(meshes) != 1:
            raise ValueError("hat averaging of data is one-dimensional")
        out = np.zeros(shape)
        for term in u1:
            out += term.coef * hat_average_x(term.space, meshes[0])
        return out
    if isinstance(u1, PiecewiseData):
        if u1.has_space_atom:
            raise ValueError("sample-based initial velocity undefined for Dirac data")
        fn = lambda *xs: sum(t.coef * t.space.eval(xs[0]) for t in u1)
    elif callable(u1):
        fn = u1
    else:
        raise TypeError(f"unsupported initial-velocity data {type(u1)!r}")
    samples = fn(*_meshgrid(meshes))
    axes = range(len(meshes))
    if mode == "samples":
        out = _trim(samples, axes)
    elif mode == "compact":
        out = _additive(samples, _average_factors(meshes))
        for axis, mesh in enumerate(meshes):
            lam = TridiagonalFactor(axis, *tridiag_second_diff(mesh))
            c = h_t**2 * speeds[axis] ** 2 / 12.0
            out += c * _trim(lam.apply(samples), set(axes) - {axis})
    else:
        raise ValueError(f"unknown initial-velocity mode {mode!r}")
    return _embed(out, np.zeros(shape))


class RhsTable:
    """Per-level compact right-hand side f_N^m on the interior nodes."""

    def __init__(self, getter: Callable[[int], np.ndarray], n_levels: int):
        self._getter = getter
        self.n_levels = n_levels

    def __call__(self, level: int) -> np.ndarray:
        if not 1 <= level <= self.n_levels - 1:
            raise ValueError(f"level {level} outside 1..{self.n_levels - 1}")
        return self._getter(level)


def build_rhs_table(
    f,
    meshes: Sequence[AxisMesh],
    tmesh: TimeMesh,
    mode: str,
) -> RhsTable:
    """Compact forcing construction for the interior time levels.

    mode 'smooth' evaluates f + (h_t^2/12) Lambda_t f + sum_i (h_i^2/12)
    Lambda_i f pointwise from samples of a callable f(x..., t); mode
    'averaged' composes the exact spatial and temporal hat averages of
    separable piecewise data.
    """
    meshes = list(meshes)
    interior = _interior_slices(len(meshes))
    if f is None:
        shape = tuple(m.nodes.size - 2 for m in meshes)
        return RhsTable(lambda m: np.zeros(shape), tmesh.n_steps)
    if mode == "averaged":
        if not isinstance(f, PiecewiseData):
            raise TypeError("averaged mode requires separable piecewise data")
        if len(meshes) != 1:
            raise ValueError("averaged forcing is one-dimensional")
        parts = []
        for term in f:
            if term.time is None:
                raise ValueError("forcing terms need a temporal factor")
            qx = hat_average_x(term.space, meshes[0])[1:-1]
            parts.append((term.coef, qx, _hat_weights_t(term.time, tmesh)))

        def averaged(level: int) -> np.ndarray:
            out = np.zeros(meshes[0].nodes.size - 2)
            for coef, qx, qt in parts:
                out += coef * qt[level] * qx
            return out

        return RhsTable(averaged, tmesh.n_steps)
    if mode == "smooth":
        if not callable(f):
            raise TypeError("smooth mode requires a callable forcing; "
                            "use averaged mode for distributional data")
        grids = _meshgrid(meshes)
        h_t = tmesh.h_t
        averages = _average_factors(meshes)

        def smooth(level: int) -> np.ndarray:
            t = tmesh.nodes[level]
            fm = f(*grids, t)
            lam_t = f(*grids, t + h_t) - 2.0 * fm + f(*grids, t - h_t)
            return _additive(fm, averages) + lam_t[interior] / 12.0

        return RhsTable(smooth, tmesh.n_steps)
    raise ValueError(f"unknown forcing mode {mode!r}")


def initial_rhs(
    f,
    meshes: Sequence[AxisMesh],
    h_t: float,
    mode: str,
) -> np.ndarray:
    """Forcing value entering the first-step equation (interior nodes).

    Smooth modes combine a third-order one-sided time approximation with the
    compact spatial correction:

    'three_level'    (7/12) f^0 + (1/2) f^1 - (1/12) f^2
    'two_level_half' (1/3) f^0 + (2/3) f(h_t/2)
    'centered'       -(1/12) f^{-1} + (5/6) f^0 + (1/4) f^1
    'graded'         product-average f^0 + (1/3)(f^1 - f^0)
    'averaged'       exact one-sided hat average of piecewise data
    """
    meshes = list(meshes)
    interior = _interior_slices(len(meshes))
    if f is None:
        return np.zeros(tuple(m.nodes.size - 2 for m in meshes))
    if mode == "averaged":
        if not isinstance(f, PiecewiseData):
            raise TypeError("averaged mode requires separable piecewise data")
        if len(meshes) != 1:
            raise ValueError("averaged forcing is one-dimensional")
        out = np.zeros(meshes[0].nodes.size - 2)
        for term in f:
            qx = hat_average_x(term.space, meshes[0])[1:-1]
            out += term.coef * hat_average_t0(term.time, h_t) * qx
        return out
    if not callable(f):
        raise TypeError(f"mode {mode!r} requires a callable forcing")
    grids = _meshgrid(meshes)
    f_at = lambda t: f(*grids, t)
    f0 = f_at(0.0)
    averages = _average_factors(meshes)
    if mode == "three_level":
        time_part = (7.0 * f0 + 6.0 * f_at(h_t) - f_at(2.0 * h_t)) / 12.0
    elif mode == "two_level_half":
        # (1/3) f^0 + (2/3) f(h_t/2) with the compact correction of f^0
        return _additive(f0, averages) + (2.0 / 3.0) * (f_at(0.5 * h_t) - f0)[interior]
    elif mode == "centered":
        time_part = -f_at(-h_t) / 12.0 + 5.0 * f0 / 6.0 + f_at(h_t) / 4.0
    elif mode == "graded":
        return _product(f0, averages) + ((f_at(h_t) - f0) / 3.0)[interior]
    else:
        raise ValueError(f"unknown initial forcing mode {mode!r}")
    return time_part[interior] + (_additive(f0, averages) - f0[interior])
