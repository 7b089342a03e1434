"""Time-step restriction and numerical certification of the energy bounds.

The sufficient stability condition for the compact family (weight 1/12) is

    C0 * h_t^2 * sum_i a_i^2 / h_i^2 <= 1 - eps0^2,   0 < eps0 < 1,

with C0 = 4/3 for the additive-average pair in two dimensions and C0 = 1
otherwise.  C0 and the pair spectra both come from the one table of pair
forms (`operators.PAIR_FORMS`); the spectra are the one composer of the
stencil rows (`operators.compose_pair`) over per-axis eigenvalues.

The conditional stability theorem bounds a run in a strong and a weak energy
norm, each with respect to the initial data and the free term, and admits
alternative forms of the free-term part.  `verify_energy_bound` evaluates
both sides of every one of these estimates for a stored run of an assembled
Scheme and returns them by name.  It works over the tensor sine basis, where
every operator pair is diagonal, so fractional operator powers reduce to
eigenvalue scalings; the eigenvalues are the scheme's own (`Scheme.spectra`),
and the levels and the data are each sine-analysed once.  `random_run` is
the one run with random data the estimates are checked on, at a step that
`largest_step` bounds.  The sine basis exists on uniform axes only: on a
graded axis the spectra, and with them `check_cfl`, `sharp_alpha2`,
`largest_step`'s h_i and `verify_energy_bound`, raise MeshError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mesh import AxisMesh, build_time_mesh
from .problems import ProblemSpec
from .schemes import Scheme, SchemeKind
from .solvers import operator_pair_c0, pair_spectra, sine_coefficients

__all__ = [
    "StabilityReport",
    "EnergyCertificate",
    "check_cfl",
    "largest_step",
    "sharp_alpha2",
    "random_run",
    "verify_energy_bound",
    "MARGINAL_BAND",
]

MARGINAL_BAND = 0.01
# the roundoff an energy estimate may exceed its right side by and still hold
ENERGY_SLACK = 1e-12


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the time-step condition check."""

    value: float
    threshold: float
    c0: float
    eps0: float
    alpha2_sharp: float
    passed: bool
    marginal: bool

    @property
    def margin(self) -> float:
        return self.threshold - self.value


@dataclass(frozen=True)
class EnergyCertificate:
    """Both sides of one energy estimate; the estimate's name is its key in
    the dict verify_energy_bound returns."""

    lhs: float
    rhs: float
    satisfied: bool


def check_cfl(
    pair: str,
    meshes: Sequence[AxisMesh],
    speeds: Sequence[float],
    h_t: float,
    eps0: float,
) -> StabilityReport:
    """Evaluate the sufficient time-step condition for an operator pair.

    A violation within MARGINAL_BAND of the threshold is reported as
    marginal (warning, not failure): the condition uses the over-estimate
    4/h^2 of the largest second-difference eigenvalue, so slightly
    oversized steps are routinely stable in practice.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie strictly between 0 and 1")
    alpha2 = sharp_alpha2(meshes, speeds, pair, h_t)
    c0 = operator_pair_c0(pair)
    value = c0 * h_t**2 * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
    threshold = 1.0 - eps0**2
    passed = value <= threshold
    marginal = (not passed) and (value - threshold <= MARGINAL_BAND)
    return StabilityReport(value, threshold, c0, eps0, alpha2, passed, marginal)


def largest_step(
    pair: str, meshes: Sequence[AxisMesh], speeds: Sequence[float], eps0: float
) -> float:
    """The largest h_t the time-step condition allows for the pair,
    sqrt((1 - eps0^2) / (C0 sum_i a_i^2 / h_i^2))."""
    bound = operator_pair_c0(pair) * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
    return math.sqrt((1.0 - eps0**2) / bound)


def random_run(kind: SchemeKind | str, meshes: Sequence[AxisMesh], speeds: Sequence[float],
               h_t: float, m_steps: int, rng: np.random.Generator) -> tuple:
    """(scheme, levels, u1n, forcing), the arguments of verify_energy_bound,
    of one run with random data: a `kind` scheme of the zero-data problem on
    `meshes` over m_steps steps of h_t marches standard normal data drawn
    from `rng` in the order u_1N, f^0 .. f^{M-1}, the interior of v^0."""
    problem = ProblemSpec(
        name="random", speeds=tuple(speeds), origin=tuple(m.nodes[0] for m in meshes),
        extents=tuple(m.extent for m in meshes), horizon=m_steps * h_t,
        u0=lambda *xs: np.zeros_like(xs[0]),
    )
    scheme = Scheme(problem, kind, meshes, build_time_mesh(m_steps, m_steps * h_t))
    shape = tuple(m.nodes.size for m in meshes)
    interior = tuple(s - 2 for s in shape)
    u1n = rng.standard_normal(interior)
    forcing = [rng.standard_normal(interior) for _ in range(m_steps)]
    v0 = np.zeros(shape)
    v0[tuple(slice(1, -1) for _ in shape)] = rng.standard_normal(interior)
    return scheme, scheme.march_data(v0, u1n, forcing), u1n, forcing


def sharp_alpha2(
    meshes: Sequence[AxisMesh],
    speeds: Sequence[float],
    pair: str,
    h_t: float | None = None,
) -> float:
    """Largest generalized eigenvalue max (A w, w)/(B w, w) of the pair,
    found by scanning the tensor sine modes (both operators are diagonal
    there)."""
    mu_b, mu_a = pair_spectra(meshes, speeds, pair, h_t)
    return float(np.max(mu_a / mu_b))


def _sums(coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum c^2 w over each array of a stack (leading axis) of coefficients;
    an empty stack gives no sums."""
    squares = coeffs**2 * weights
    return np.sum(squares.reshape(len(squares), math.prod(squares.shape[1:])), axis=1)


def _norms(coeffs: np.ndarray, weights: np.ndarray, scale: float) -> list[float]:
    """Weighted norms (scale * sum c^2 w)^{1/2} of each array of a stack."""
    return np.sqrt(scale * _sums(coeffs, weights)).tolist()


def _time_sum(h_t: float, norms: Sequence[float], first: float = 1.0) -> float:
    """sum_m h_t ||.||^m over the levels in order, the first one weighted by
    `first` (the half-step start of the trapezoid-like sums)."""
    total = 0.0
    for k, value in enumerate(norms):
        total += (first if k == 0 else 1.0) * h_t * value
    return total


def verify_energy_bound(
    scheme,
    trajectory: Sequence[np.ndarray],
    u1n: np.ndarray,
    forcing: Sequence[np.ndarray],
    eps0: float,
    g_series: Sequence[np.ndarray] | None = None,
) -> dict[str, EnergyCertificate]:
    """Evaluate both sides of every energy estimate for a run of `scheme`,
    an assembled schemes.Scheme.

    `trajectory` holds the full node arrays of the levels the scheme marched
    (homogeneous boundary), `u1n` the interior initial velocity and
    `forcing` the interior arrays f^0 .. f^{M-1} it marched with, in the
    form of Scheme.march_data and Scheme.fn_table (f^0 the first-step
    forcing).  The meshes, h_t and the pair spectra are the scheme's own.

    The estimates, by name:

    - 'strong': the time-difference/stiffness estimate with respect to the
      initial data and the free term;
    - 'strong_delta_f': the same left side, the free term entering by its
      summed time differences;
    - 'weak': the solution/summed-average estimate;
    - 'weak_delta_g': the weak left side with the telescoping forcing
      representation f^m = (g^{m+1} - g^m)/h_t, present only when
      `g_series` holds g^0 .. g^M.

    The levels are stacked and analysed in one batched sine transform, the
    initial velocity and the forcing levels in another; the norms of all
    levels are then weighted sums over the stacks.  An estimate is satisfied
    when its left side is at most its right side plus ENERGY_SLACK; a
    non-finite level makes the left sides NaN, so none is.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie strictly between 0 and 1")
    meshes, h_t = scheme.meshes, scheme.h_t
    interior = (slice(None),) + tuple(slice(1, -1) for _ in meshes)
    mu_b, mu_a = scheme.spectra
    scale = math.prod(m.extent / 2.0 for m in meshes)
    levels = sine_coefficients(np.asarray(trajectory, dtype=float)[interior], batch=1)
    data = sine_coefficients(np.asarray([u1n, *forcing], dtype=float), batch=1)
    u1_coeffs, f_coeffs = data[:1], data[1:]
    f_over_b = _norms(f_coeffs, 1.0 / mu_b, scale)
    f_over_a = _norms(f_coeffs, 1.0 / mu_a, scale)

    def certificate(lhs: float, rhs: float) -> EnergyCertificate:
        return EnergyCertificate(lhs, rhs, lhs <= rhs + ENERGY_SLACK)

    diff = (levels[1:] - levels[:-1]) / h_t
    mean = 0.5 * (levels[1:] + levels[:-1])
    vals = np.sqrt(eps0**2 * scale * _sums(diff, mu_b) + scale * _sums(mean, mu_a))
    strong_lhs = float(np.max(vals, initial=0.0))
    strong_head = math.sqrt(
        scale * float(_sums(levels[:1], mu_a)[0])
        + eps0**-2 * scale * float(_sums(u1_coeffs, 1.0 / mu_b)[0])
    )
    f_steps = _norms((f_coeffs[1:] - f_coeffs[:-1]) / h_t, 1.0 / mu_a, scale)

    solution = _norms(levels, mu_b, scale)
    running = np.cumsum(h_t * 0.5 * (levels[1:] + levels[:-1]), axis=0)
    weak_lhs = float(np.max([eps0 * s for s in solution] + _norms(running, mu_a, scale)))
    weak_head = solution[0] + 2.0 * _norms(u1_coeffs, 1.0 / mu_a, scale)[0]

    certs = {
        "strong": certificate(
            strong_lhs, strong_head + 2.0 / eps0 * _time_sum(h_t, f_over_b, 0.25)
        ),
        "strong_delta_f": certificate(
            strong_lhs, strong_head + 2.0 * _time_sum(h_t, f_steps) + 3.0 * max(f_over_a)
        ),
        "weak": certificate(weak_lhs, weak_head + 2.0 * _time_sum(h_t, f_over_a, 0.25)),
    }
    if g_series is not None:
        g_coeffs = sine_coefficients(np.asarray(g_series, dtype=float), batch=1)
        anchor = 0.5 * (g_coeffs[0] + g_coeffs[1])
        g_norms = _norms(g_coeffs[1:] - anchor, 1.0 / mu_b, scale)
        certs["weak_delta_g"] = certificate(
            weak_lhs, weak_head + 2.0 / eps0 * _time_sum(h_t, g_norms)
        )
    return certs
