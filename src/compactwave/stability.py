"""Time-step restriction and numerical certification of the energy bounds.

The sufficient stability condition for the compact family (weight 1/12) is

    C0 * h_t^2 * sum_i a_i^2 / h_i^2 <= 1 - eps0^2,   0 < eps0 < 1,

with C0 = 4/3 for the additive-average pair in two dimensions and C0 = 1
otherwise.  The certificates evaluate both sides of the strong and weak
energy estimates over the tensor sine basis (where every operator pair is
diagonal), so fractional operator powers reduce to eigenvalue scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mesh import AxisMesh, MeshError
from .solvers import operator_pair_c0, pair_spectra, sine_coefficients

__all__ = [
    "StabilityReport",
    "EnergyCertificate",
    "check_cfl",
    "sharp_alpha2",
    "verify_energy_bound",
    "norm_0h",
    "initial_velocity_term_eps0_zero",
    "MARGINAL_BAND",
]

MARGINAL_BAND = 0.01


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
    which: str
    lhs: float
    rhs: float
    satisfied: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _check_uniform(meshes: Sequence[AxisMesh]) -> None:
    if not all(m.uniform for m in meshes):
        raise MeshError("stability analysis requires uniform spatial meshes")


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
    _check_uniform(meshes)
    c0 = operator_pair_c0(pair)
    value = c0 * h_t**2 * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
    threshold = 1.0 - eps0**2
    passed = value <= threshold
    marginal = (not passed) and (value - threshold <= MARGINAL_BAND)
    alpha2 = sharp_alpha2(meshes, speeds, pair, h_t if pair == "prod_residual_stiffprod" else None)
    return StabilityReport(value, threshold, c0, eps0, alpha2, passed, marginal)


def sharp_alpha2(
    meshes: Sequence[AxisMesh],
    speeds: Sequence[float],
    pair: str,
    h_t: float | None = None,
) -> float:
    """Largest generalized eigenvalue max (A w, w)/(B w, w) of the pair,
    found by scanning the tensor sine modes (both operators are diagonal
    there)."""
    _check_uniform(meshes)
    mu_b, mu_a = pair_spectra(meshes, speeds, pair, h_t)
    return float(np.max(mu_a / mu_b))


def _norm_scale(meshes: Sequence[AxisMesh]) -> float:
    scale = 1.0
    for m in meshes:
        scale *= m.extent / 2.0
    return scale


def _sums(coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum c^2 w over each array of a stack (leading axis) of coefficients."""
    return np.sum((coeffs**2 * weights).reshape(len(coeffs), -1), axis=1)


def _norms(coeffs: np.ndarray, weights: np.ndarray, scale: float) -> list[float]:
    """Weighted norms (scale * sum c^2 w)^{1/2} of each array of a stack."""
    return np.sqrt(scale * _sums(coeffs, weights)).tolist()


def verify_energy_bound(
    trajectory: Sequence[np.ndarray],
    meshes: Sequence[AxisMesh],
    speeds: Sequence[float],
    h_t: float,
    pair: str,
    u1n: np.ndarray,
    forcing: Sequence[np.ndarray],
    which: str,
    eps0: float,
    f_variant: str = "default",
    g_series: Sequence[np.ndarray] | None = None,
    slack: float = 1e-12,
) -> EnergyCertificate:
    """Evaluate one side-by-side energy estimate for a stored run.

    `trajectory` holds the full node arrays of every level (homogeneous
    boundary), `forcing` the interior arrays f^0 .. f^{M-1}.

    which 'strong': the time-difference/stiffness estimate; f_variant
    'delta_f' switches to the summed-difference form of the forcing term.
    which 'weak': the solution/summed-average estimate; f_variant 'delta_g'
    uses the telescoping forcing representation with `g_series` holding
    g^0 .. g^M.

    The levels are stacked and analysed in one batched sine transform, the
    initial velocity and the forcing levels in another; the norms of all
    levels are then weighted sums over the stacks.  A non-finite level makes
    the left side NaN, so the estimate is not satisfied.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie strictly between 0 and 1")
    _check_uniform(meshes)
    interior = (slice(None),) + tuple(slice(1, -1) for _ in meshes)
    mu_b, mu_a = pair_spectra(meshes, speeds, pair, h_t)
    scale = _norm_scale(meshes)
    levels = sine_coefficients(np.asarray(trajectory, dtype=float)[interior], batch=1)
    data = sine_coefficients(np.asarray([u1n, *forcing], dtype=float), batch=1)
    u1_coeffs, f_coeffs = data[:1], data[1:]

    if which == "strong":
        diff = (levels[1:] - levels[:-1]) / h_t
        mean = 0.5 * (levels[1:] + levels[:-1])
        vals = np.sqrt(eps0**2 * scale * _sums(diff, mu_b) + scale * _sums(mean, mu_a))
        lhs = float(np.max(vals, initial=0.0))
        head = math.sqrt(
            scale * float(_sums(levels[:1], mu_a)[0])
            + eps0**-2 * scale * float(_sums(u1_coeffs, 1.0 / mu_b)[0])
        )
        if f_variant == "default":
            first, *rest = _norms(f_coeffs, 1.0 / mu_b, scale)
            l1 = 0.25 * h_t * first
            for value in rest:
                l1 += h_t * value
            rhs = head + 2.0 / eps0 * l1
        elif f_variant == "delta_f":
            summed = 0.0
            for value in _norms((f_coeffs[1:] - f_coeffs[:-1]) / h_t, 1.0 / mu_a, scale):
                summed += h_t * value
            peak = max(_norms(f_coeffs, 1.0 / mu_a, scale))
            rhs = head + 2.0 * summed + 3.0 * peak
        else:
            raise ValueError(f"unknown forcing variant {f_variant!r} for the strong bound")
        return EnergyCertificate("strong", lhs, rhs, lhs <= rhs + slack)

    if which == "weak":
        solution = _norms(levels, mu_b, scale)
        running = np.cumsum(h_t * 0.5 * (levels[1:] + levels[:-1]), axis=0)
        lhs = float(np.max([eps0 * s for s in solution] + _norms(running, mu_a, scale)))
        head = solution[0] + 2.0 * _norms(u1_coeffs, 1.0 / mu_a, scale)[0]
        if f_variant == "default":
            first, *rest = _norms(f_coeffs, 1.0 / mu_a, scale)
            l1 = 0.25 * h_t * first
            for value in rest:
                l1 += h_t * value
            rhs = head + 2.0 * l1
        elif f_variant == "delta_g":
            if g_series is None:
                raise ValueError("the telescoping variant needs the g levels")
            g_coeffs = sine_coefficients(np.asarray(g_series, dtype=float), batch=1)
            anchor = 0.5 * (g_coeffs[0] + g_coeffs[1])
            total = 0.0
            for value in _norms(g_coeffs[1:] - anchor, 1.0 / mu_b, scale):
                total += h_t * value
            rhs = head + 2.0 / eps0 * total
        else:
            raise ValueError(f"unknown forcing variant {f_variant!r} for the weak bound")
        return EnergyCertificate("weak", lhs, rhs, lhs <= rhs + slack)

    raise ValueError(f"unknown bound {which!r}")


def norm_0h(
    interior: np.ndarray,
    meshes: Sequence[AxisMesh],
    speeds: Sequence[float],
    pair: str,
    sigma: float,
    h_t: float,
) -> float:
    """Step-weighted norm [ ||w||_B^2 + (sigma - 1/4) h_t^2 ||w||_A^2 ]^{1/2}.

    Under the time-step condition this stays a norm, bounded below by
    eps0 ||w||_B; for sigma <= 1/4 it is also bounded above by ||w||_B.
    """
    _check_uniform(meshes)
    mu_b, mu_a = pair_spectra(meshes, speeds, pair, h_t)
    coeffs = sine_coefficients(np.asarray(interior))
    scale = _norm_scale(meshes)
    weights = mu_b + (sigma - 0.25) * h_t**2 * mu_a
    value = scale * float(np.sum(coeffs**2 * weights))
    if value < 0.0:
        raise ValueError("weights are indefinite: the step condition is violated")
    return math.sqrt(value)


def initial_velocity_term_eps0_zero(
    u1n: np.ndarray,
    meshes: Sequence[AxisMesh],
    speeds: Sequence[float],
    pair: str,
    sigma: float,
    h_t: float,
) -> float:
    """Diagnostic value ||(B + sigma h_t^2 A)^{-1/2} u_1N||_h.

    This is the initial-velocity contribution of the degenerate-margin
    estimate (eps0 = 0); no pass/fail semantics are attached because the
    step-weighted quantity may degenerate to a semi-norm there.
    """
    _check_uniform(meshes)
    mu_b, mu_a = pair_spectra(meshes, speeds, pair, h_t)
    coeffs = sine_coefficients(np.asarray(u1n))
    scale = _norm_scale(meshes)
    return math.sqrt(scale * float(np.sum(coeffs**2 / (mu_b + sigma * h_t**2 * mu_a))))
