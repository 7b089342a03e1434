"""Spatial and temporal meshes: uniform, graded, and the practical step rule.

Spatial axes are built either uniformly or from an increasing node
distribution function mapping [0, 1] onto [0, 1] (scaled to the axis extent).
select_time_step_count, M = floor(factor * a * T / h_min) with factor = sqrt(2)
by default, is the primitive of schemes.step_count, the step rule of every
run; only the `stability` command also calls it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "MeshError",
    "AxisMesh",
    "TimeMesh",
    "MeshStats",
    "NODE_DISTRIBUTIONS",
    "build_uniform_axis",
    "build_graded_axis",
    "build_time_mesh",
    "mesh_stats",
    "select_time_step_count",
]

UNIFORM_RTOL = 1e-14


class MeshError(ValueError):
    """Raised for degenerate or non-monotone meshes."""


def _validate_nodes(nodes: np.ndarray, min_intervals: int) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < min_intervals + 1:
        raise MeshError(f"need at least {min_intervals} intervals, got {nodes.size - 1}")
    if not np.all(np.isfinite(nodes)):
        raise MeshError("non-finite node coordinates")
    if np.any(np.diff(nodes) <= 0):
        raise MeshError("node coordinates must be strictly increasing")
    return nodes


@dataclass(frozen=True, eq=False)
class AxisMesh:
    """Nodes of one spatial axis, including both endpoints."""

    nodes: np.ndarray
    steps: np.ndarray = field(init=False, repr=False)
    uniform: bool = field(init=False)

    def __post_init__(self):
        nodes = _validate_nodes(self.nodes, min_intervals=2)
        steps = np.diff(nodes)
        extent = nodes[-1] - nodes[0]
        uniform = bool(np.max(np.abs(steps - extent / (nodes.size - 1))) <= UNIFORM_RTOL * extent)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "uniform", uniform)

    @property
    def n_intervals(self) -> int:
        return self.nodes.size - 1

    @property
    def extent(self) -> float:
        return float(self.nodes[-1] - self.nodes[0])

    @property
    def h(self) -> float:
        """Uniform step size; rejects non-uniform meshes."""
        if not self.uniform:
            raise MeshError("mesh is not uniform")
        return self.extent / self.n_intervals


@dataclass(frozen=True, eq=False)
class TimeMesh:
    """Time levels t_0 = 0 < t_1 < ... < t_M = T."""

    nodes: np.ndarray
    steps: np.ndarray = field(init=False, repr=False)
    uniform: bool = field(init=False)

    def __post_init__(self):
        nodes = _validate_nodes(self.nodes, min_intervals=1)
        if abs(nodes[0]) > 1e-15 * max(1.0, abs(nodes[-1])):
            raise MeshError("time mesh must start at t = 0")
        steps = np.diff(nodes)
        horizon = nodes[-1]
        uniform = bool(np.max(np.abs(steps - horizon / (nodes.size - 1))) <= UNIFORM_RTOL * horizon)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "uniform", uniform)

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def h_t(self) -> float:
        if not self.uniform:
            raise MeshError("time mesh is not uniform")
        return self.horizon / self.n_steps


@dataclass(frozen=True)
class MeshStats:
    """Step-size extremes and adjacent-step ratios of one axis."""

    h_min: float
    h_max: float
    rho_min: float
    rho_max: float

    @property
    def ratio(self) -> float:
        return self.h_max / self.h_min


# increasing maps of [0, 1] onto [0, 1] generating graded node layouts
NODE_DISTRIBUTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "phi0": lambda xi: xi,
    "phi1": lambda xi: np.expm1(5.0 * xi) / np.expm1(5.0),
    "phi2": lambda xi: np.log(60.0 * xi + 1.0) / np.log(61.0),
    "phi3": lambda xi: xi**1.5,
    "phi4": lambda xi: xi**0.75,
    "phi5": lambda xi: xi**0.625,
    "phi6": lambda xi: np.sqrt(xi),
}


def build_uniform_axis(n_intervals: int, extent: float, origin: float = 0.0) -> AxisMesh:
    """Uniform axis with nodes origin + k*extent/N, k = 0..N."""
    if n_intervals < 2:
        raise MeshError(f"need at least 2 intervals, got N = {n_intervals}")
    if extent <= 0:
        raise MeshError("extent must be positive")
    # (k*extent)/N keeps symmetric midpoints exact (origin=-X/2, even N -> 0.0)
    nodes = origin + np.arange(n_intervals + 1) * extent / n_intervals
    return AxisMesh(nodes)


def build_graded_axis(
    phi: Callable[[np.ndarray], np.ndarray],
    n_intervals: int,
    extent: float,
    origin: float = 0.0,
) -> AxisMesh:
    """Axis with nodes origin + extent*phi(k/N) for an increasing unit map phi."""
    if n_intervals < 2:
        raise MeshError(f"need at least 2 intervals, got N = {n_intervals}")
    xi = np.arange(n_intervals + 1) / n_intervals
    mapped = np.asarray(phi(xi), dtype=float)
    if abs(mapped[0]) > 1e-14 or abs(mapped[-1] - 1.0) > 1e-14:
        raise MeshError("node distribution must map 0 -> 0 and 1 -> 1")
    mapped[0], mapped[-1] = 0.0, 1.0
    if np.any(np.diff(mapped) <= 0):
        raise MeshError("node distribution is not increasing on the sampled grid")
    return AxisMesh(origin + extent * mapped)


def build_time_mesh(n_steps: int, horizon: float) -> TimeMesh:
    if n_steps < 1:
        raise MeshError(f"need at least one time step, got M = {n_steps}")
    if horizon <= 0:
        raise MeshError("horizon must be positive")
    return TimeMesh(np.arange(n_steps + 1) * horizon / n_steps)


def mesh_stats(mesh: AxisMesh) -> MeshStats:
    steps = mesh.steps
    rho = steps[1:] / steps[:-1]
    return MeshStats(
        h_min=float(steps.min()),
        h_max=float(steps.max()),
        rho_min=float(rho.min()),
        rho_max=float(rho.max()),
    )


def select_time_step_count(
    h_min: float, speed: float, horizon: float, factor: float = math.sqrt(2.0)
) -> int:
    """Step count M = floor(factor * speed * horizon / h_min).

    The default factor sqrt(2) corresponds to h_t^2 a^2 / h_min^2 <= 1/2 up to
    the flooring, which may leave the quotient marginally above 1/2.  The
    primitive of schemes.step_count; only `stability` also calls it directly.
    A non-finite argument or quotient is a MeshError.
    """
    if not all(0.0 < x < math.inf for x in (h_min, speed, horizon, factor)):
        raise MeshError("all arguments must be positive and finite")
    quotient = factor * speed * horizon / h_min
    if quotient == math.inf:
        raise MeshError("the step count factor * speed * horizon / h_min is infinite")
    m = math.floor(quotient)
    if m < 1:
        raise MeshError("the step rule gives M = 0: horizon too short for a single time step")
    return m
