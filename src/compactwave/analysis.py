"""Error norms, least-squares order fitting, theoretical order formulas, and
report assembly for convergence studies.

Three uniform-in-time mesh norms of the error r = u - v are tracked:

    L2h:  max_m ( h * sum_{interior} r_k^2 )^{1/2}
    Ch:   max over all nodes and levels of |r|
    Eh:   max_m max( || (r^m - r^{m-1})/h_t ||_h, || backward x-difference ||_h~ )

with the x-part summed over k = 1..N (one-sided difference at every node
pair).  Practical orders come from least squares on log10 error versus
log10 N, reported as ||r|| ~ c0 (X/N)^gamma.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import schemes
from .mesh import AxisMesh, TimeMesh, build_time_mesh
from .schemes import RunResult, SchemeConfig, SchemeKind

__all__ = [
    "ErrorTriple",
    "ErrorObserver",
    "run_errors",
    "FitResult",
    "fit_order",
    "theoretical_orders",
    "OrderRangeWarning",
    "ConvergenceReport",
    "build_report",
    "NORM_NAMES",
]

NORM_NAMES = ("L2h", "Ch", "Eh")


class OrderRangeWarning(UserWarning):
    """Smoothness parameter outside the stated validity range of a formula."""


@dataclass(frozen=True)
class ErrorTriple:
    """The three run norms; infinite for unstable runs."""

    L2h: float
    Ch: float
    Eh: float

    def as_dict(self) -> dict[str, float]:
        return {"L2h": self.L2h, "Ch": self.Ch, "Eh": self.Eh}


class ErrorObserver:
    """Streams the three norms level by level against an exact evaluator.

    The quadrature weight is the mean spatial step, so on graded axes only
    the Ch norm is layout-independent (the graded-mesh studies report Ch).
    The observer passes no verdict on the levels it is shown: the march
    judges each level by the blow-up rule, and run_errors turns a run that
    blew up into the infinite triple.
    """

    def __init__(self, exact: Callable, axis: AxisMesh, tmesh: TimeMesh):
        self.exact = exact
        self.nodes = axis.nodes
        self.h = axis.extent / axis.n_intervals
        self.h_t = tmesh.horizon / tmesh.n_steps
        self._prev_r: np.ndarray | None = None
        self._l2 = 0.0
        self._c = 0.0
        self._e = 0.0

    def observe(self, level: int, t: float, values: np.ndarray) -> None:
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

    __call__ = observe

    def result(self) -> ErrorTriple:
        return ErrorTriple(self._l2, self._c, self._e)


def _last_level(exact: Callable) -> Callable:
    """exact(x, t) remembered for the last (x, t) asked for: observers that
    march in lockstep over one mesh evaluate each level once."""
    last = [None, None, None]

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        if x is not last[0] or t != last[1]:
            last[:] = x, t, exact(x, t)
        return last[2]

    return evaluate


def run_errors(
    problem, kinds: Sequence[SchemeKind | str], axis: AxisMesh, n_steps: int
) -> list[tuple[RunResult, ErrorTriple]]:
    """The run and its error triple for each 1D kind on `axis` with
    `n_steps` steps (the rule is schemes.step_count): the recipe of every 1D
    run.  The implicit kinds march level by level together over the horizon,
    their observers sharing one exact evaluation per level; characteristic
    runs on the problem's uniform axis with h_t = h/a.  A run that blew up
    reports the infinite triple; the others run to the end.
    """
    kinds = [SchemeKind(kind) for kind in kinds]
    exact = _last_level(problem.exact)
    explicit = SchemeKind.EXPLICIT_CHARACTERISTIC
    done = {}
    if explicit in kinds:
        n = axis.n_intervals
        axis_c, tmesh_c = schemes.characteristic_meshes(problem, n, n_steps)
        if not np.array_equal(axis.nodes, axis_c.nodes):
            raise ValueError("the characteristic-mesh scheme runs on the problem's uniform axis")
        obs = ErrorObserver(exact, axis_c, tmesh_c)
        done[explicit] = schemes.run_explicit_characteristic(problem, n, n_steps, obs)[0], obs
    tmesh = build_time_mesh(n_steps, problem.horizon)
    active = {
        kind: (schemes.assemble(problem, SchemeConfig(kind), [axis], tmesh).march(),
               ErrorObserver(exact, axis, tmesh))
        for kind in kinds if kind != explicit
    }
    while active:
        for kind, (levels, obs) in tuple(active.items()):
            try:
                obs.observe(*next(levels))
            except StopIteration as stop:
                done[kind] = stop.value, obs
                del active[kind]
    return [
        (result, ErrorTriple(math.inf, math.inf, math.inf) if result.blew_up else obs.result())
        for result, obs in map(done.get, kinds)
    ]


@dataclass(frozen=True)
class FitResult:
    """Power-law fit ||r|| ~ c0 (X/N)^gamma."""

    c0: float
    gamma: float
    n_points: int
    excluded: tuple[int, ...] = ()
    starred: bool = False


def fit_order(
    points: Sequence[tuple[int, float]],
    extent: float = 1.0,
    drop_below: int | None = None,
) -> FitResult:
    """Ordinary least squares on log10 error versus log10 N.

    Non-finite (blown-up) and non-positive errors are excluded with a warning
    that names which; `drop_below` removes the coarse resolutions (the
    starred fits of rough-data studies) and marks the result."""
    excluded: list[int] = []
    usable: list[tuple[int, float]] = []
    for n, err in points:
        if drop_below is not None and n < drop_below:
            excluded.append(n)
            continue
        if not math.isfinite(err) or err <= 0.0:
            reason = "non-positive" if math.isfinite(err) else "non-finite"
            warnings.warn(f"excluding {reason} error at N={n}", stacklevel=2)
            excluded.append(n)
            continue
        usable.append((n, err))
    if len(usable) < 3:
        raise ValueError("order fitting needs at least 3 usable points")
    log_n = np.log10([n for n, _ in usable])
    log_e = np.log10([e for _, e in usable])
    slope, intercept = np.polyfit(log_n, log_e, 1)
    gamma = -float(slope)
    c0 = 10.0 ** float(intercept) * extent ** (-gamma)
    return FitResult(c0, gamma, len(usable), tuple(excluded), drop_below is not None)


def theoretical_orders(alpha: float, method_order: int) -> tuple[float, float, float]:
    """Expected error orders (L2h, Ch, Eh) for data of smoothness alpha.

    4th-order scheme:  min(4a/5, 4);  4(a - 1/2)/5;  4(a - 1)/5.
    2nd-order scheme:  min(2a/3, 2);  min(2(a - 1/2)/3, 2);  min(2(a - 1)/3, 2).
    Values outside the stated validity ranges are returned with a warning.
    """
    if method_order == 4:
        # stated ranges: L2h for alpha >= 0, Ch for 1/2 < alpha <= 11/2,
        # Eh for 1 <= alpha <= 6
        if alpha < 0.0 or not 0.5 < alpha <= 5.5 or not 1.0 <= alpha <= 6.0:
            warnings.warn(
                f"alpha={alpha} outside a stated validity range",
                OrderRangeWarning,
                stacklevel=2,
            )
        return (min(0.8 * alpha, 4.0), 0.8 * (alpha - 0.5), 0.8 * (alpha - 1.0))
    if method_order == 2:
        if alpha < 0.0 or alpha <= 0.5 or alpha < 1.0:
            warnings.warn(
                f"alpha={alpha} outside a stated validity range",
                OrderRangeWarning,
                stacklevel=2,
            )
        return (
            min(2.0 * alpha / 3.0, 2.0),
            min(2.0 * (alpha - 0.5) / 3.0, 2.0),
            min(2.0 * (alpha - 1.0) / 3.0, 2.0),
        )
    raise ValueError("method order must be 2 or 4")


@dataclass
class ConvergenceReport:
    """Per-problem convergence study: error triples per N with fitted and
    theoretical orders per norm."""

    problem: str
    scheme: str
    alpha: float | None
    results: list[tuple[int, ErrorTriple]]
    fits: dict[str, FitResult] = field(default_factory=dict)
    gamma_th: dict[str, float] = field(default_factory=dict)
    gamma_th2: dict[str, float] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)

    def fit(self, drop_below: int | None = None, extent: float = 1.0) -> None:
        for norm in NORM_NAMES:
            points = [(n, triple.as_dict()[norm]) for n, triple in self.results]
            try:
                self.fits[norm] = fit_order(points, extent, drop_below)
            except ValueError:
                continue

    def attach_theory(self) -> None:
        if self.alpha is None:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderRangeWarning)
            th4 = theoretical_orders(self.alpha, 4)
            th2 = theoretical_orders(self.alpha, 2)
        for norm, g4, g2 in zip(NORM_NAMES, th4, th2):
            self.gamma_th[norm] = g4
            self.gamma_th2[norm] = g2


def _sci(x: float | None) -> str:
    if x is None:
        return ""
    if not math.isfinite(x):
        return "inf"
    return f"{x:.3E}"


def _fixed(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.3f}"


def build_report(reports: Sequence[ConvergenceReport], fmt: str = "csv") -> str:
    """Flatten convergence studies into one row per (problem, scheme, norm).

    Column order: problem, scheme, norm, c0, gamma_pr, gamma_th, gamma_th2,
    one error column per resolution, then any per-problem extras."""
    all_n = sorted({n for rep in reports for n, _ in rep.results})
    extra_keys = sorted({key for rep in reports for key in rep.extras})
    header = ["problem", "scheme", "norm", "c0", "gamma_pr", "gamma_th", "gamma_th2"]
    header += [f"err_{n}" for n in all_n] + extra_keys
    rows = [header]
    for rep in reports:
        by_n = {n: triple for n, triple in rep.results}
        for norm in NORM_NAMES:
            fit = rep.fits.get(norm)
            star = "*" if fit is not None and fit.starred else ""
            row = [
                rep.problem,
                rep.scheme,
                norm,
                _sci(fit.c0) + star if fit else "",
                _fixed(fit.gamma) + star if fit else "",
                _fixed(rep.gamma_th.get(norm)),
                _fixed(rep.gamma_th2.get(norm)),
            ]
            row += [
                _sci(by_n[n].as_dict()[norm]) if n in by_n else "" for n in all_n
            ]
            row += [_sci(rep.extras.get(key)) for key in extra_keys]
            rows.append(row)
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows) + "\n"
    if fmt == "md":
        out = ["| " + " | ".join(rows[0]) + " |"]
        out.append("|" + "---|" * len(rows[0]))
        for row in rows[1:]:
            out.append("| " + " | ".join(row) + " |")
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
