"""Error norms, the recipe of a 1D run (run_errors: the implicit kinds of a
study marched as one stack, watched by one error observer), the one
convergence study (study: the runs of every (problem, layout, N) case on one
pool, one report per group and kind), least-squares order fitting,
theoretical order formulas, and report assembly.

Three uniform-in-time mesh norms of the error r = u - v are tracked, the
observer keeping a block of levels' residuals and reducing the block at
once (ErrorObserver):

    L2h:  max_m ( h * sum_{interior} r_k^2 )^{1/2}
    Ch:   max over all nodes and levels of |r|
    Eh:   max_m max( || (r^m - r^{m-1})/h_t ||_h, || backward x-difference ||_h~ )

with the x-part summed over k = 1..N (one-sided difference at every node
pair).  Practical orders come from least squares on log10 error versus
log10 N, reported as ||r|| ~ c0 N^-gamma: c0 is the constant of that power
law in N (every study problem lies on a unit interval).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import problems, schemes
from .mesh import AxisMesh, TimeMesh, build_time_mesh, mesh_stats
from .schemes import _BLOCK, RunResult, SchemeKind

__all__ = [
    "ErrorTriple",
    "ErrorObserver",
    "run_errors",
    "study",
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
    """The three norms against an exact evaluator, reduced a block of levels
    at a time.

    A level is a run's values, or a (K, N+1) stack with one run per row; the
    observer takes the shape of the first level it is shown.  Each observed
    level writes one row of a residual block, r = exact - values, from one
    exact evaluation (a copy: the caller may reuse its array).  A full block
    is reduced at once, with one dot product per row and norm; row 0 holds
    the last residual of the block before, for the time differences of Eh.
    result() reduces a partial block, so it may be called mid-run: one
    triple for a run, one per row for a stack.  The running maxima are fmax
    reductions, which, as a level-by-level max() does, never let a NaN level
    win, so each triple equals that reduction's bit for bit, NaN and inf
    levels included; level 0 takes no Eh term.

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
        self.h_t = tmesh.h_t
        # the residual block and its scratch, made for the first level's shape
        self._rows = self._work = None
        # per pending row 1, 2, ...: whether its level takes an Eh term
        self._takes_eh: list[bool] = []
        self._l2 = self._c = self._e = 0.0

    def observe(self, level: int, t: float, values: np.ndarray) -> None:
        pending = self._takes_eh
        seen = self._rows is not None
        if not seen:
            self._rows = np.zeros((_BLOCK + 1, *values.shape))
            self._work = np.empty_like(self._rows[1:])
        np.subtract(self.exact(self.nodes, t), values, out=self._rows[len(pending) + 1])
        pending.append(level >= 1 and seen)
        if len(pending) == _BLOCK:
            self._reduce()

    __call__ = observe

    def _reduce(self) -> None:
        k = len(self._takes_eh)
        if not k:
            return
        h = self.h
        rows = self._rows[: k + 1]
        r = rows[1:]
        # one scratch block for the differences and |r|, filled in place:
        # a fresh temporary of a block's size costs more than the arithmetic
        work = self._work[:k]
        # time differences of whole rows; Eh takes their interior
        dt = np.divide(np.subtract(r, rows[:-1], out=work), self.h_t, out=work)[..., 1:-1]
        e_times = np.sqrt(h * np.vecdot(dt, dt))
        # x-differences along the rows laid end to end: entry j >= 1 of a row
        # is r_j - r_{j-1}; entry 0 spans two rows and is not read
        ends, flat = r.reshape(-1), work.reshape(-1)
        np.divide(np.subtract(ends[1:], ends[:-1], out=flat[1:]), h, out=flat[1:])
        dx = work[..., 1:]
        e_spaces = np.sqrt(h * np.vecdot(dx, dx))
        cs = np.max(np.abs(r, out=work), axis=-1)
        inner = r[..., 1:-1]
        l2s = np.sqrt(h * np.vecdot(inner, inner))
        # the block's levels are axis 0: fold them into the running maxima
        e_levels = np.fmax(e_times, e_spaces)[np.array(self._takes_eh)]
        self._l2 = np.fmax(self._l2, np.fmax.reduce(l2s))
        self._c = np.fmax(self._c, np.fmax.reduce(cs))
        self._e = np.fmax(self._e, np.fmax.reduce(e_levels, initial=0.0))
        rows[0] = rows[k]
        self._takes_eh = []

    def result(self) -> ErrorTriple | list[ErrorTriple]:
        self._reduce()
        norms = np.array([self._l2, self._c, self._e])
        if norms.ndim == 1:
            return ErrorTriple(*norms.tolist())
        return [ErrorTriple(*row) for row in norms.T.tolist()]


# a level past ~1e154 overflows the observer's squares: the march's verdict
# ends such a run, which reports the infinite triple, so the warning is moot.
# One errstate per call covers the marches too, on purpose: an overflow in a
# step gives an infinite or NaN level, which the same verdict ends, and an
# errstate around each observe call would cost every level.
@np.errstate(over="ignore")
def run_errors(
    problem, kinds: Sequence[SchemeKind | str], axis: AxisMesh, n_steps: int
) -> list[tuple[RunResult, ErrorTriple]]:
    """The run and its error triple for each 1D kind on `axis` with
    `n_steps` steps (the rule is schemes.step_count): the recipe of every 1D
    run.  The implicit kinds go to schemes.run_stacked by kind, which marches
    them over the horizon as one stack with one row per kind (one A apply,
    forcing entry, trace and block-diagonal solve per level), each run equal
    to the kind's own bit for bit (a lone kind runs on its own); one error
    observer watches the stack, with one exact evaluation per level.
    characteristic runs on the problem's uniform axis with h_t = h/a.  A run
    that blew up reports the infinite triple; the others run to the end.
    """
    kinds = [SchemeKind(kind) for kind in kinds]
    explicit = SchemeKind.EXPLICIT_CHARACTERISTIC
    done = {}
    if explicit in kinds:
        n = axis.n_intervals
        axis_c, tmesh_c = schemes.characteristic_meshes(problem, n, n_steps)
        if not np.array_equal(axis.nodes, axis_c.nodes):
            raise ValueError("the characteristic-mesh scheme runs on the problem's uniform axis")
        obs = ErrorObserver(problem.exact, axis_c, tmesh_c)
        result = schemes.run_explicit_characteristic(problem, n, n_steps, obs)[0]
        done[explicit] = result, obs.result()
    implicit = [kind for kind in kinds if kind != explicit]
    if implicit:
        tmesh = build_time_mesh(n_steps, problem.horizon)
        obs = ErrorObserver(problem.exact, axis, tmesh)
        results = schemes.run_stacked(problem, implicit, axis, tmesh, obs)
        # a lone kind runs on its own: its observer gives one triple
        triples = obs.result() if len(implicit) > 1 else [obs.result()]
        done.update(zip(implicit, zip(results, triples)))
    return [
        (result, ErrorTriple(math.inf, math.inf, math.inf) if result.blew_up else triple)
        for result, triple in map(done.get, kinds)
    ]


@dataclass(frozen=True)
class FitResult:
    """Power-law fit ||r|| ~ c0 N^-gamma."""

    c0: float
    gamma: float
    n_points: int
    excluded: tuple[int, ...] = ()
    starred: bool = False


def fit_order(points: Sequence[tuple[int, float]], drop_below: int | None = None) -> FitResult:
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
    c0, gamma = 10.0 ** float(intercept), -float(slope)
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

    def fit(self, drop_below: int | None = None) -> None:
        for norm in NORM_NAMES:
            points = [(n, triple.as_dict()[norm]) for n, triple in self.results]
            try:
                self.fits[norm] = fit_order(points, drop_below)
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


def _study_case(name: str, layout: str, n: int, kinds: tuple, factor: float):
    """The triples of `kinds` on the catalog problem `name` at N intervals of
    `layout`, marched at the step count M of the first kind, and M."""
    problem = problems.catalog(name)
    axis = problem.axis(n, None if layout == "uniform" else layout)
    m = schemes.step_count(problem, axis, kinds[0], factor)
    return [triple for _, triple in run_errors(problem, kinds, axis, m)], m


def study(groups: Sequence[tuple[str, str, Sequence[int]]], kinds: Sequence[SchemeKind | str],
          factor: float = math.sqrt(2.0), jobs: int = 1) -> list[ConvergenceReport]:
    """One unfitted report, with its theoretical orders, per group (catalog
    problem name, layout "uniform" or a node distribution name, N list) and
    kind.  Each (group, N) case runs the kinds through run_errors at the step
    count of the first kind, on one pool of `jobs` processes when jobs > 1,
    largest N first so no long case ends last.  A report is named by its
    problem on the uniform layout, else by its layout, whose step statistics
    and M/N at the largest N it carries."""
    kinds = tuple(kinds)
    groups = [(name, layout, sorted(n_list)) for name, layout, n_list in groups]
    cases = [(name, layout, n, kinds, factor) for name, layout, n_list in groups for n in n_list]
    order = sorted(cases, key=lambda case: -case[2])
    if jobs == 1:
        outcomes = [_study_case(*case) for case in order]
    else:
        import concurrent.futures  # only a pool needs it

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_study_case, *zip(*order)))
    done = {case[:3]: outcome for case, outcome in zip(order, outcomes)}
    reports = []
    for name, layout, n_list in groups:
        problem, n = problems.catalog(name), n_list[-1]
        label, extras = problem.name, {}
        if layout != "uniform":
            stats = mesh_stats(problem.axis(n, layout))
            label, extras = layout, {"h_ratio": stats.ratio, "rho_min": stats.rho_min,
                                     "rho_max": stats.rho_max,
                                     "M_over_N": done[name, layout, n][1] / n}
        for k, kind in enumerate(kinds):
            results = [(n, done[name, layout, n][0][k]) for n in n_list]
            rep = ConvergenceReport(label, getattr(kind, "value", kind), problem.alpha, results,
                                    extras=dict(extras))
            rep.attach_theory()
            reports.append(rep)
    return reports


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
