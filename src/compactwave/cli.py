"""Command-line front end: single runs, convergence sweeps reproducing the
uniform- and graded-mesh studies, stability reports, and a self test.

Exit codes: 0 success, 2 configuration error, 3 numerical blow-up,
4 singular solver.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import locale  # argparse's gettext imports it on the first parser build
import math
import sys
from typing import Sequence

import numpy as np
import numpy.random  # the certificates' generator, loaded with the CLI, not in a run
import yaml

from . import analysis, problems, schemes, stability
from .mesh import (
    NODE_DISTRIBUTIONS,
    MeshError,
    build_graded_axis,
    build_time_mesh,
    build_uniform_axis,
    mesh_stats,
    select_time_step_count,
)
from .schemes import SchemeConfig, SchemeKind
from .solvers import SingularSystemError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_SINGULAR = 4

_FULL_N_BY_ALPHA = {
    0.5: range(200, 3201, 200),
    1.5: range(200, 3201, 200),
    2.5: range(200, 3201, 200),
    3.5: range(200, 2001, 200),
    4.5: range(200, 801, 200),
    5.5: range(200, 601, 100),
}


# libyaml's parser when PyYAML was built with it; same documents, same values
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """A setting that cannot be used (exit code 2), also as an argparse type."""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_YAML_LOADER) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a mapping")
    return data


def _problem_from_config(entry) -> problems.ProblemSpec:
    if isinstance(entry, str):
        try:
            return problems.catalog(entry)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if isinstance(entry, dict):
        kind = entry.get("kind", "example")
        if kind == "smooth1d":
            return problems.make_smooth_nonuniform_problem()
        if kind == "example":
            try:
                return problems.make_example(float(entry["alpha"]))
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"bad inline problem spec: {exc}") from exc
    raise ConfigError(f"cannot interpret problem entry {entry!r}")


def _axis_from_config(entry: dict):
    n = _whole(entry.get("N", 0), "N")
    extent = float(entry.get("X", 1.0))
    origin = float(entry.get("origin", -extent / 2.0))
    kind = entry.get("kind", "uniform")
    read = {"N", "X", "origin", "kind"} | ({"phi"} if kind == "graded" else set())
    unread = ", ".join(repr(key) for key in entry if key not in read)
    if unread:
        raise ConfigError(f"unread axis key {unread}")
    if kind == "uniform":
        return build_uniform_axis(n, extent, origin)
    if kind == "graded":
        phi_name = entry.get("phi", "phi0")
        if phi_name not in NODE_DISTRIBUTIONS:
            raise ConfigError(f"unknown node distribution {phi_name!r}")
        return build_graded_axis(NODE_DISTRIBUTIONS[phi_name], n, extent, origin)
    raise ConfigError(f"unknown axis kind {kind!r}")


def _scheme_kind(name: str) -> SchemeKind:
    """The scheme kind, which fixes everything else about the scheme."""
    try:
        return SchemeKind(name)
    except ValueError:
        choices = ", ".join(k.value for k in SchemeKind)
        raise ConfigError(f"unknown scheme {name!r}; choose from {choices}") from None


def _echo_header(config: dict, fmt: str) -> list[str]:
    prefix = "#" if fmt == "csv" else ">"
    return [f"{prefix} {key}: {config[key]}" for key in sorted(config)]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _n_list(raw) -> list[int]:
    """A resolution list: '200,400,800' (or space separated) on the command
    line, a list in a config file."""
    parts = raw.replace(",", " ").split() if isinstance(raw, str) else raw
    if not isinstance(parts, (list, tuple)):
        raise ConfigError(f"bad N list {raw!r}")
    values = [_whole(part, "N") for part in parts]
    if not values:
        raise ConfigError("N list must not be empty")
    return values


def _whole(value, name: str) -> int:
    """An integer setting, as a whole number or its digits; a fractional or
    boolean value is a ConfigError naming it."""
    try:
        n = int(value)
        whole = not isinstance(value, bool) and (isinstance(value, str) or n == value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ConfigError(f"{name} must be a whole number, not {value!r}")
    return n


def _distinct(values: list, name: str) -> list:
    """values, unless one of them repeats: a ConfigError naming it."""
    for k, value in enumerate(values):
        if value in values[:k]:
            raise ConfigError(f"{name} {value!r} is given twice")
    return values


# The config keys of each command, with their defaults.  A None entry is
# resolved where it is read (stability's by dimension, cfl_factor when M is
# auto, the studies' N without --full), so a given setting that goes unread
# can be told from a default.
_SQRT2 = math.sqrt(2.0)
_STUDY_N = (200, 400, 800)
_FORMATS = ("csv", "md")
COMMAND_DEFAULTS = {
    "run": {"problem": "smooth1d", "scheme": "compact1d", "N": 100, "axis": None, "M": "auto",
            "cfl_factor": None, "format": "csv"},
    "table1": {"alpha": (1.5, 2.5, 3.5), "N": None, "jobs": 1, "format": "csv"},
    "table2": {"phi": tuple(NODE_DISTRIBUTIONS), "N": None, "cfl_factor": _SQRT2,
               "jobs": 1, "format": "csv"},
    "stability": {"problem": None, "scheme": "compact1d", "N": None, "axis": None, "axes": None,
                  "speeds": None, "T": None, "M": "auto", "cfl_factor": None},
}


def _settings(args: argparse.Namespace) -> dict:
    """The command's settings: its defaults, then the config file, then the
    flags given (an explicit --cfl-factor 0 is kept, for the step-count rule
    to reject).  A config key the command does not read, and a format other
    than csv or md, are ConfigErrors."""
    defaults = COMMAND_DEFAULTS[args.command]
    config = _load_config(args.config)
    unknown = ", ".join(repr(key) for key in config if key not in defaults)
    if unknown:
        known = ", ".join(defaults)
        raise ConfigError(f"unknown config key {unknown}; {args.command} reads {known}")
    flags = {key: value for key, value in vars(args).items()
             if value is not None or key not in defaults}
    settings = {**defaults, **config, **flags}
    if settings.get("format", "csv") not in _FORMATS:
        raise ConfigError(f"unknown format {settings['format']!r}; choose from csv, md")
    return settings


def _reject(settings: dict, keys: Sequence[str], where: str) -> None:
    """ConfigError naming the keys among `keys` that are set but unread."""
    given = ", ".join(repr(key) for key in keys if settings[key] is not None)
    if given:
        raise ConfigError(f"unread setting {given} {where}")


def _cfl_factor(settings: dict) -> float:
    """The factor of the step-count rule, sqrt(2) unless given."""
    return _SQRT2 if settings["cfl_factor"] is None else float(settings["cfl_factor"])


# ---------------------------------------------------------------------------
# single run


def cmd_run(args: argparse.Namespace) -> int:
    s = _settings(args)
    problem = _problem_from_config(s["problem"])
    kind = _scheme_kind(s["scheme"])
    # N intervals on the problem's interval, unless the config's axis says otherwise
    axis_cfg = {"N": s["N"], "X": problem.extents[0], "origin": problem.origin[0],
                **(s["axis"] or {})}
    axis = _axis_from_config(axis_cfg)
    if s["M"] != "auto":
        _reject(s, ("cfl_factor",), "with an explicit M")
        m = _whole(s["M"], "M")
    else:
        if kind == SchemeKind.EXPLICIT_CHARACTERISTIC:
            _reject(s, ("cfl_factor",), "with the characteristic scheme, whose h_t is h/a")
        m = schemes.step_count(problem, axis, kind, _cfl_factor(s))
    [(result, triple)] = analysis.run_errors(problem, [kind], axis, m)

    header = {"problem": problem.name, "scheme": s["scheme"], "N": axis.n_intervals, "M": m}
    lines = _echo_header(header, s["format"]) + [
        f"stable: {result.stable}",
        f"errors: L2h={triple.L2h:.6E} Ch={triple.Ch:.6E} Eh={triple.Eh:.6E}",
    ]
    _emit("\n".join(lines) + "\n", s["out"])
    return EXIT_BLOWUP if result.blew_up else EXIT_OK


# ---------------------------------------------------------------------------
# uniform-mesh convergence study


TABLE1_SCHEMES = ("compact1d", "second-order")


def _run_cases(fn, cases: list[tuple], jobs: int) -> dict:
    """{case: fn(*case)}, on one pool of `jobs` processes when jobs > 1; the
    largest N (second entry of a case) goes first, so no long case ends last."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, not {jobs}")
    order = sorted(cases, key=lambda case: -case[1])
    if jobs == 1:
        return {case: fn(*case) for case in order}
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return dict(zip(order, pool.map(fn, *zip(*order))))


def _study_exit(triples) -> int:
    """EXIT_BLOWUP when any run of a study blew up (its norms are infinite)."""
    return EXIT_BLOWUP if any(math.isinf(t.Ch) for t in triples) else EXIT_OK


def _table1_case(alpha: float, n: int) -> list[analysis.ErrorTriple]:
    """Error triples of both schemes (TABLE1_SCHEMES order) on E_alpha at N,
    marched as one stack at the step rule's M = N."""
    problem = problems.make_example(alpha)
    axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
    m = schemes.step_count(problem, axis, TABLE1_SCHEMES[0])
    return [triple for _, triple in analysis.run_errors(problem, TABLE1_SCHEMES, axis, m)]


def _study_n(settings: dict, full) -> list[int]:
    """The resolution list of a study: the full-scale list with --full, which
    an N given next to it would contradict, else N (200, 400, 800 unless
    given)."""
    if settings["full"]:
        _reject(settings, ("N",), "with --full, which sets the full-scale lists")
        return list(full)
    return _distinct(_n_list(_STUDY_N if settings["N"] is None else settings["N"]), "N")


def cmd_table1(args: argparse.Namespace) -> int:
    s = _settings(args)
    alphas = _distinct([float(a) for a in s["alpha"]], "alpha")
    n_lists = {}
    for alpha in alphas:
        if alpha not in problems.EXAMPLE_ALPHAS:
            raise ConfigError(f"alpha {alpha} is not in the catalog")
        n_lists[alpha] = sorted(_study_n(s, _FULL_N_BY_ALPHA[alpha]))
        if any(n % 2 for n in n_lists[alpha]):
            raise ConfigError("odd N places the data singularity between nodes; use even N")
    cases = [(alpha, n) for alpha in alphas for n in n_lists[alpha]]
    triples = _run_cases(_table1_case, cases, _whole(s["jobs"], "jobs"))
    reports: list[analysis.ConvergenceReport] = []
    for alpha in alphas:
        for k, scheme_name in enumerate(TABLE1_SCHEMES):
            results = [(n, triples[alpha, n][k]) for n in n_lists[alpha]]
            rep = analysis.ConvergenceReport(
                problem=f"E_{alpha}", scheme=scheme_name, alpha=alpha, results=results
            )
            rep.fit()
            rep.attach_theory()
            reports.append(rep)
    text = "\n".join(_echo_header({"alphas": alphas, "command": "table1"}, s["format"]))
    text += "\n" + analysis.build_report(reports, s["format"])
    _emit(text, s["out"])
    return _study_exit(t for pair in triples.values() for t in pair)


# ---------------------------------------------------------------------------
# graded-mesh convergence study


def _table2_case(phi_name: str, n: int, factor: float) -> tuple[analysis.ErrorTriple, float]:
    problem = problems.make_smooth_nonuniform_problem()
    axis = build_graded_axis(NODE_DISTRIBUTIONS[phi_name], n, problem.extents[0], problem.origin[0])
    m = schemes.step_count(problem, axis, SchemeKind.COMPACT_1D, factor)
    [(_, triple)] = analysis.run_errors(problem, [SchemeKind.COMPACT_1D], axis, m)
    return triple, m / n


def cmd_table2(args: argparse.Namespace) -> int:
    s = _settings(args)
    phis = _distinct(list(s["phi"]), "phi")
    n_list = sorted(_study_n(s, range(50, 1001, 50)))
    factor = float(s["cfl_factor"])
    for phi_name in phis:
        if phi_name not in NODE_DISTRIBUTIONS:
            raise ConfigError(f"unknown node distribution {phi_name!r}")
    cases = [(phi, n, factor) for phi in phis for n in n_list]
    outcomes = _run_cases(_table2_case, cases, _whole(s["jobs"], "jobs"))
    reports: list[analysis.ConvergenceReport] = []
    for phi_name in phis:
        results = [(n, outcomes[phi_name, n, factor][0]) for n in n_list]
        n_big = n_list[-1]
        stats = mesh_stats(build_graded_axis(NODE_DISTRIBUTIONS[phi_name], n_big, 1.0, -0.5))
        rep = analysis.ConvergenceReport(
            problem=phi_name, scheme="nonuniform-compact", alpha=None, results=results
        )
        # coarse resolutions are too rough for the strongly graded layouts
        drop = 200 if (s["full"] and phi_name in ("phi2", "phi6")) else None
        rep.fit(drop_below=drop)
        rep.extras = {
            "h_ratio": stats.ratio,
            "rho_min": stats.rho_min,
            "rho_max": stats.rho_max,
            "M_over_N": outcomes[phi_name, n_big, factor][1],
        }
        reports.append(rep)
    text = "\n".join(_echo_header({"phis": phis, "command": "table2"}, s["format"]))
    text += "\n" + analysis.build_report(reports, s["format"])
    _emit(text, s["out"])
    return _study_exit(triple for triple, _ in outcomes.values())


# ---------------------------------------------------------------------------
# stability report


def cmd_stability(args: argparse.Namespace) -> int:
    s = _settings(args)
    kind = _scheme_kind(s["scheme"])
    # the meshes: N (default 800) and axis, or else a list of axes
    if s["axes"]:
        _reject(s, ("N", "axis"), "next to axes")
        meshes = [_axis_from_config(entry) for entry in s["axes"]]
    else:
        n = 800 if s["N"] is None else s["N"]
        meshes = [_axis_from_config({"N": n, **(s["axis"] or {})})]
    # speeds and horizon: the problem's (default smooth1d) on one axis, else
    # the config's (default 1 each)
    if len(meshes) == 1:
        _reject(s, ("speeds", "T"), "on one axis, where the problem sets them")
        problem = _problem_from_config(s["problem"] or "smooth1d")
        speeds, horizon = problem.speeds, problem.horizon
    else:
        _reject(s, ("problem",), "on two or more axes")
        speeds = _speeds(s["speeds"], len(meshes))
        horizon = 1.0 if s["T"] is None else float(s["T"])
    h_min = min(mesh_stats(m).h_min for m in meshes)
    if s["M"] == "auto":
        m = select_time_step_count(h_min, max(speeds), horizon, _cfl_factor(s))
    else:
        _reject(s, ("cfl_factor",), "with an explicit M")
        m = _whole(s["M"], "M")
    h_t = build_time_mesh(m, horizon).h_t
    pair = schemes.operator_pair(kind, len(meshes))
    if pair is None:
        raise ConfigError(f"no step condition is attached to scheme {s['scheme']!r}")
    eps0 = math.sqrt(0.5)
    report = stability.check_cfl(pair, meshes, speeds, h_t, eps0)
    lines = _echo_header({"scheme": s["scheme"], "M": m, "pair": pair}, "csv")
    lines.append(f"value: {report.value:.6f}")
    lines.append(f"threshold: {report.threshold:.6f}")
    lines.append(f"margin: {report.margin:.6f}")
    lines.append(f"C0: {report.c0:.6f}")
    lines.append(f"alpha2_sharp: {report.alpha2_sharp:.6E}")
    lines.append(f"passed: {report.passed}")
    if report.marginal:
        lines.append("warning: step condition marginally violated; runs are "
                     "routinely stable in this band")
    if s["certify"]:
        rng = np.random.default_rng(s["seed"])
        lines.extend(_certify_random_instance(kind, report.c0, meshes, speeds, rng))
    _emit("\n".join(lines) + "\n", s["out"])
    return EXIT_OK


def _speeds(raw, n_axes: int) -> tuple[float, ...]:
    """The wave speeds of `stability` on two or more axes: one positive,
    finite number per axis (1 each unless given)."""
    if raw is None:
        return (1.0,) * n_axes
    if not isinstance(raw, (list, tuple)) or len(raw) != n_axes:
        raise ConfigError(f"speeds {raw!r} must give one speed per axis, {n_axes} in all")
    for a in raw:
        if isinstance(a, bool) or not isinstance(a, (int, float)) or not 0 < a < math.inf:
            raise ConfigError(f"speed {a!r} must be a positive, finite number")
    return tuple(float(a) for a in raw)


def _certify_random_instance(kind, c0, meshes, speeds, rng) -> list[str]:
    shape = tuple(m.nodes.size for m in meshes)
    interior = tuple(s - 2 for s in shape)
    eps0 = math.sqrt(0.5)
    bound = c0 * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
    h_t = 0.9 * math.sqrt((1.0 - eps0**2) / bound)
    m_steps = 8
    u1n = rng.standard_normal(interior)
    forcing = [rng.standard_normal(interior) for _ in range(m_steps)]
    full0 = np.zeros(shape)
    full0[tuple(slice(1, -1) for _ in shape)] = rng.standard_normal(interior)

    problem = problems.ProblemSpec(
        name="random",
        speeds=tuple(speeds),
        origin=tuple(m.nodes[0] for m in meshes),
        extents=tuple(m.extent for m in meshes),
        horizon=m_steps * h_t,
        u0=lambda *xs: np.zeros_like(xs[0]),
    )
    tmesh = build_time_mesh(m_steps, m_steps * h_t)
    scheme = schemes.Scheme(problem, SchemeConfig(kind=kind), meshes, tmesh)
    traj = scheme.march_data(full0, u1n, forcing)
    certs = stability.verify_energy_bound(scheme, traj, u1n, forcing, eps0)
    return [
        f"certificate_{which}: lhs={certs[which].lhs:.6E} rhs={certs[which].rhs:.6E} "
        f"satisfied={certs[which].satisfied}"
        for which in ("strong", "weak")
    ]


# ---------------------------------------------------------------------------
# self test


def cmd_selftest(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool]] = []
    rng = np.random.default_rng(args.seed)

    from .operators import pair_appliers, step_factor
    from .solvers import SplittingHandle

    meshes = [build_uniform_axis(6, 1.0), build_uniform_axis(5, 0.8)]
    h_t = 0.05
    values = np.zeros((7, 6))
    values[1:-1, 1:-1] = rng.standard_normal((5, 4))
    speeds = (1.0, 1.3)
    mass, stiffness = pair_appliers("prod_residual_stiffprod", meshes, speeds, h_t)
    handle = SplittingHandle([step_factor(m, h_t, speeds[i], i) for i, m in enumerate(meshes)])
    lhs = handle.apply(values)
    rhs = mass(values) + h_t**2 / 12.0 * stiffness(values)
    checks.append(("splitting identity", float(np.max(np.abs(lhs - rhs))) < 1e-13))

    problem = problems.make_example(1.5)
    axis = build_uniform_axis(20, problem.extents[0], problem.origin[0])
    [(_, triple)] = analysis.run_errors(problem, [SchemeKind.EXPLICIT_CHARACTERISTIC], axis, 10)
    checks.append(("characteristic-mesh exactness", triple.Ch < 1e-12))

    ok = all(flag for _, flag in checks)
    for name, flag in checks:
        print(f"{'PASS' if flag else 'FAIL'}: {name}")
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compactwave",
        description="Compact 4th-order finite-difference wave-equation solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes the flags it reads; a flag left at None falls
    # back to the config file, then to COMMAND_DEFAULTS.  "N list" is the
    # --N of the two studies.
    flags = {
        "config": dict(help="YAML configuration (flags override it)"),
        "problem": dict(help="catalog problem name"),
        "scheme": dict(help="scheme name"),
        "N": dict(type=int, help="intervals"),
        "N list": dict(dest="N", type=_n_list, help="resolution list, e.g. '200,400,800'"),
        "M": dict(help="time steps or 'auto'"),
        "cfl-factor": dict(dest="cfl_factor", type=float),
        "format": dict(choices=_FORMATS),
        "out": dict(help="output path (default stdout)"),
        "jobs": dict(type=int, help="worker processes"),
        "seed": dict(type=int, default=0),
        "alpha": dict(nargs="+", type=float),
        "phi": dict(nargs="+"),
        "full": dict(action="store_true", help="full-scale N lists (roundoff-limited at the top)"),
        "certify": dict(action="store_true"),
    }
    commands = (
        ("run", cmd_run, "single simulation with error report",
         ("config", "problem", "scheme", "N", "M", "cfl-factor", "format", "out")),
        ("table1", cmd_table1, "uniform-mesh convergence study",
         ("config", "alpha", "N list", "full", "jobs", "format", "out")),
        ("table2", cmd_table2, "graded-mesh convergence study",
         ("config", "phi", "N list", "full", "cfl-factor", "jobs", "format", "out")),
        ("stability", cmd_stability, "time-step condition report",
         ("config", "problem", "scheme", "N", "M", "cfl-factor", "certify", "seed", "out")),
        ("selftest", cmd_selftest, "fast internal consistency checks", ("seed",)),
    )
    for name, func, help_text, names in commands:
        p = sub.add_parser(name, help=help_text)
        for flag in names:
            p.add_argument("--" + flag.split()[0], **flags[flag])
        p.set_defaults(func=func)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MeshError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularSystemError as exc:
        print(f"singular system: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
