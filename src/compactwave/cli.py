"""Command-line front end: single runs, convergence sweeps reproducing the
uniform- and graded-mesh studies, stability reports, and a self test.

Exit codes: 0 success, 2 configuration error, 3 numerical blow-up,
4 singular solver.
"""

from __future__ import annotations

import argparse
import functools
import locale  # argparse's gettext imports it on the first parser build
import math
import sys
from typing import Sequence

import numpy as np

from . import analysis, problems, schemes, stability
from .mesh import (
    NODE_DISTRIBUTIONS,
    MeshError,
    build_axis,
    build_time_mesh,
    build_uniform_axis,
    mesh_stats,
    select_time_step_count,
)
from .schemes import SchemeKind
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


class ConfigError(ValueError):
    """A setting that cannot be used (exit code 2)."""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    import yaml  # only a config file needs it

    # libyaml's parser when PyYAML was built with it; same documents, same values
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=loader) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a mapping")
    return data


def _whole(value, key: str, low: int | None = None) -> int:
    """A count, as a whole number or its digits; a fractional or boolean
    value, and one below `low`, is a ConfigError naming the key."""
    try:
        n = int(value)
        whole = not isinstance(value, bool) and (isinstance(value, str) or n == value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ConfigError(f"{key} must be a whole number, not {value!r}")
    if low is not None and n < low:
        raise ConfigError(f"{key} must be at least {low}, not {n}")
    return n


def _number(value, key: str, positive: bool = True) -> float:
    """A finite number, or its digits, positive unless told otherwise."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if isinstance(value, bool) or not (0.0 if positive else -math.inf) < x < math.inf:
        what = "positive, finite" if positive else "finite"
        raise ConfigError(f"{key} {value!r} must be a {what} number")
    return x


def _choice(value, key: str, choices: tuple, read=None):
    """One of `choices`, as given or as `read` gives it."""
    if read is not None:
        value = read(value, key)
    if value not in choices:
        raise ConfigError(f"unknown {key} {value!r}; choose from {', '.join(map(str, choices))}")
    return value


def _list(value, key: str, read, item: str | None = None, distinct: bool = False) -> list:
    """A non-empty list of values of `read`, each named `item` or else by its
    index: a list, or a string of entries split at commas and spaces."""
    entries = value.replace(",", " ").split() if isinstance(value, str) else value
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ConfigError(f"{key} must be a non-empty list, not {value!r}")
    values = [read(entry, item or f"{key}[{k}]") for k, entry in enumerate(entries)]
    for k, entry in enumerate(values if distinct else ()):
        if entry in values[:k]:
            raise ConfigError(f"{key} {entry!r} is given twice")
    return values


def _fields(value, key: str, readers: dict) -> dict:
    """A mapping of the fields `readers` names, each read by its reader."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, not {value!r}")
    unread = ", ".join(repr(field) for field in value if field not in readers)
    if unread:
        raise ConfigError(f"unread {key} key {unread}")
    return {field: readers[field](entry, f"{key}.{field}")
            for field, entry in value.items() if entry is not None}


_PHI = functools.partial(_choice, choices=tuple(NODE_DISTRIBUTIONS))
_ALPHA = functools.partial(_choice, choices=problems.EXAMPLE_ALPHAS, read=_number)
# an entry of axes: N intervals on [-X/2, X/2], graded by phi when given
_AXIS = {"N": _whole, "X": _number, "phi": _PHI}


def _problem(value, key: str) -> problems.ProblemSpec:
    """A catalog problem by its name, as reports print it."""
    return problems.catalog(_choice(value, key, problems.CATALOG_NAMES))


def _axis_from_config(entry: dict):
    """The mesh of a read axes entry, X 1 unless given, centred on 0."""
    extent = entry.get("X", 1.0)
    return build_axis(entry.get("N", 0), extent, -extent / 2.0, entry.get("phi"))


def _echo_header(config: dict, fmt: str) -> list[str]:
    prefix = "#" if fmt == "csv" else ">"
    return [f"{prefix} {key}: {config[key]}" for key in sorted(config)]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# The config keys of each command, with their defaults.  A None entry is
# resolved where it is read (stability's by dimension, cfl_factor when M is
# auto, the studies' N without --full), so a given setting that goes unread
# can be told from a default.
_SQRT2 = math.sqrt(2.0)
_STUDY_N = (200, 400, 800)
_FORMATS = ("csv", "md")
COMMAND_DEFAULTS = {
    "run": {"problem": "smooth1d", "scheme": "compact1d", "N": 100, "phi": None, "M": "auto",
            "cfl_factor": None, "format": "csv"},
    "table1": {"alpha": (1.5, 2.5, 3.5), "N": None, "jobs": 1, "format": "csv"},
    "table2": {"phi": tuple(NODE_DISTRIBUTIONS), "N": None, "cfl_factor": _SQRT2,
               "jobs": 1, "format": "csv"},
    "stability": {"problem": None, "scheme": "compact1d", "N": None, "phi": None, "axes": None,
                  "speeds": None, "T": None, "M": "auto", "cfl_factor": None},
}
# The reader of each setting, config key or flag: it returns the typed value
# or raises a ConfigError naming the key.  The studies read N and phi as lists.
_READERS = {
    "problem": _problem,
    # names, not kinds: a report echoes the name given
    "scheme": functools.partial(_choice, choices=tuple(kind.value for kind in SchemeKind)),
    "N": _whole,
    "phi": _PHI,
    "axes": functools.partial(_list, read=functools.partial(_fields, readers=_AXIS)),
    "speeds": functools.partial(_list, read=_number, item="speed"),
    "T": _number,
    "M": lambda value, key: value if value == "auto" else _whole(value, key),
    "cfl_factor": _number,
    "format": functools.partial(_choice, choices=_FORMATS),
    "alpha": functools.partial(_list, read=_ALPHA, distinct=True),
    "jobs": functools.partial(_whole, low=1),
    "seed": functools.partial(_whole, low=0),
}
_STUDY_READERS = {**_READERS, "N": functools.partial(_list, read=_whole, distinct=True),
                  "phi": functools.partial(_list, read=_PHI, distinct=True)}


def _settings(args: argparse.Namespace) -> dict:
    """The command's settings: its defaults, then the config file, then the
    flags given (a null config value and a flag left at None are not given),
    each read once by its reader.  A config key the command does not read is
    a ConfigError."""
    defaults = COMMAND_DEFAULTS.get(args.command, {})
    config = _load_config(getattr(args, "config", None))
    unknown = ", ".join(repr(key) for key in config if key not in defaults)
    if unknown:
        known = ", ".join(defaults)
        raise ConfigError(f"unknown config key {unknown}; {args.command} reads {known}")
    flags = {key: value for key, value in vars(args).items()
             if value is not None or key not in defaults}
    given = {key: value for key, value in config.items() if value is not None}
    readers = _STUDY_READERS if args.command in ("table1", "table2") else _READERS
    return {key: value if value is None or key not in readers else readers[key](value, key)
            for key, value in {**defaults, **given, **flags}.items()}


def _reject(settings: dict, keys: Sequence[str], where: str) -> None:
    """ConfigError naming the keys among `keys` that are set but unread."""
    given = ", ".join(repr(key) for key in keys if settings[key] is not None)
    if given:
        raise ConfigError(f"unread setting {given} {where}")


# ---------------------------------------------------------------------------
# single run


def cmd_run(args: argparse.Namespace) -> int:
    s = _settings(args)
    problem, kind = s["problem"], s["scheme"]
    if kind == SchemeKind.EXPLICIT_CHARACTERISTIC:
        _reject(s, ("phi",), "with the characteristic scheme, which runs on a uniform axis")
    axis = problem.axis(s["N"], s["phi"])
    if s["M"] != "auto":
        _reject(s, ("cfl_factor",), "with an explicit M")
        m = s["M"]
        # steps of h/a past the horizon leave the problem's data
        if kind == SchemeKind.EXPLICIT_CHARACTERISTIC:
            limit = schemes.step_count(problem, axis, kind)
            if m > limit:
                raise ConfigError(f"M = {m} steps of h/a end past the horizon "
                                  f"T = {problem.horizon:g} of {problem.name}; at most M = {limit}")
    else:
        if kind == SchemeKind.EXPLICIT_CHARACTERISTIC:
            _reject(s, ("cfl_factor",), "with the characteristic scheme, whose h_t is h/a")
        m = schemes.step_count(problem, axis, kind, s["cfl_factor"] or _SQRT2)
    [(result, triple)] = analysis.run_errors(problem, [kind], axis, m)

    header = {"problem": problem.name, "scheme": kind, "N": axis.n_intervals, "M": m}
    if s["phi"] is not None:
        header["phi"] = s["phi"]
    lines = _echo_header(header, s["format"]) + [
        f"stable: {result.stable}",
        f"errors: L2h={triple.L2h:.6E} Ch={triple.Ch:.6E} Eh={triple.Eh:.6E}",
    ]
    _emit("\n".join(lines) + "\n", s["out"])
    return EXIT_BLOWUP if result.blew_up else EXIT_OK


# ---------------------------------------------------------------------------
# convergence studies: table1 (uniform meshes) and table2 (graded meshes)


def _study_n(settings: dict, full) -> list[int]:
    """The resolution list of a study: the full-scale list with --full, which
    an N given next to it would contradict, else N (200, 400, 800 unless
    given)."""
    if settings["full"]:
        _reject(settings, ("N",), "with --full, which sets the full-scale lists")
        return list(full)
    return list(_STUDY_N) if settings["N"] is None else settings["N"]


def _write_study(s: dict, header: dict, reports, starred=()) -> int:
    """Fit the reports (those named in `starred` from N = 200 on), write them;
    EXIT_BLOWUP when any run blew up (its norms are infinite)."""
    for rep in reports:
        rep.fit(drop_below=200 if rep.problem in starred else None)
    text = "\n".join(_echo_header(header, s["format"]))
    _emit(text + "\n" + analysis.build_report(reports, s["format"]), s["out"])
    triples = (triple for rep in reports for _, triple in rep.results)
    return EXIT_BLOWUP if any(math.isinf(triple.Ch) for triple in triples) else EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    """The compact and the second-order scheme on each E_alpha's uniform axis."""
    s = _settings(args)
    alphas = s["alpha"]
    groups = [(f"E_{alpha}", "uniform", _study_n(s, _FULL_N_BY_ALPHA[alpha])) for alpha in alphas]
    if any(n % 2 for _, _, n_list in groups for n in n_list):
        raise ConfigError("odd N places the data singularity between nodes; use even N")
    reports = analysis.study(groups, ("compact1d", "second-order"), jobs=s["jobs"])
    return _write_study(s, {"alphas": alphas, "command": "table1"}, reports)


def cmd_table2(args: argparse.Namespace) -> int:
    """The graded-mesh compact scheme on smooth1d, one layout per phi."""
    s = _settings(args)
    phis, n_list = s["phi"], _study_n(s, range(50, 1001, 50))
    groups = [("smooth1d", phi, n_list) for phi in phis]
    reports = analysis.study(groups, ("compact1d",), s["cfl_factor"], s["jobs"])
    for rep in reports:  # the graded-mesh compact scheme's name in the paper's Table 2
        rep.scheme = "nonuniform-compact"
    # coarse resolutions are too rough for the strongly graded layouts
    starred = ("phi2", "phi6") if s["full"] else ()
    return _write_study(s, {"phis": phis, "command": "table2"}, reports, starred)


# ---------------------------------------------------------------------------
# stability report


def cmd_stability(args: argparse.Namespace) -> int:
    s = _settings(args)
    kind, axes = s["scheme"], s["axes"]
    # one layout per axis count, with the step rule of M: auto.  One axis is
    # N (default 800) intervals on the problem's interval (default smooth1d),
    # graded by phi when given, with the problem's speeds and horizon and
    # run's M; two or more are axes, with speeds and T (default 1 each) and
    # the 1D rule at the smallest step
    if axes is None:
        _reject(s, ("speeds", "T"), "on one axis, where the problem sets them")
        problem = s["problem"] or problems.make_smooth_nonuniform_problem()
        meshes = [problem.axis(800 if s["N"] is None else s["N"], s["phi"])]
        speeds, horizon = problem.speeds, problem.horizon
        rule = functools.partial(schemes.step_count, problem, meshes[0], kind)
    else:
        _reject(s, ("problem", "N", "phi"), "next to axes")
        if len(axes) < 2:
            raise ConfigError("axes must hold two or more axes; one axis is N and phi "
                              "on the problem's interval")
        speeds = s["speeds"] or [1.0] * len(axes)
        if len(speeds) != len(axes):
            raise ConfigError(f"speeds {speeds!r} must give one speed per axis, "
                              f"{len(axes)} in all")
        meshes, horizon = [_axis_from_config(entry) for entry in axes], s["T"] or 1.0
        h_min = min(mesh_stats(mesh).h_min for mesh in meshes)
        rule = functools.partial(select_time_step_count, h_min, max(speeds), horizon)
    if s["M"] == "auto":
        m = rule(s["cfl_factor"] or _SQRT2)
    else:
        _reject(s, ("cfl_factor",), "with an explicit M")
        m = s["M"]
    h_t = build_time_mesh(m, horizon).h_t
    pair = schemes.operator_pair(kind, len(meshes))
    if pair is None:
        raise ConfigError(f"no step condition is attached to scheme {kind!r}")
    eps0 = math.sqrt(0.5)
    try:
        report = stability.check_cfl(pair, meshes, speeds, h_t, eps0)
    except MeshError as exc:  # the sine basis: uniform axes only
        raise ConfigError(f"{exc} such as a phi other than phi0 lays out") from None
    lines = _echo_header({"scheme": kind, "M": m, "pair": pair}, "csv")
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
        h_cert = 0.9 * stability.largest_step(pair, meshes, speeds, eps0)
        rng = np.random.default_rng(s["seed"])
        certs = stability.verify_energy_bound(
            *stability.random_run(kind, meshes, speeds, h_cert, 8, rng), eps0)
        for which in ("strong", "weak"):
            lines.append(f"certificate_{which}: lhs={certs[which].lhs:.6E} "
                         f"rhs={certs[which].rhs:.6E} satisfied={certs[which].satisfied}")
    _emit("\n".join(lines) + "\n", s["out"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# self test


def cmd_selftest(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool]] = []
    rng = np.random.default_rng(_settings(args)["seed"])

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

    problem, kind = problems.make_example(1.5), SchemeKind.EXPLICIT_CHARACTERISTIC
    axis = problem.axis(20)
    # steps of h/a up to the horizon T = 1
    m = schemes.step_count(problem, axis, kind)
    [(_, triple)] = analysis.run_errors(problem, [kind], axis, m)
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
        "N": dict(help="intervals"),
        "N list": dict(dest="N", help="resolution list, e.g. '200,400,800'"),
        "M": dict(help="time steps or 'auto'"),
        "cfl-factor": dict(dest="cfl_factor"),
        "format": dict(choices=_FORMATS),
        "out": dict(help="output path (default stdout)"),
        "jobs": dict(help="worker processes"),
        "seed": dict(default=0),
        "alpha": dict(nargs="+"),
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
