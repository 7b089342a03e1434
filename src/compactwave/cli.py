"""Command-line front end: single runs, convergence sweeps reproducing the
uniform- and graded-mesh studies, stability reports, and a self test.

Exit codes: 0 success, 2 configuration error, 3 numerical blow-up,
4 singular solver.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import math
import sys
from typing import Sequence

import numpy as np
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
from .solvers import SingularSystemError, operator_pair_c0

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_SINGULAR = 4

TABLE1_ALPHAS = (1.5, 2.5, 3.5)
TABLE1_N = (200, 400, 800)
TABLE2_N = (200, 400, 800)
TABLE2_PHIS = tuple(NODE_DISTRIBUTIONS)

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


class ConfigError(ValueError):
    pass


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


def _axis_from_config(entry: dict | None, n_default: int | None):
    entry = dict(entry or {})
    n = int(entry.get("N", n_default or 0))
    extent = float(entry.get("X", 1.0))
    origin = float(entry.get("origin", -extent / 2.0))
    kind = entry.get("kind", "uniform")
    if kind == "uniform":
        return build_uniform_axis(n, extent, origin)
    if kind == "graded":
        phi_name = entry.get("phi", "phi0")
        if phi_name not in NODE_DISTRIBUTIONS:
            raise ConfigError(f"unknown node distribution {phi_name!r}")
        return build_graded_axis(NODE_DISTRIBUTIONS[phi_name], n, extent, origin)
    raise ConfigError(f"unknown axis kind {kind!r}")


def _scheme_config(name: str, options: dict | None) -> SchemeConfig:
    options = dict(options or {})
    try:
        kind = SchemeKind(name)
    except ValueError:
        raise ConfigError(
            f"unknown scheme {name!r}; choose from "
            + ", ".join(k.value for k in SchemeKind)
        ) from None
    return SchemeConfig(
        kind=kind,
        sigma=float(options.get("sigma", 0.5)),
        rhs_mode=options.get("rhs_mode", "auto"),
        u1n_mode=options.get("u1n_mode", "auto"),
        fn0_mode=options.get("fn0_mode", "auto"),
    )


def _echo_header(config: dict, fmt: str) -> list[str]:
    prefix = "#" if fmt == "csv" else ">"
    lines = []
    for key in sorted(config):
        lines.append(f"{prefix} {key}: {config[key]}")
    return lines


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_n_list(raw: str | None, default: Sequence[int]) -> list[int]:
    if raw is None:
        return list(default)
    try:
        values = [int(part) for part in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad N list {raw!r}") from exc
    if not values:
        raise ConfigError("N list must not be empty")
    return values


# ---------------------------------------------------------------------------
# single run


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    problem_entry = args.problem or config.get("problem", "smooth1d")
    scheme_name = args.scheme or config.get("scheme", "compact1d")
    problem = _problem_from_config(problem_entry)
    sconfig = _scheme_config(scheme_name, config.get("scheme_options"))
    n = args.N[0] if args.N else int(config.get("N", 100))
    axis_cfg = dict(config.get("axis") or {})
    axis_cfg.setdefault("N", n)
    axis_cfg.setdefault("X", problem.extents[0])
    axis_cfg.setdefault("origin", problem.origin[0])
    characteristic = sconfig.kind == SchemeKind.EXPLICIT_CHARACTERISTIC
    given = (axis_cfg.get("kind", "uniform"), float(axis_cfg["X"]), float(axis_cfg["origin"]))
    if characteristic and given != ("uniform", problem.extents[0], problem.origin[0]):
        raise ConfigError(
            "the characteristic-mesh scheme runs on the problem's uniform axis; "
            "of the axis settings only N may be given"
        )
    axis = _axis_from_config(axis_cfg, n)
    factor = args.cfl_factor or float(config.get("cfl_factor", math.sqrt(2.0)))
    m_entry = args.M or config.get("M", "auto")
    if m_entry != "auto":
        m = int(m_entry)
    elif characteristic:
        # h_t = h/a is fixed: the last level inside the horizon, floor(a T / h)
        h = problem.extents[0] / axis.n_intervals
        m = select_time_step_count(h, problem.speeds[0], problem.horizon, 1.0)
    elif problem.t_star is not None:
        # the averaged data needs the switch-on time on the mesh: tie the
        # step to the (uniform) spatial one
        m = axis.n_intervals
    else:
        m = select_time_step_count(
            mesh_stats(axis).h_min, problem.speeds[0], problem.horizon, factor
        )

    if characteristic:
        axis_c, tmesh_c = schemes.characteristic_meshes(problem, axis.n_intervals, m)
        obs = analysis.ErrorObserver(problem.exact, axis_c, tmesh_c)
        result, _, _ = schemes.run_explicit_characteristic(
            problem, axis.n_intervals, m, observer=obs
        )
        triple = obs.result()
    else:
        tmesh = build_time_mesh(m, problem.horizon)
        obs = analysis.ErrorObserver(problem.exact, axis, tmesh) if problem.exact else None
        result = schemes.run(problem, sconfig, [axis], tmesh, observer=obs)
        triple = obs.result() if obs else None

    fmt = args.format or config.get("format", "csv")
    lines = _echo_header(
        {"problem": problem.name, "scheme": scheme_name, "N": axis.n_intervals, "M": m},
        fmt,
    )
    lines.append(f"stable: {result.stable}")
    if triple is not None:
        lines.append(
            f"errors: L2h={triple.L2h:.6E} Ch={triple.Ch:.6E} Eh={triple.Eh:.6E}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_BLOWUP if result.blew_up else EXIT_OK


# ---------------------------------------------------------------------------
# uniform-mesh convergence study


TABLE1_SCHEMES = ("compact1d", "second-order")


def _run_cases(fn, cases: list[tuple], jobs: int) -> dict:
    """{case: fn(*case)}, on one pool of `jobs` processes when jobs > 1; the
    largest N (second entry of a case) goes first, so no long case ends last."""
    order = sorted(cases, key=lambda case: -case[1])
    if jobs <= 1:
        return {case: fn(*case) for case in order}
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return dict(zip(order, pool.map(fn, *zip(*order))))


def _study_exit(triples) -> int:
    """EXIT_BLOWUP when any run of a study blew up (its norms are infinite)."""
    return EXIT_BLOWUP if any(math.isinf(t.Ch) for t in triples) else EXIT_OK


def _table1_case(alpha: float, n: int) -> list[analysis.ErrorTriple]:
    """Error triples of both schemes (TABLE1_SCHEMES order) on E_alpha at N,
    marched in lockstep against one exact evaluation per level."""
    problem = problems.make_example(alpha)
    axis = build_uniform_axis(n, problem.extents[0], problem.origin[0])
    tmesh = build_time_mesh(n, problem.horizon)  # time step equal to h
    configs = [_scheme_config(name, {"sigma": 0.5}) for name in TABLE1_SCHEMES]
    return analysis.lockstep_errors(problem, configs, axis, tmesh)


def cmd_table1(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    alphas = [float(a) for a in (args.alpha or config.get("alpha", TABLE1_ALPHAS))]
    jobs = args.jobs or int(config.get("jobs", 1))
    n_lists = {}
    for alpha in alphas:
        if alpha not in problems.EXAMPLE_COEFFICIENTS:
            raise ConfigError(f"alpha {alpha} is not in the catalog")
        n_lists[alpha] = sorted(set(_FULL_N_BY_ALPHA[alpha] if args.full else args.N or TABLE1_N))
        if any(n % 2 for n in n_lists[alpha]):
            raise ConfigError(
                "odd N places the data singularity between nodes; use even N"
            )
    cases = [(alpha, n) for alpha in alphas for n in n_lists[alpha]]
    triples = _run_cases(_table1_case, cases, jobs)
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
    fmt = args.format or config.get("format", "csv")
    text = "\n".join(_echo_header({"alphas": alphas, "command": "table1"}, fmt))
    text += "\n" + analysis.build_report(reports, fmt)
    _emit(text, args.out)
    return _study_exit(t for pair in triples.values() for t in pair)


# ---------------------------------------------------------------------------
# graded-mesh convergence study


def _table2_case(phi_name: str, n: int, factor: float) -> tuple[analysis.ErrorTriple, float]:
    problem = problems.make_smooth_nonuniform_problem()
    phi = NODE_DISTRIBUTIONS[phi_name]
    axis = build_graded_axis(phi, n, problem.extents[0], problem.origin[0])
    stats = mesh_stats(axis)
    m = select_time_step_count(stats.h_min, problem.speeds[0], problem.horizon, factor)
    tmesh = build_time_mesh(m, problem.horizon)
    obs = analysis.ErrorObserver(problem.exact, axis, tmesh)
    schemes.run_nonuniform(problem, axis, tmesh, observer=obs)
    return obs.result(), m / n


def cmd_table2(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    phis = list(args.phi or config.get("phi", TABLE2_PHIS))
    n_list = list(args.N) if args.N else list(TABLE2_N)
    if args.full:
        n_list = list(range(50, 1001, 50))
    n_list = sorted(set(n_list))
    factor = args.cfl_factor or float(config.get("cfl_factor", math.sqrt(2.0)))
    jobs = args.jobs or int(config.get("jobs", 1))
    for phi_name in phis:
        if phi_name not in NODE_DISTRIBUTIONS:
            raise ConfigError(f"unknown node distribution {phi_name!r}")
    outcomes = _run_cases(_table2_case, [(phi, n, factor) for phi in phis for n in n_list], jobs)
    reports: list[analysis.ConvergenceReport] = []
    for phi_name in phis:
        results = [(n, outcomes[phi_name, n, factor][0]) for n in n_list]
        n_big = n_list[-1]
        stats = mesh_stats(
            build_graded_axis(NODE_DISTRIBUTIONS[phi_name], n_big, 1.0, -0.5)
        )
        rep = analysis.ConvergenceReport(
            problem=phi_name, scheme="nonuniform-compact", alpha=None, results=results
        )
        # coarse resolutions are too rough for the strongly graded layouts
        drop = 200 if (args.full and phi_name in ("phi2", "phi6")) else None
        rep.fit(drop_below=drop)
        rep.extras = {
            "h_ratio": stats.ratio,
            "rho_min": stats.rho_min,
            "rho_max": stats.rho_max,
            "M_over_N": outcomes[phi_name, n_big, factor][1],
        }
        reports.append(rep)
    fmt = args.format or config.get("format", "csv")
    text = "\n".join(_echo_header({"phis": phis, "command": "table2"}, fmt))
    text += "\n" + analysis.build_report(reports, fmt)
    _emit(text, args.out)
    return _study_exit(triple for triple, _ in outcomes.values())


# ---------------------------------------------------------------------------
# stability report


def cmd_stability(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    scheme_name = args.scheme or config.get("scheme", "compact1d")
    sconfig = _scheme_config(scheme_name, config.get("scheme_options"))
    axes_cfg = config.get("axes")
    if axes_cfg:
        meshes = [_axis_from_config(a, None) for a in axes_cfg]
    else:
        n = args.N[0] if args.N else int(config.get("N", 800))
        meshes = [_axis_from_config(config.get("axis"), n)]
    problem_entry = args.problem or config.get("problem", "smooth1d")
    problem = _problem_from_config(problem_entry) if len(meshes) == 1 else None
    speeds = problem.speeds if problem else tuple(config.get("speeds", [1.0] * len(meshes)))
    horizon = problem.horizon if problem else float(config.get("T", 1.0))
    factor = args.cfl_factor or float(config.get("cfl_factor", math.sqrt(2.0)))
    h_min = min(mesh_stats(m).h_min for m in meshes)
    m_entry = args.M or config.get("M", "auto")
    if m_entry == "auto":
        m = select_time_step_count(h_min, max(speeds), horizon, factor)
    else:
        m = int(m_entry)
    h_t = horizon / m
    pair = schemes.operator_pair(sconfig.kind, len(meshes))
    if pair is None:
        raise ConfigError(f"no step condition is attached to scheme {scheme_name!r}")
    eps0 = math.sqrt(0.5)
    report = stability.check_cfl(pair, meshes, speeds, h_t, eps0)
    lines = _echo_header({"scheme": scheme_name, "M": m, "pair": pair}, "csv")
    lines.append(f"value: {report.value:.6f}")
    lines.append(f"threshold: {report.threshold:.6f}")
    lines.append(f"margin: {report.margin:.6f}")
    lines.append(f"C0: {report.c0:.6f}")
    lines.append(f"alpha2_sharp: {report.alpha2_sharp:.6E}")
    lines.append(f"passed: {report.passed}")
    if report.marginal:
        lines.append("warning: step condition marginally violated; runs are "
                     "routinely stable in this band")
    if args.certify:
        rng = np.random.default_rng(args.seed or 0)
        cert_lines = _certify_random_instance(sconfig.kind, meshes, speeds, rng)
        lines.extend(cert_lines)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _certify_random_instance(kind, meshes, speeds, rng) -> list[str]:
    from .problems import ProblemSpec

    shape = tuple(m.nodes.size for m in meshes)
    interior = tuple(s - 2 for s in shape)
    pair = schemes.operator_pair(kind, len(meshes))
    c0 = operator_pair_c0(pair)
    eps0 = math.sqrt(0.5)
    bound = c0 * sum(s**2 / m.h**2 for s, m in zip(speeds, meshes))
    h_t = 0.9 * math.sqrt((1.0 - eps0**2) / bound)
    m_steps = 8
    u1n = rng.standard_normal(interior)
    forcing = [rng.standard_normal(interior) for _ in range(m_steps)]
    full0 = np.zeros(shape)
    full0[tuple(slice(1, -1) for _ in shape)] = rng.standard_normal(interior)

    problem = ProblemSpec(
        name="random",
        speeds=tuple(speeds),
        origin=tuple(m.nodes[0] for m in meshes),
        extents=tuple(m.extent for m in meshes),
        horizon=m_steps * h_t,
        u0=lambda *xs: np.zeros_like(xs[0]),
    )
    tmesh = build_time_mesh(m_steps, m_steps * h_t)
    scheme = schemes.assemble(problem, SchemeConfig(kind=kind), meshes, tmesh)
    traj = scheme.march_data(full0, u1n, forcing)
    lines = []
    for which in ("strong", "weak"):
        cert = stability.verify_energy_bound(
            traj, meshes, speeds, h_t, pair, u1n, forcing, which, eps0
        )
        lines.append(
            f"certificate_{which}: lhs={cert.lhs:.6E} rhs={cert.rhs:.6E} "
            f"satisfied={cert.satisfied}"
        )
    return lines


# ---------------------------------------------------------------------------
# self test


def cmd_selftest(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool]] = []
    rng = np.random.default_rng(args.seed or 0)

    from .operators import GridFunction, product_average, splitting_residual, stiffness_product
    from .solvers import SplittingHandle

    meshes = [build_uniform_axis(6, 1.0), build_uniform_axis(5, 0.8)]
    h_t = 0.05
    values = np.zeros((7, 6))
    values[1:-1, 1:-1] = rng.standard_normal((5, 4))
    gf = GridFunction(meshes, values)
    speeds = (1.0, 1.3)
    from .operators import step_factor as _sf

    handle = SplittingHandle([_sf(m, h_t, speeds[i], i) for i, m in enumerate(meshes)])
    lhs = handle.apply(values)
    rhs = (
        product_average(gf).values
        + h_t**2 / 12.0 * stiffness_product(gf, speeds).values
        + splitting_residual(gf, speeds, h_t).values
    )[1:-1, 1:-1]
    checks.append(("splitting identity", float(np.max(np.abs(lhs - rhs))) < 1e-13))

    problem = problems.make_example(1.5)
    axis, tmesh = schemes.characteristic_meshes(problem, 20, 10)
    obs = analysis.ErrorObserver(problem.exact, axis, tmesh)
    schemes.run_explicit_characteristic(problem, 20, 10, observer=obs)
    checks.append(("characteristic-mesh exactness", obs.result().Ch < 1e-12))

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

    def common(p):
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--problem", help="catalog problem name")
        p.add_argument("--scheme", help="scheme name")
        p.add_argument("--N", help="resolution list, e.g. '200,400,800'")
        p.add_argument("--M", help="time steps or 'auto'")
        p.add_argument("--cfl-factor", dest="cfl_factor", type=float)
        p.add_argument("--format", choices=("csv", "md"))
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--jobs", type=int)
        p.add_argument("--seed", type=int)

    p_run = sub.add_parser("run", help="single simulation with error report")
    common(p_run)
    p_run.set_defaults(func=cmd_run, post_n=True)

    p_t1 = sub.add_parser("table1", help="uniform-mesh convergence study")
    common(p_t1)
    p_t1.add_argument("--alpha", nargs="*", type=float)
    p_t1.add_argument("--full", action="store_true", help="full-scale N lists (roundoff-limited at the top end)")
    p_t1.set_defaults(func=cmd_table1, post_n=True)

    p_t2 = sub.add_parser("table2", help="graded-mesh convergence study")
    common(p_t2)
    p_t2.add_argument("--phi", nargs="*")
    p_t2.add_argument("--full", action="store_true", help="full-scale N lists (roundoff-limited at the top end)")
    p_t2.set_defaults(func=cmd_table2, post_n=True)

    p_st = sub.add_parser("stability", help="time-step condition report")
    common(p_st)
    p_st.add_argument("--certify", action="store_true")
    p_st.set_defaults(func=cmd_stability, post_n=True)

    p_self = sub.add_parser("selftest", help="fast internal consistency checks")
    common(p_self)
    p_self.set_defaults(func=cmd_selftest, post_n=False)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "N", None) is not None and getattr(args, "post_n", False):
        try:
            args.N = _parse_n_list(args.N, [])
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
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
