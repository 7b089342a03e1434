"""The benchmark workloads: their inputs, their pass bodies and the
checks of their outputs against the frozen references in `reference/`.

`plan` runs before timing and turns (workload, size, seed) into a job: the
exact CLI argument lists or library cases one pass executes, plus any
generated input files.  `execute` runs a job inside the pass interpreter.
`check` compares a pass's outputs with the references and returns one
verdict per run, so a miss counts against `pass_ratio` and is never skipped.

Only the standard library is imported at module level: the pass interpreter
imports this module after it has timed the import of compactwave.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import traceback
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("uniform-study", "graded-study", "nd-large", "nd-small", "characteristic")
SIZES = ("full", "smoke")

# Runs that fail at the seed because of a known program defect: they count
# as failed runs but do not make a pass incorrect; a fix may make them pass.
KNOWN_DEFECTS = {
    ("characteristic", "E_0.5"): "Dirac-atom cell averages get zero weight on "
    "window endpoints; Ch = 0.697 at N = 200 (ROADMAP item 2)",
}

# roundoff floor of the 4th-order runs (the project README's "1e-10 floor")
ABS_TOL = 1e-10
EXACT_TOL = 1e-12
EPS0 = math.sqrt(0.5)

TABLE1 = {
    "full": {"alphas": ("1.5", "2.5", "3.5"), "N": (200, 400, 800)},
    "smoke": {"alphas": ("1.5", "2.5"), "N": (40, 80)},
}
TABLE2 = {
    "full": {"phis": ("phi0", "phi1", "phi2", "phi3", "phi4", "phi5", "phi6"), "N": (200, 400, 800)},
    "smoke": {"phis": ("phi0", "phi3"), "N": (40, 80)},
}
# nD sine mode: speeds, extents and mode numbers cut to the dimension
ND_SPEEDS = (1.0, 1.3, 0.8)
ND_EXTENTS = (1.0, 0.8, 1.2)
ND_MODES = (2, 1, 3)
ND_LARGE = {
    # (scheme, dimension, intervals per axis, steps)
    "full": [
        ("compactnd", 2, 512, 20),
        ("compact2d", 2, 512, 20),
        ("splitting", 2, 512, 20),
        ("compactnd", 3, 64, 10),
        ("compact3d", 3, 64, 10),
        ("splitting", 3, 64, 10),
    ],
    "smoke": [
        ("compactnd", 2, 16, 3),
        ("compact2d", 2, 16, 3),
        ("splitting", 2, 16, 3),
        ("compactnd", 3, 8, 2),
        ("compact3d", 3, 8, 2),
        ("splitting", 3, 8, 2),
    ],
}
ND_SMALL = {"full": 300, "smoke": 12}
ND_SMALL_POOL = 600
ND_SMALL_POOL_SEED = 20201128
# kinds and dimensions of the certificate mix (acceptance criterion 9)
ND_SMALL_MIX = (
    ("compact2d", (2,)),
    ("compact3d", (3,)),
    ("compactnd", (2, 3)),
    ("splitting", (2, 3)),
)
CHAR_PROBLEMS = ("E_0.5", "E_1.5", "E_2.5", "E_3.5", "E_4.5", "E_5.5")
# M = floor(N a T / X) with a = 1/sqrt(5), T = X = 1: the last level inside
# the catalog horizon (`--M auto` would take M = N and run past it)
CHARACTERISTIC = {"full": (200, 89), "smoke": (20, 8)}


# ---------------------------------------------------------------------------
# planning (before timing)


def plan(workload: str, size: str, seed: int, inputs: Path) -> dict:
    """Job description of one pass; writes generated inputs under `inputs`."""
    if workload == "uniform-study":
        spec = TABLE1[size]
        argv = ["table1", "--alpha", *spec["alphas"], "--N", _n_list(spec["N"])]
        runs = [
            f"E_{alpha}/{scheme}/N={n}"
            for alpha in spec["alphas"]
            for scheme in ("compact1d", "second-order")
            for n in spec["N"]
        ]
        return cli_job(workload, size, [argv], runs, constructions=len(runs))
    if workload == "graded-study":
        spec = TABLE2[size]
        argv = ["table2", "--phi", *spec["phis"], "--N", _n_list(spec["N"])]
        runs = [f"{phi}/N={n}" for phi in spec["phis"] for n in spec["N"]]
        return cli_job(workload, size, [argv], runs, constructions=len(runs))
    if workload == "nd-large":
        cases = ND_LARGE[size]
        return {
            "workload": workload,
            "size": size,
            "import": "compactwave",
            "cases": cases,
            "runs": [f"{kind}/{dims}D/N={n}" for kind, dims, n, _ in cases],
            "constructions": len(cases),
        }
    if workload == "nd-small":
        pool = load_pool()
        picks = random.Random(seed).sample(range(len(pool)), ND_SMALL[size])
        inputs.mkdir(parents=True, exist_ok=True)
        invocations, runs = [], []
        for k, index in enumerate(picks):
            entry = pool[index]
            path = inputs / f"cert-{k:03d}.yaml"
            path.write_text(config_text(entry["config"]))
            invocations.append(
                ["stability", "--config", str(path), "--certify", "--seed", str(entry["seed"])]
            )
            runs.append(f"pool[{index}]")
        job = cli_job(workload, size, invocations, runs, constructions=len(runs))
        job["picks"] = picks
        return job
    if workload == "characteristic":
        n, m = CHARACTERISTIC[size]
        invocations = [
            ["run", "--scheme", "characteristic", "--problem", p, "--N", str(n), "--M", str(m)]
            for p in CHAR_PROBLEMS
        ]
        return cli_job(workload, size, invocations, list(CHAR_PROBLEMS), constructions=0)
    raise KeyError(f"unknown workload {workload!r}")


def cli_job(workload, size, invocations, runs, constructions) -> dict:
    return {
        "workload": workload,
        "size": size,
        "import": "compactwave.cli",
        "invocations": invocations,
        "runs": runs,
        "constructions": constructions,
    }


def _n_list(ns) -> str:
    return ",".join(str(n) for n in ns)


def config_text(config: dict) -> str:
    # flow style JSON is valid YAML; the CLI parses it with yaml.safe_load
    return json.dumps(config) + "\n"


def make_pool() -> list[dict]:
    """The fixed pool of certificate configurations the seed samples from."""
    rng = random.Random(ND_SMALL_POOL_SEED)
    pool = []
    for i in range(ND_SMALL_POOL):
        kind, dims_cycle = ND_SMALL_MIX[i % len(ND_SMALL_MIX)]
        dims = dims_cycle[(i // len(ND_SMALL_MIX)) % len(dims_cycle)]
        axes = [
            {"N": rng.randint(3, 6), "X": round(rng.uniform(0.5, 2.0), 6)} for _ in range(dims)
        ]
        speeds = [round(rng.uniform(0.3, 1.8), 6) for _ in range(dims)]
        config = {"scheme": kind, "axes": axes, "speeds": speeds}
        pool.append({"config": config, "seed": rng.randrange(2**31)})
    return pool


def load_pool() -> list[dict]:
    return json.loads((REFERENCE / "nd-small.json").read_text())["pool"]


# ---------------------------------------------------------------------------
# execution (inside the pass interpreter)


def execute(job: dict) -> dict:
    """Run the job's invocations or cases; returns raw outputs for `check`."""
    if "invocations" in job:
        from compactwave import cli

        return {"cli": [_invoke(cli, argv) for argv in job["invocations"]]}
    return {"nd": [_nd_guarded(case) for case in job["cases"]]}


def _invoke(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed run, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def _nd_guarded(case) -> dict:
    try:
        return _nd_case(case)
    except Exception:  # a crash is a failed run, not a failed benchmark
        return {"error": traceback.format_exc()}


def _nd_case(case) -> dict:
    from compactwave import mesh, problems, schemes, solvers

    kind, dims, n, steps = case
    speeds, extents = ND_SPEEDS[:dims], ND_EXTENTS[:dims]
    problem = problems.make_sine_mode_problem(speeds, extents, ND_MODES[:dims])
    meshes = [mesh.build_uniform_axis(n, x) for x in extents]
    config = schemes.SchemeConfig(kind=schemes.SchemeKind(kind))
    pair = schemes.operator_pair(config.kind, dims)
    bound = solvers.operator_pair_c0(pair) * sum(a**2 / m.h**2 for a, m in zip(speeds, meshes))
    h_t = 0.9 * math.sqrt((1.0 - EPS0**2) / bound)
    tmesh = mesh.build_time_mesh(steps, steps * h_t)
    result = schemes.run(problem, config, meshes, tmesh)
    return {
        "values": result.v_last,
        "nodes": [m.nodes for m in meshes],
        "t": float(tmesh.nodes[-1]),
        "blew_up": bool(result.blew_up),
    }


def finish(job: dict, outputs: dict) -> dict:
    """Reduce raw outputs to JSON (after timing): nD errors against an
    independent evaluation of the sine mode."""
    if "nd" not in outputs:
        return outputs
    import numpy as np

    errors = []
    for (_, dims, _, _), res in zip(job["cases"], outputs["nd"]):
        if "error" in res:
            errors.append({"max_error": None, "blew_up": False, "error": _last_line(res["error"])})
            continue
        speeds, extents, modes = ND_SPEEDS[:dims], ND_EXTENTS[:dims], ND_MODES[:dims]
        freqs = [math.pi * p / x for p, x in zip(modes, extents)]
        omega = math.sqrt(sum((a * w) ** 2 for a, w in zip(speeds, freqs)))
        grids = np.meshgrid(*res["nodes"], indexing="ij")
        exact = math.cos(omega * res["t"]) * np.prod([np.sin(w * g) for w, g in zip(freqs, grids)], axis=0)
        err = float(np.max(np.abs(exact - res["values"])))
        errors.append({"max_error": err if math.isfinite(err) else None, "blew_up": res["blew_up"]})
    return {"nd": errors}


# ---------------------------------------------------------------------------
# checks (after the pass, in the parent)


def reference(workload: str, size: str):
    if workload in ("uniform-study", "graded-study"):
        stem = "table1" if workload == "uniform-study" else "table2"
        suffix = "" if size == "full" else ".smoke"
        return (REFERENCE / f"{stem}{suffix}.csv").read_text()
    data = json.loads((REFERENCE / f"{workload}.json").read_text())
    return data if workload == "nd-small" else data[size]


def check(job: dict, outputs: dict) -> list[tuple[str, bool, str]]:
    """One (run, passed, reason) per run the job attempted."""
    workload, size = job["workload"], job["size"]
    ref = reference(workload, size)
    if workload == "uniform-study":
        return _check_table(job, outputs["cli"][0], ref, _table1_cells)
    if workload == "graded-study":
        return _check_table(job, outputs["cli"][0], ref, _table2_cells)
    if workload == "nd-large":
        if ref["runs"] != job["runs"]:
            return [(run, False, "case list differs from the reference") for run in job["runs"]]
        return [
            _check_nd(run, res, expected)
            for run, res, expected in zip(job["runs"], outputs["nd"], ref["max_error"])
        ]
    if workload == "nd-small":
        pool = ref["pool"]
        return [
            _check_certificate(run, res, pool[index]["output"])
            for run, res, index in zip(job["runs"], outputs["cli"], job["picks"])
        ]
    if workload == "characteristic":
        return [_check_exact(run, res) for run, res in zip(job["runs"], outputs["cli"])]
    raise KeyError(workload)


def close(value: str, expected: str) -> bool:
    """Equal up to roundoff reordering: the absolute floor plus one unit in
    the last printed digit of the reference.  Non-numbers must match."""
    try:
        a, b = float(value), float(expected)
    except ValueError:
        return value == expected
    if not (math.isfinite(a) and math.isfinite(b)):
        return value == expected
    return abs(a - b) <= ABS_TOL + _last_digit(expected)


def _last_digit(text: str) -> float:
    mantissa, _, exponent = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _parse_table(text: str):
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    if not body:
        return comments, [], {}
    header, rows = body[0], {}
    for cells in body[1:]:
        row = dict(zip(header, cells))
        rows[(row.get("problem"), row.get("scheme"), row.get("norm"))] = row
    return comments, header, rows


def _table1_cells(run: str):
    problem, scheme, n = run.split("/")
    cols = ("c0", "gamma_pr", "gamma_th", "gamma_th2", f"err_{n[2:]}")
    return [((problem, scheme, norm), cols) for norm in ("L2h", "Ch", "Eh")]


def _table2_cells(run: str):
    # graded L2h/Eh weights are due to change (ROADMAP item 4): check Ch only
    phi, n = run.split("/")
    cols = ("c0", "gamma_pr", f"err_{n[2:]}", "M_over_N", "h_ratio", "rho_max", "rho_min")
    return [((phi, "nonuniform-compact", "Ch"), cols)]


def _check_table(job, res, ref_text, cells_of) -> list[tuple[str, bool, str]]:
    runs = job["runs"]
    if res["code"] != 0:
        return [(run, False, f"exit code {res['code']}: {_last_line(res['err'])}") for run in runs]
    comments, header, rows = _parse_table(res["out"])
    ref_comments, ref_header, ref_rows = _parse_table(ref_text)
    if comments != ref_comments or header != ref_header:
        return [(run, False, "report header differs from the reference") for run in runs]
    verdicts = []
    for run in runs:
        misses = []
        for key, cols in cells_of(run):
            row, ref_row = rows.get(key), ref_rows[key]
            if row is None:
                misses.append(f"{'/'.join(key)} missing")
                continue
            misses += [
                f"{'/'.join(key)} {c}={row.get(c)} (ref {ref_row[c]})"
                for c in cols
                if not close(row.get(c, ""), ref_row[c])
            ]
        verdicts.append((run, not misses, "; ".join(misses)))
    return verdicts


def _check_nd(run: str, res: dict, expected: float) -> tuple[str, bool, str]:
    err = res["max_error"]
    if "error" in res:
        return run, False, res["error"]
    if res["blew_up"] or err is None:
        return run, False, "blew up"
    ok = abs(err - expected) <= ABS_TOL + 1e-6 * abs(expected)
    return run, ok, "" if ok else f"max error {err:.6E} (ref {expected:.6E})"


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


_NUMBER = re.compile(r"[-+]?\d+\.\d+(?:[eE][-+]?\d+)?")


def _check_certificate(run: str, res: dict, expected: str) -> tuple[str, bool, str]:
    if res["code"] != 0:
        return run, False, f"exit code {res['code']}: {_last_line(res['err'])}"
    out = res["out"]
    certs = [ln for ln in out.splitlines() if ln.startswith("certificate_")]
    if len(certs) != 2 or not all(ln.endswith("satisfied=True") for ln in certs):
        return run, False, "certificate not satisfied: " + " | ".join(certs)
    if _NUMBER.sub("#", out) != _NUMBER.sub("#", expected):
        return run, False, "report text differs from the reference"
    misses = [
        f"{a} (ref {b})"
        for a, b in zip(_NUMBER.findall(out), _NUMBER.findall(expected))
        if not close(a, b)
    ]
    return run, not misses, "; ".join(misses)


_ERRORS = re.compile(r"errors: L2h=(\S+) Ch=(\S+) Eh=(\S+)")


def _check_exact(run: str, res: dict) -> tuple[str, bool, str]:
    if res["code"] != 0:
        return run, False, f"exit code {res['code']}: {_last_line(res['err'])}"
    match = _ERRORS.search(res["out"])
    if "stable: True" not in res["out"] or match is None:
        return run, False, "no stable run with an error report"
    ch = float(match.group(2))
    ok = ch <= EXACT_TOL
    return run, ok, "" if ok else f"Ch = {ch:.6E} > {EXACT_TOL:.0E}"
