"""compactwave benchmark: one workload per invocation, run from the checkout root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: uniform-study, nd-small and characteristic, which BENCHMARK.json
lists, and graded-study and nd-large, which it leaves out (see README.md).
Load is closed-loop with one client: passes run back to back, each in a
fresh interpreter with BLAS/OpenMP threads pinned to 1, until `--seconds`
have gone by.  Every pass's outputs are checked against `reference/`, and
its times are scaled to a reference host speed (`speed.py`).

`--trace 0` prints the end-to-end metrics of untraced passes.  `--trace 1`
runs one untraced pass, then traced passes, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details, spans and generated
inputs go to `.bench_run/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# every pass must end by then, so the run exits within 180 s
RUN_DEADLINE_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "updates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("per_level"):
        return "1/level"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes (smoke check)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind like Ctrl-C: subprocess.run then kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "compactwave" / "__init__.py").is_file():
        print(f"error: no compactwave sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    size = "smoke" if args.smoke else "full"
    work = RUN_DIR / f"{args.workload}-{size}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = workloads.plan(args.workload, size, args.seed, work / "inputs")
    # unmeasured warm-up: compiles bytecode, which a user pays once
    if probe_import(job["import"], work, deadline) is None:
        print("error: compactwave does not import from the checkout", file=sys.stderr)
        return 2

    # passes run back to back until --seconds have gone by, so a run measures
    # at least that long even when one pass takes more than half of it
    start = time.perf_counter()
    base = run_pass(job, work, False, 0, deadline) if args.trace else None
    passes = []
    while not passes or time.perf_counter() - start < args.seconds:
        res = run_pass(job, work, bool(args.trace), len(passes) + 1, deadline)
        passes.append(res)
        if res is None:
            break
    done = ([base] if args.trace else []) + passes
    if any(p is None for p in done):
        print("error: a pass crashed or timed out; see " + str(work), file=sys.stderr)
        return 1

    verdicts, flags = [], []
    for res in done:
        verdicts.extend(workloads.check(job, res["outputs"]))
        if res["constructions"] != job["constructions"]:
            flags.append(
                f"timed scheme constructions {res['constructions']} != "
                f"implicit runs {job['constructions']}"
            )
        if res["node_updates"] <= 0:
            flags.append("no time levels were recorded")
    failed = [(run, why) for run, ok, why in verdicts if not ok]
    unexpected = [
        (run, why) for run, why in failed if (job["workload"], run) not in workloads.KNOWN_DEFECTS
    ]
    attempted = len(verdicts)

    if args.trace:
        metrics = trace_metrics(base, passes, len(failed) / attempted)
    else:
        pass_ratio = 1.0 - len(failed) / attempted
        metrics = end_to_end_metrics(passes, pass_ratio)
    env = environment()
    details = {
        "workload": args.workload,
        "size": size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "failed": failed,
        "flags": flags,
        "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in done],
    }
    (work / "result.json").write_text(json.dumps(details, indent=1))

    for (run, why), count in sorted(Counter(failed).items()):
        known = workloads.KNOWN_DEFECTS.get((job["workload"], run))
        note = f" [known defect: {known}]" if known else ""
        print(f"failed run {run} in {count} of {len(done)} passes: {why}{note}")
    for flag in sorted(set(flags)):
        print(f"flag: {flag}")
    for name in sorted({name for res in done for name in res["missing"]}):
        print(f"missing layer: {name}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    if not args.trace:
        raw = statistics.fmean(p["wall_s"] for p in passes)
        kernel = statistics.fmean(k for p in passes for k in p["speed_samples"])
        print(f"unscaled: wall {raw:.6g} s, speed kernel {1e3 * kernel:.4g} ms "
              f"(reference {1e3 * speed.REFERENCE_KERNEL_S:g} ms)")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"passes: {len(passes)}; details in {work / 'result.json'}")
    print(
        json.dumps(
            {
                "correct": not unexpected and not flags,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def end_to_end_metrics(passes, pass_ratio) -> dict:
    """Times of each pass scaled to the reference speed of `speed.kernel`
    by the pass's own speed samples, then averaged over the run."""
    factors = [speed.speed_factor(p["speed_samples"]) for p in passes]
    # means over the whole run: what is left of the host's drift after the
    # scaling is short-lived, and a time average over every pass spreads
    # less than the median of a few
    wall = statistics.fmean(p["wall_s"] * f for p, f in zip(passes, factors))
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(p["import_s"] * f for p, f in zip(passes, factors))
        + statistics.median(p["assemble_s"] * f for p, f in zip(passes, factors)),
        "updates_per_s": statistics.fmean(p["node_updates"] for p in passes) / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_ratio": pass_ratio,
    }
    return {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}


def trace_metrics(base, traced, fail_ratio) -> dict:
    names = traced[0]["layers"]
    values = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.overhead_ratio"] = traced_wall / base["wall_s"] - 1.0
    values["fail_ratio"] = fail_ratio
    # the host's speed while the untraced pass ran, and its unscaled wall
    values["speed.kernel_ms"] = 1e3 * speed.REFERENCE_KERNEL_S / speed.speed_factor(
        base["speed_samples"]
    )
    values["speed.raw_wall_s"] = base["wall_s"]
    return {
        name: {"value": values[name], "unit": layer_unit(name)} for name in sorted(values)
    }


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def _worker(job: dict, work: Path, tag: str, deadline: float | None) -> dict | None:
    job_path = work / f"job-{tag}.json"
    result_path = work / f"result-{tag}.json"
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
            env=pinned_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=None if deadline is None else max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not result_path.exists():
        (work / f"stderr-{tag}.txt").write_text(proc.stderr)
        return None
    return json.loads(result_path.read_text())


def probe_import(module: str, work: Path, deadline: float | None) -> float | None:
    res = _worker({"src": str(SRC), "import": module, "probe": True}, work, "probe", deadline)
    return None if res is None else res["import_s"]


def run_pass(
    job: dict, work: Path, trace: bool, index: int, deadline: float | None
) -> dict | None:
    tag = f"{'traced' if trace else 'pass'}{index}"
    full = dict(job, src=str(SRC), trace=trace, spans=str(work / f"spans-{tag}.npz"))
    return _worker(full, work, tag, deadline)


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyyaml": version("PyYAML"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "git_sha": sha,
    }


if __name__ == "__main__":
    sys.exit(main())
