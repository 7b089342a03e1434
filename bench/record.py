"""Re-record the frozen references in bench/reference/ from this checkout.

    python3 bench/record.py

Runs every workload once, untraced, at both sizes and stores what the
checks compare against: the table1/table2 CSVs, the nD final errors, the
certificate pool with its reports, and the characteristic-mesh reports.
Run it only on a commit whose outputs are the accepted ones; a change that
moves an output on purpose re-records and says why.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import run
import workloads

REF = workloads.REFERENCE


def _one_pass(job: dict, work: Path) -> dict:
    res = run.run_pass(job, work, trace=False, index=0, deadline=None)
    if res is None:
        sys.exit(f"error: the {job['workload']} pass failed; see {work}")
    return res["outputs"]


def main() -> int:
    work = run.RUN_DIR / "record"
    work.mkdir(parents=True, exist_ok=True)
    REF.mkdir(exist_ok=True)

    for workload, stem in (("uniform-study", "table1"), ("graded-study", "table2")):
        for size in workloads.SIZES:
            job = workloads.plan(workload, size, 0, work / "inputs")
            out = _one_pass(job, work)["cli"][0]
            suffix = "" if size == "full" else ".smoke"
            (REF / f"{stem}{suffix}.csv").write_text(out["out"])

    nd = {}
    for size in workloads.SIZES:
        job = workloads.plan("nd-large", size, 0, work / "inputs")
        outputs = _one_pass(job, work)["nd"]
        nd[size] = {"runs": job["runs"], "max_error": [o["max_error"] for o in outputs]}
    (REF / "nd-large.json").write_text(json.dumps(nd, indent=1) + "\n")

    pool = workloads.make_pool()
    inputs = work / "pool"
    inputs.mkdir(exist_ok=True)
    invocations = []
    for k, entry in enumerate(pool):
        path = inputs / f"cert-{k:03d}.yaml"
        path.write_text(workloads.config_text(entry["config"]))
        invocations.append(
            ["stability", "--config", str(path), "--certify", "--seed", str(entry["seed"])]
        )
    job = workloads.cli_job("nd-small", "full", invocations, [], len(pool))
    for entry, res in zip(pool, _one_pass(job, work)["cli"]):
        if res["code"] != 0:
            sys.exit(f"error: certificate config {entry} failed: {res['err']}")
        entry["output"] = res["out"]
    lines = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in pool)
    (REF / "nd-small.json").write_text('{"pool": [\n' + lines + "\n]}\n")

    char = {}
    for size in workloads.SIZES:
        job = workloads.plan("characteristic", size, 0, work / "inputs")
        outputs = _one_pass(job, work)["cli"]
        char[size] = {
            problem: re.search(r"errors: (.*)", res["out"]).group(1)
            for problem, res in zip(job["runs"], outputs)
        }
    (REF / "characteristic.json").write_text(json.dumps(char, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
