"""One benchmark pass in a fresh interpreter, as a CLI user's run.

    python3 bench/worker.py JOB.json RESULT.json

The job file comes from `run.py`.  The pass times the import of compactwave
first, before anything else loads NumPy, then installs the timers (the
set-up timers and the speed sampler, or every span when the job asks for a
trace), runs the job and writes wall time, set-up time, speed samples,
planned work, peak memory and the outputs to RESULT.json.  With
`"probe": true` it only times the import.
"""

import importlib
import json
import resource
import sys
import time
from pathlib import Path


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    importlib.import_module(job["import"])
    import_s = time.perf_counter() - t0
    if job.get("probe"):
        Path(result_path).write_text(json.dumps({"import_s": import_s}))
        return 0

    import workloads
    from speed import Sampler
    from tracer import Tracer

    sampler = Sampler()
    tracer = Tracer(full=job["trace"], clock=sampler.clock)
    tracer.install()
    # traced passes run without speed samples: they report raw layer times
    if not job["trace"]:
        sampler.install()
    start, cpu_start = sampler.clock(), time.process_time()
    outputs = workloads.execute(job)
    wall = sampler.clock() - start
    cpu = time.process_time() - cpu_start - sampler.kernel_s
    sampler.close()
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    levels, updates = tracer.work()
    result = {
        "import_s": import_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "assemble_s": sum(tracer.durations("schemes.assemble")),
        "constructions": len(tracer.durations("schemes.assemble")),
        "levels": levels,
        "node_updates": updates,
        "peak_rss_mb": peak_rss_mb,
        "speed_samples": list(sampler.samples),
        "missing": tracer.missing,
        "outputs": workloads.finish(job, outputs),
    }
    if job["trace"]:
        result["layers"] = tracer.layer_metrics(wall)
        result["layers"]["cli.import_s"] = import_s
        tracer.save(job["spans"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
