"""The SciPy modules a call loads: the package binds LAPACK's tridiagonal
routines from the compiled `scipy.linalg._flapack` extension alone when it
imports, without the `scipy.linalg` package or the NumPy submodules SciPy's
array-API layer loads, and `scipy.fft` only on the first fast sine transform.
So a measured CLI run imports nothing after `import compactwave.cli`.

Each check runs in a fresh interpreter, since this process has loaded
whatever the other tests used.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent

NAMES = ("scipy", "scipy.linalg", "scipy._lib", "scipy.fft", "scipy.special", "numpy.f2py",
         "numpy.testing", "numpy.random", "scipy.linalg._flapack")

SCRIPT = """
import json, sys

import numpy as np

import compactwave.cli
from compactwave.solvers import dst1

found = {name: name in sys.modules for name in json.loads(sys.argv[2])}
before = set(sys.modules)
codes = [compactwave.cli.main(argv) for argv in json.loads(sys.argv[1])]
added = sorted(set(sys.modules) - before)
values = np.random.default_rng(0).standard_normal(300)
fast = dst1(values, 0)
fft_loaded = "scipy.fft" in sys.modules
gap = float(np.max(np.abs(fast - dst1(values, 0, direct=True))))
scale = float(max(1.0, np.max(np.abs(fast))))
print(json.dumps(dict(found=found, codes=codes, added=added, fft_loaded=fft_loaded,
                      gap=gap, scale=scale)))
"""


def test_cli_runs_import_no_scipy_module_after_the_package(tmp_path):
    cfg = tmp_path / "splitting.yaml"
    cfg.write_text(yaml.safe_dump(
        {"scheme": "splitting", "axes": [{"N": 4, "X": 1.0}] * 3, "speeds": [1.0, 0.6, 1.2]}
    ))
    runs = [
        ["table1", "--alpha", "1.5", "--N", "20,40", "--out", str(tmp_path / "t1.csv")],
        ["stability", "--config", str(cfg), "--certify", "--out", str(tmp_path / "st.txt")],
        ["run", "--problem", "E_1.5", "--scheme", "characteristic", "--N", "20", "--M", "8",
         "--out", str(tmp_path / "run.txt")],
    ]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs), json.dumps(NAMES)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    # only the LAPACK extension of SciPy; numpy.random is the CLI's own import
    # (the certificates' generator), which scipy.linalg used to load for it
    assert report["found"] == {name: name in ("numpy.random", "scipy.linalg._flapack")
                               for name in NAMES}
    assert report["codes"] == [0, 0, 0]
    assert report["added"] == []
    # 300 interior nodes take the fast transform, which loads scipy.fft
    assert report["fft_loaded"]
    assert report["gap"] < 1e-12 * report["scale"]
