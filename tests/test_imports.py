"""The modules a call loads.  `import compactwave.cli` loads what every
command needs: NumPy, LAPACK's tridiagonal routines from the compiled
`scipy.linalg._flapack` extension alone (without the `scipy.linalg` package
or the NumPy submodules SciPy's array-API layer loads), and the `locale`
argparse's gettext loads on every parser build.  What only some commands
need loads where it is used: `yaml` with a config file, `numpy.random` with
the certificates' generator, `concurrent.futures` with a process pool, and
`scipy.fft` on the first fast sine transform.  The Gauss-Legendre rules are
literal constants, so no command loads `numpy.polynomial`.

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
         "numpy.testing", "numpy.random", "numpy.polynomial", "yaml", "concurrent.futures",
         "scipy.linalg._flapack")
# the packages whose modules a command's import set is checked on
PACKAGES = ("compactwave", "numpy", "scipy", "yaml", "concurrent")

SCRIPT = """
import json, sys

import compactwave.cli

found = {name: name in sys.modules for name in json.loads(sys.argv[2])}
codes, added = [], []
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    codes.append(compactwave.cli.main(argv))
    added.append(sorted(set(sys.modules) - before))

import numpy as np
from compactwave.solvers import dst1

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
        ["run", "--problem", "E_1.5", "--scheme", "characteristic", "--N", "20", "--M", "8",
         "--out", str(tmp_path / "run.txt")],
        ["table1", "--alpha", "1.5", "--N", "20,40", "--out", str(tmp_path / "t1.csv")],
        ["stability", "--config", str(cfg), "--certify", "--out", str(tmp_path / "st.txt")],
    ]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs), json.dumps(NAMES)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    # of SciPy only the LAPACK extension; nothing only some commands use
    assert report["found"] == {name: name == "scipy.linalg._flapack" for name in NAMES}
    assert report["codes"] == [0, 0, 0]
    run_added, table1_added, stability_added = report["added"]
    # a characteristic run and a one-process study load nothing more
    assert run_added == []
    assert table1_added == []
    # the config file loads yaml and the certificate's generator numpy.random,
    # each with its own submodules, and nothing of SciPy or the package
    ours = {name for name in stability_added if name.partition(".")[0] in PACKAGES}
    assert {name for name in ours if not name.startswith(("yaml.", "numpy.random."))} == {
        "yaml", "numpy.random"}
    # 300 interior nodes take the fast transform, which loads scipy.fft
    assert report["fft_loaded"]
    assert report["gap"] < 1e-12 * report["scale"]
