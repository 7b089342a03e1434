"""Runs of the demos, which exercise uniform and graded meshes, the
characteristic mesh, the operator pairs, the stability checks and the
splitting handle: each must exit 0 and print, byte for byte, its golden
output under `golden/demos/`.

A change that moves a printed figure updates the golden file and lists the
figure in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize(
    "demo",
    [
        "01_uniform_convergence.py",
        "02_graded_meshes.py",
        "03_characteristic_mesh.py",
        "04_stability_certificates.py",
        "05_multidimensional_splitting.py",
    ],
)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / demo).with_suffix(".txt").read_text()
