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


def test_readme_library_example_runs(capsys):
    # its lone scheme, built from a kind's name, reports the triple that
    # run_errors gives the same kind
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library example")[1].split("```python\n")[1].split("```")[0]
    exec(compile(example, "README.md", "exec"), {})
    stack, _, lone = capsys.readouterr().out.splitlines()
    assert stack.startswith("compact1d True ErrorTriple(") and lone.startswith("True ")
    assert stack.split(" ", 2)[2] == lone.split(" ", 1)[1]
