"""Byte-for-byte golden outputs of the default studies.

A change that moves a printed cell updates the file under `golden/` and
lists the cell in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from compactwave.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv,name", [
    (["table1"], "table1.csv"),
    (["table2", "--phi", "phi0", "phi3", "--N", "40,80"], "table2.phi0-phi3.N40-80.csv"),
], ids=["table1", "table2-phi0-phi3"])
def test_study_output_is_byte_identical_to_golden(argv, name, capsys):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_certificate_pool_output_is_byte_identical_to_the_recorded_one(tmp_path, capsys):
    # the 600 `stability --certify` configurations of the nd-small benchmark
    # pool, each run in-process; its configs go to a temporary file
    pool_file = Path(__file__).resolve().parents[1] / "bench" / "reference" / "nd-small.json"
    pool = json.loads(pool_file.read_text())["pool"]
    assert len(pool) == 600
    config = tmp_path / "config.yaml"
    mismatches = []
    for index, entry in enumerate(pool):
        # flow-style JSON is valid YAML
        config.write_text(json.dumps(entry["config"]) + "\n")
        code = main(["stability", "--config", str(config), "--certify", "--seed", str(entry["seed"])])
        if code != EXIT_OK or capsys.readouterr().out != entry["output"]:
            mismatches.append(index)
    assert mismatches == []
