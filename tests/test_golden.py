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


def test_compact_error_is_below_second_order_in_every_table1_cell():
    # the paper's comparative claim on the default table1, read from its
    # golden output: compact1d's error is the smaller in each of the 27
    # (alpha, norm, N) cells (smallest ratio 2.01, E_1.5 Eh at N = 200)
    header, *body = [line.split(",") for line in (GOLDEN / "table1.csv").read_text().splitlines()
                     if not line.startswith("#")]
    errors = [column for column in header if column.startswith("err_")]
    cells = {}
    for row in map(dict, (zip(header, values) for values in body)):
        for n in errors:
            cells[row["problem"], row["scheme"], row["norm"], n] = float(row[n])
    pairs = [(compact, cells[problem, "second-order", norm, n])
             for (problem, scheme, norm, n), compact in cells.items() if scheme == "compact1d"]
    assert len(pairs) == 27
    assert all(compact < second for compact, second in pairs)


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
