"""Byte-for-byte golden outputs of the default studies.

A change that moves a printed cell updates the file under `golden/` and
lists the cell in CHANGES.md.
"""

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
