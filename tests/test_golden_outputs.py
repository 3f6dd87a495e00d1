"""Byte-stable outputs of the exchange's pricing, certificate and
byte-verified event-engine commands.

Each file under ``tests/golden/`` was written by the command beside it
in the table below, before a refactor that had to leave its output
alone: the event-engine files before the block buffer became
fixed-slot, the fast-path validation and the schedule certificate
before the exchange's compiled form became its ``CommProgram``.  A
change to how blocks move or are verified, or to how the exchange is
priced or certified, must leave every byte of them alone.  Regenerate
one only when an output change is intended::

    PYTHONPATH=src python -m repro chaos --json > tests/golden/chaos.json
    PYTHONPATH=src python -m repro validate --policy model --engine event \\
        > tests/golden/validate_model_event.txt
    PYTHONPATH=src python -m repro validate --policy model \\
        > tests/golden/validate_model.txt
    PYTHONPATH=src python -m repro check --schedules --dims 2 3 4 5 --json \\
        > tests/golden/check_schedules_d2-5.json
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv,golden", [
    (["chaos", "--json"], "chaos.json"),
    (["validate", "--policy", "model", "--engine", "event"], "validate_model_event.txt"),
    (["validate", "--policy", "model"], "validate_model.txt"),
    (["check", "--schedules", "--dims", "2", "3", "4", "5", "--json"],
     "check_schedules_d2-5.json"),
])
def test_output_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
