"""Byte-stable outputs of the byte-verified event-engine commands.

The files under ``tests/golden/`` were written by the commands below
before the block buffer became fixed-slot; a change to how blocks move
or are verified must leave every byte of them alone.  Regenerate one
only when an output change is intended::

    PYTHONPATH=src python -m repro chaos --json > tests/golden/chaos.json
    PYTHONPATH=src python -m repro validate --policy model --engine event \\
        > tests/golden/validate_model_event.txt
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv,golden", [
    (["chaos", "--json"], "chaos.json"),
    (["validate", "--policy", "model", "--engine", "event"], "validate_model_event.txt"),
])
def test_output_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
