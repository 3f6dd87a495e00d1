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
    PYTHONPATH=src python -m tests.test_golden_outputs \\
        > tests/golden/event_traces.json
    PYTHONPATH=src python examples/figure3_walkthrough.py \\
        > tests/golden/figure3_walkthrough.txt

``event_traces.json`` pins the event engine itself: one SHA-256 per
byte-verified exchange over ``repr(trace)`` and the makespan's
``float.hex()``, for every partition at d 2..5, m 0 and 40, on both
machine presets, plus the naive rotation.  It was written before the
engine learned to complete an exchange pair and a barrier with one
event each, a change that must not move a single trace record.
``figure3_walkthrough.txt`` is the paper's Figure 3, block by block; it
was written before the walkthrough stepped the exchange's declared
rounds instead of its step list.
"""

from __future__ import annotations

import hashlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.comm import simulate_exchange, simulate_naive_exchange
from repro.core.partitions import partitions
from repro.model.params import PRESETS

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


def test_figure3_walkthrough_matches_golden(capsys):
    script = Path(__file__).resolve().parent.parent / "examples" / "figure3_walkthrough.py"
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / "figure3_walkthrough.txt").read_text()


def _run_digest(result) -> str:
    text = repr(result.trace) + result.time_us.hex()
    return hashlib.sha256(text.encode()).hexdigest()


def event_trace_digests() -> dict[str, str]:
    """SHA-256 of every pinned event-engine exchange, keyed
    ``"<preset> d=<d> <partition or naive> m=<m>"``."""
    digests = {}
    for preset, factory in PRESETS.items():
        params = factory()
        for d in range(2, 6):
            for m in (0, 40):
                for partition in partitions(d):
                    result = simulate_exchange(d, m, partition, params)
                    digests[f"{preset} d={d} {partition} m={m}"] = _run_digest(result)
                result = simulate_naive_exchange(d, m, params)
                digests[f"{preset} d={d} naive m={m}"] = _run_digest(result)
    return digests


def test_event_traces_match_golden():
    golden = json.loads((GOLDEN / "event_traces.json").read_text())
    assert event_trace_digests() == golden


if __name__ == "__main__":
    json.dump(event_trace_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
