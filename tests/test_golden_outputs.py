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
    PYTHONPATH=src python -m repro plan 7 40 --policy contention --json \\
        > tests/golden/plan_contention_d7_m40.json
    PYTHONPATH=src python -m tests.test_golden_outputs \\
        > tests/golden/event_traces.json
    PYTHONPATH=src python -m tests.test_golden_outputs interpreter \\
        > tests/golden/interpreter_traces.json
    PYTHONPATH=src python examples/figure3_walkthrough.py \\
        > tests/golden/figure3_walkthrough.txt
    PYTHONPATH=src python -m repro report > tests/golden/report.txt
    for M in hypothetical ipsc860; do for D in 1 2 3 4 5 6 7 8 9 10; do \\
        PYTHONPATH=src python -m repro --machine $M hull $D; done; done \\
        > tests/golden/hulls.txt
    PYTHONPATH=src python -m repro serve --shards tests/service/data \\
        < tests/service/data/serve_shards_requests.jsonl \\
        > tests/golden/serve_shards.jsonl
    cat tests/service/data/serve_repeat_requests.jsonl \\
        tests/service/data/serve_repeat_requests.jsonl \\
        | PYTHONPATH=src python -m repro serve > tests/golden/serve_repeat.jsonl

``event_traces.json`` pins the event engine itself: one SHA-256 per
byte-verified exchange over ``repr(trace)`` and the makespan's
``float.hex()``, for every partition at d 2..5, m 0 and 40, on both
machine presets, plus the naive rotation.  It was written before the
engine learned to complete an exchange pair and a barrier with one
event each, a change that must not move a single trace record.
``interpreter_traces.json`` pins, by the same scheme, the runs that
moved onto the declared rows' one SPMD interpreter: the layout
engine's exchanges, both multiphase rows at every partition (through
``Communicator.Alltoall``, the route they ran when pinned, rebuilt
here by a test-local node program), a planner-driven exchange per
preset, one exchange per offset ordering and every §9 row.  It was
written while the exchange still had its own step-list loop; a §9
row's digest leaves out ``phase_marks``, the one record the
interpreter adds there.  Its
naive-rotation entries (``Communicator.Alltoall(algorithm="naive")``
on user rows, a planner-driven naive run per preset, and the
``float.hex`` of the rotation's reservation-replay price with every
send it grants) were written while the rotation still had its own
loops.  Its degraded-row entries, every row at d = 3 under one seeded
fault plan, were written when fault plans first reached every row.
``plan_contention_d7_m40.json`` prints the rotation's price beside the
planner's choice.
``figure3_walkthrough.txt`` is the paper's Figure 3, block by block; it
was written before the walkthrough stepped the exchange's declared
rounds instead of its step list.
``report.txt`` (the paper-vs-reproduced table) and ``hulls.txt`` (every
hull of optimality at 0.1 B, both presets, d 1..10) were written while
the hull's switch points were still found by a sampled sweep and
bisection; the exact line envelope that replaced it must print the
same bytes.
``serve_shards.jsonl`` is the stdio server's answer to a fixed request
file (both presets, d 1..10, block sizes from 0 B to 1.7e308 B and every
hull switch point one ulp either side), served from the checked-in
shard files under ``tests/service/data/``.  Those shards and the golden
were written while a shard still stored optimizer tables beside its
calibration; a fresh ``repro shards`` directory must serve the same
bytes as the old files.
``serve_repeat.jsonl`` is one stdio session's answer to a request file
sent twice (both presets, block sizes up to 1.7e308 B, zeros of both
signs in either order, ids of every JSON kind and non-ASCII text, single
and batch forms, bad queries and one malformed line).  Its second half
is answered from the result memo: it pins the text of repeated answers,
written while every result document was still formatted afresh.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import runpy
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.comm import Communicator, simulate_exchange
from repro.comm.program import simulate
from repro.core.blocks import BlockBuffer
from repro.core.partitions import partitions
from repro.core.programs import BLOCK_SEMANTICS, PATTERN_TABLE
from repro.core.variants import ORDERINGS, ordered_rounds
from repro.model.params import PRESETS, ipsc860
from repro.patterns.execute import pattern_node
from repro.plan import CollectivePlanner, FixedPolicy, ModelPolicy
from repro.sim.fastpath import naive_exchange_time, naive_timeline
from repro.sim.faults import FaultPlan
from repro.sim.machine import SimulatedHypercube

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv,golden", [
    (["chaos", "--json"], "chaos.json"),
    (["validate", "--policy", "model", "--engine", "event"], "validate_model_event.txt"),
    (["validate", "--policy", "model"], "validate_model.txt"),
    (["check", "--schedules", "--dims", "2", "3", "4", "5", "--json"],
     "check_schedules_d2-5.json"),
    (["plan", "7", "40", "--policy", "contention", "--json"], "plan_contention_d7_m40.json"),
])
def test_output_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_figure3_walkthrough_matches_golden(capsys):
    script = Path(__file__).resolve().parent.parent / "examples" / "figure3_walkthrough.py"
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / "figure3_walkthrough.txt").read_text()


def test_report_matches_golden(capsys):
    assert main(["report"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "report.txt").read_text()


def test_hulls_match_golden(capsys):
    for machine in ("hypothetical", "ipsc860"):
        for d in range(1, 11):
            assert main(["--machine", machine, "hull", str(d)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "hulls.txt").read_text()


SHARD_DATA = Path(__file__).resolve().parent / "service" / "data"


def test_serve_from_shards_matches_golden(tmp_path, capsys, monkeypatch):
    import io

    fresh = tmp_path / "shards"
    assert main(["shards", str(fresh), "--all-machines"]) == 0
    capsys.readouterr()
    requests = (SHARD_DATA / "serve_shards_requests.jsonl").read_text()
    golden = (GOLDEN / "serve_shards.jsonl").read_text()
    for directory in (SHARD_DATA, fresh):
        monkeypatch.setattr(sys, "stdin", io.StringIO(requests))
        assert main(["serve", "--shards", str(directory)]) == 0
        assert capsys.readouterr().out == golden, directory


def test_serve_repeated_requests_matches_golden(capsys, monkeypatch):
    import io

    requests = (SHARD_DATA / "serve_repeat_requests.jsonl").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(requests * 2))
    assert main(["serve"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "serve_repeat.jsonl").read_text()


def _run_digest(result) -> str:
    return _trace_digest(result.trace, result.time_us)


def _trace_digest(trace, time_us: float) -> str:
    text = repr(trace) + time_us.hex()
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
                result = simulate("alltoall", "rotation", d, m, params)
                digests[f"{preset} d={d} naive m={m}"] = _run_digest(result)
    return digests


def test_event_traces_match_golden():
    golden = json.loads((GOLDEN / "event_traces.json").read_text())
    assert event_trace_digests() == golden


#: the §9 rows that do not run through the complete exchange
_SECTION9_ROWS = (
    ("broadcast", "binomial"),
    ("broadcast", "direct"),
    ("scatter", "halving"),
    ("scatter", "direct"),
    ("allgather", "doubling"),
)


def degraded_plan() -> FaultPlan:
    """The seeded d = 3 plan of the degraded-row pins: half the wires
    slowed, a quarter of the nodes straggling, and outages early
    enough to force retries."""
    return FaultPlan.generate(
        3, 5, degraded_link_fraction=0.5, straggler_fraction=0.25,
        link_failure_rate=0.5, horizon_us=1500.0, outage_duration_range_us=(50.0, 400.0),
    )


def degraded_runs():
    """``(key, pattern, algorithm, root)`` of every pinned degraded
    run: each row at d = 3 and m = 40, rooted rows at roots 0 and 7."""
    for (pattern, algorithm), row in sorted(PATTERN_TABLE.items()):
        for root in (0, 7) if row.semantics.rooted else (0,):
            yield f"ipsc860 d=3 {row.name} root={root} m=40 degraded", pattern, algorithm, root


def _naive_alltoall_node(ctx, *, rows):
    received = yield from Communicator(ctx).Alltoall(rows[ctx.rank], algorithm="naive")
    return received


def _multiphase_row_node(ctx, *, pattern, blocks, partition):
    """A multiphase row the way its pins were written: the node's
    starting blocks fill its send matrix (an allgather block goes to
    every node) and run through ``Communicator.Alltoall``, whose tags
    start at ``1 << 20``; the row received from origin ``o`` is the
    node's ``o``-th ending block."""
    semantics = BLOCK_SEMANTICS[pattern]
    sent = blocks[list(semantics.starts(ctx.rank, 0, ctx.n))]
    gathered = yield from Communicator(ctx).Alltoall(
        np.broadcast_to(sent, (ctx.n, blocks.shape[1])), partition=partition
    )
    return dict(zip(semantics.ends(ctx.rank, 0, ctx.n), gathered))


def _multiphase_row_run(pattern, d, m, params, partition):
    """``(time, trace)`` of :func:`_multiphase_row_node` on every
    node, checked to deliver every ending block."""
    n = 1 << d
    blocks = np.random.default_rng(12345).integers(
        0, 256, size=(n * n if pattern == "alltoall" else n, m), dtype=np.uint8
    )
    run = SimulatedHypercube(d, params).run(
        _multiphase_row_node, pattern=pattern, blocks=blocks, partition=partition
    )
    for held in run.node_results:
        assert all(np.array_equal(block, blocks[key]) for key, block in held.items())
    return run.time, run.trace


def _naive_price_digest(d: int, m: float, params) -> str:
    """SHA-256 over the ``float.hex`` of the rotation's price and of
    every send its timeline grants."""
    timeline = naive_timeline(d, m, params)
    parts = [naive_exchange_time(d, m, params).hex(), timeline.total.hex()]
    parts.extend(
        f"{send.src} {send.dst} {send.step} {send.hops} {send.t_issue.hex()} "
        f"{send.t_start.hex()} {send.t_end.hex()}"
        for send in timeline.sends
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def interpreter_trace_digests() -> dict[str, str]:
    """SHA-256 of every pinned run of the declared rows' rounds on the
    event engine, by the same scheme as :func:`event_trace_digests`:
    the layout engine's exchanges, both multiphase rows through
    :func:`_multiphase_row_node` at every partition, a planner-driven
    exchange per preset, one exchange per offset ordering, and every
    §9 row at roots 0 and ``n - 1``.  A §9 row's digest sets the
    trace's ``phase_marks`` aside, after checking that they are the
    one mark of phase 0 at time 0.  The naive rotation adds
    ``Communicator.Alltoall(algorithm="naive")`` on user rows (checked
    to deliver), a planner-driven naive run per preset, and its
    reservation-replay price with every granted send at d 1..8.  Every
    row also runs once at d = 3 under :func:`degraded_plan`."""
    digests = {}
    for preset, factory in PRESETS.items():
        params = factory()
        for d in range(2, 6):
            n = 1 << d
            for m in (0, 40):
                for partition in partitions(d):
                    result = simulate_exchange(d, m, partition, params, engine="layout")
                    digests[f"{preset} d={d} {partition} m={m} layout"] = _run_digest(result)
                    for pattern in ("alltoall", "allgather"):
                        algorithm = "multiphase" if pattern == "alltoall" else "exchange"
                        time_us, trace = _multiphase_row_run(pattern, d, m, params, partition)
                        digests[f"{preset} d={d} {pattern}/{algorithm} {partition} m={m}"] = (
                            _trace_digest(trace, time_us)
                        )
                for pattern, algorithm in _SECTION9_ROWS:
                    for root in (0, n - 1) if pattern != "allgather" else (0,):
                        result = simulate(pattern, algorithm, d, m, params, root=root)
                        # the one phase the interpreter marks, at the start
                        assert result.trace.phase_marks == [(0, 0.0)]
                        trace = dataclasses.replace(result.trace, phase_marks=[])
                        digests[f"{preset} d={d} {pattern}/{algorithm} root={root} m={m}"] = (
                            _trace_digest(trace, result.time_us)
                        )
        planner = CollectivePlanner(ModelPolicy(params))
        result = simulate("alltoall", "multiphase", 5, 40, params, planner=planner)
        digests[f"{preset} d=5 planned m=40"] = _run_digest(result)
        for d in range(2, 6):
            n = 1 << d
            for m in (0, 40):
                rows = np.random.default_rng(d * 100 + m).integers(
                    0, 256, size=(n, n, m), dtype=np.uint8
                )
                run = SimulatedHypercube(d, params).run(_naive_alltoall_node, rows=rows)
                for rank, received in enumerate(run.node_results):
                    assert np.array_equal(received, rows[:, rank])
                digests[f"{preset} d={d} naive Alltoall m={m}"] = (
                    _trace_digest(run.trace, run.time)
                )
        naive_planner = CollectivePlanner(FixedPolicy(naive=True))
        result = simulate("alltoall", "multiphase", 5, 40, params, planner=naive_planner)
        assert result.decision.algorithm == "naive"
        digests[f"{preset} d=5 planned naive m=40"] = _run_digest(result)
        for d in range(1, 9):
            for m in (0, 40, 2.5):
                digests[f"{preset} d={d} naive price m={m}"] = _naive_price_digest(d, m, params)
    params = ipsc860()
    for ordering in ORDERINGS:
        rounds = ordered_rounds(5, (3, 2), ordering)
        run = SimulatedHypercube(5, params).run(
            pattern_node, rounds=rounds, holdings=partial(BlockBuffer.initial, d=5, m=16)
        )
        BlockBuffer.verify_all(run.node_results)
        digests[f"ipsc860 d=5 (3, 2) m=16 {ordering}"] = _trace_digest(run.trace, run.time)
    for key, pattern, algorithm, root in degraded_runs():
        result = simulate(pattern, algorithm, 3, 40, params, root=root, fault_plan=degraded_plan())
        digests[key] = _run_digest(result)
    return digests


def test_interpreter_traces_match_golden():
    golden = json.loads((GOLDEN / "interpreter_traces.json").read_text())
    assert interpreter_trace_digests() == golden


if __name__ == "__main__":
    digests = interpreter_trace_digests() if sys.argv[1:] == ["interpreter"] else (
        event_trace_digests()
    )
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
