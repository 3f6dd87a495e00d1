"""One way to run a row: :func:`repro.comm.program.simulate` and the
lockstep :func:`repro.core.exchange.replay`.

Every row of :data:`repro.core.programs.PATTERN_TABLE` runs through
``simulate``: its arguments are checked before a planner is asked or a
machine boots, its end-of-run check byte-verifies every node's final
holdings against the row's ``semantics.ends``, and a fault plan
degrades the machine for every row.  The byte checks raise explicitly,
so this module passes under ``python -O`` too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.chaos import run_degraded_workload
from repro.analysis.validation import validate_policy
from repro.comm.program import simulate, simulate_exchange
from repro.core.exchange import replay
from repro.core.programs import PATTERN_TABLE, pattern_program
from repro.model.params import ipsc860
from repro.plan import CollectivePlanner, FixedPolicy, ModelPolicy
from repro.sim.engine import Engine
from repro.sim.fastpath import exchange_time, program_time
from repro.sim.faults import FaultPlan
from tests.test_golden_outputs import _run_digest, degraded_plan

ROWS = sorted(PATTERN_TABLE.values(), key=lambda row: row.name)

#: every row at d = 3, rooted rows at roots 0 and 7
RUNS = [
    (row.pattern, row.algorithm, root)
    for row in ROWS
    for root in ((0, 7) if row.semantics.rooted else (0,))
]


def _run_id(run) -> str:
    pattern, algorithm, root = run
    return f"{pattern}/{algorithm}@{root}"


class TestEveryRow:
    @pytest.mark.parametrize("run", RUNS, ids=_run_id)
    def test_runs_at_the_fast_path_price(self, run, ipsc):
        """The verified run takes exactly the time the fast path prices
        for the row's program."""
        pattern, algorithm, root = run
        result = simulate(pattern, algorithm, 3, 40, ipsc, root=root)
        program = pattern_program(pattern, algorithm, 3, root=root)
        assert result.time_us == program_time(program, 40, ipsc)
        assert result.row is PATTERN_TABLE[pattern, algorithm]
        assert result.run.time == result.time_us

    @pytest.mark.parametrize("run", RUNS, ids=_run_id)
    def test_a_corrupted_block_fails_the_end_of_run_check(self, run, ipsc):
        pattern, algorithm, root = run
        result = simulate(pattern, algorithm, 3, 8, ipsc, root=root)
        held = result.run.node_results[3]
        if isinstance(held, dict):
            key = next(iter(held))
            held[key] = held[key] ^ 1  # a new array: the blocks are shared
        else:
            held.payload[0] ^= 1
        with pytest.raises(AssertionError, match="node 3"):
            result.verify()

    @pytest.mark.parametrize("run", [r for r in RUNS if r[0] != "alltoall"], ids=_run_id)
    def test_a_lost_block_fails_the_end_of_run_check(self, run, ipsc):
        pattern, algorithm, root = run
        result = simulate(pattern, algorithm, 3, 8, ipsc, root=root)
        held = result.run.node_results[5]
        if isinstance(held, dict):
            del held[next(iter(held))]
            match = "node 5 ended .* with the wrong blocks"
        else:
            held.dests[0] = 0
            match = "node 5: 1 blocks with foreign destinations"
        with pytest.raises(AssertionError, match=match):
            result.verify()

    def test_a_planner_that_picks_naive_runs_the_rotation(self, ipsc):
        naive = CollectivePlanner(FixedPolicy(naive=True))
        result = simulate("alltoall", "multiphase", 3, 16, ipsc, planner=naive, engine="layout")
        assert result.row is PATTERN_TABLE["alltoall", "rotation"]
        assert result.partition == ()
        assert result.time_us == simulate("alltoall", "rotation", 3, 16, ipsc).time_us
        gathered = simulate("allgather", "exchange", 3, 16, ipsc, planner=naive)
        assert gathered.partition == () and gathered.time_us == result.time_us

    def test_a_caller_machine_carries_on(self, ipsc):
        """On the caller's machine the clock and trace carry on; each
        result's time is the time its own run took."""
        from repro.sim.machine import SimulatedHypercube

        machine = SimulatedHypercube(3, ipsc)
        first = simulate("broadcast", "binomial", 3, 16, ipsc, machine=machine)
        second = simulate("alltoall", "multiphase", 3, 16, ipsc, machine=machine)
        assert first.time_us == simulate("broadcast", "binomial", 3, 16, ipsc).time_us
        assert second.time_us == exchange_time(3, 16, (3,), ipsc)
        assert second.run.time == first.time_us + second.time_us
        assert second.trace is first.trace is machine.trace


class TestFaultPlansReachEveryRow:
    @pytest.mark.parametrize("run", RUNS, ids=_run_id)
    def test_an_empty_plan_is_the_clean_run(self, run, ipsc):
        pattern, algorithm, root = run
        clean = simulate(pattern, algorithm, 3, 40, ipsc, root=root)
        empty = simulate(pattern, algorithm, 3, 40, ipsc, root=root, fault_plan=FaultPlan(3))
        assert _run_digest(empty) == _run_digest(clean)

    @pytest.mark.parametrize("run", RUNS, ids=_run_id)
    def test_a_degraded_run_is_verified_slower_and_reproducible(self, run, ipsc):
        pattern, algorithm, root = run
        plan = degraded_plan()
        assert not plan.is_empty
        clean = simulate(pattern, algorithm, 3, 40, ipsc, root=root)
        degraded = simulate(pattern, algorithm, 3, 40, ipsc, root=root, fault_plan=plan)
        degraded.verify()
        assert degraded.time_us >= clean.time_us
        again = simulate(pattern, algorithm, 3, 40, ipsc, root=root, fault_plan=plan)
        assert _run_digest(again) == _run_digest(degraded)

    def test_a_naive_chaos_workload_runs_verified(self, ipsc):
        result = run_degraded_workload(
            3, 8, FixedPolicy(naive=True), ipsc, n_steps=2, fault_plan=degraded_plan()
        )
        assert result.partitions == [(), ()]
        assert result.n_switches == 0
        assert result.completion_us > 2 * simulate("alltoall", "rotation", 3, 8, ipsc).time_us

    def test_validation_replays_its_default_grids_on_a_degraded_machine(self, ipsc):
        """The plan degrades the decisions at its dimension, the §9
        pattern rows included; the others replay clean."""
        clean = validate_policy(ModelPolicy(ipsc), params=ipsc, engine="event")
        degraded = validate_policy(
            ModelPolicy(ipsc), params=ipsc, engine="event", fault_plan=degraded_plan()
        )
        pairs = list(zip(clean.rows, degraded.rows))
        assert len(pairs) == len(clean.rows) == len(degraded.rows)
        assert [before.app for before, _ in pairs] == [after.app for _, after in pairs]
        slower = {before.app for before, after in pairs if after.simulated_us > before.simulated_us}
        assert {"pattern:broadcast", "pattern:scatter", "pattern:allgather"} <= slower
        for before, after in pairs:
            assert after.simulated_us >= before.simulated_us
            assert (after.simulated_us > before.simulated_us) == (before.d == 3)


class TestMeasuredClaims:
    """The simulator's correctness claims the benchmarks used to carry."""

    def test_naive_rotation_pays_for_ignoring_the_network(self, ipsc):
        """d = 5, 64-byte blocks: the naive rotation takes over 1.5x the
        single-phase schedule and queues, the schedule never does."""
        naive = simulate("alltoall", "rotation", 5, 64, ipsc)
        ocs = simulate("alltoall", "multiphase", 5, 64, ipsc, partition=(5,))
        assert naive.time_us > 1.5 * ocs.time_us
        assert naive.trace.total_contention_wait > 0.0
        assert ocs.trace.total_contention_wait == 0.0

    def test_section9_rows_stay_under_the_exchange_bound(self, ipsc):
        """§3: the complete exchange upper-bounds every pattern (d = 5,
        m = 40, against the best partition's exchange)."""
        from repro.model.optimizer import best_partition

        d, m = 5, 40
        best = best_partition(m, d, ipsc).partition
        bound = simulate("alltoall", "multiphase", d, m, ipsc, partition=best).time_us
        for row in ROWS:
            if row.pattern != "alltoall":
                partition = best if row.schedule == "multiphase" else None
                result = simulate(row.pattern, row.algorithm, d, m, ipsc, partition=partition)
                assert result.time_us <= bound, row.name

    @pytest.mark.parametrize("partition", [(4,), (2, 2), (1, 1, 1, 1)])
    def test_an_empty_plan_costs_nothing(self, partition, ipsc):
        """No plan, an empty plan and the fast path: one price, exactly,
        and no retries."""
        bare = simulate_exchange(4, 16, partition, ipsc)
        empty = simulate_exchange(4, 16, partition, ipsc, fault_plan=FaultPlan(4))
        assert bare.time_us == empty.time_us == exchange_time(4, 16.0, partition, ipsc)
        assert len(empty.trace.retries) == 0


class _RefusingPlanner:
    """A planner that must not be asked: the arguments are checked first."""

    def decide(self, d, m):
        raise AssertionError("planner asked before the arguments were checked")


#: block sizes the event engine refuses: it moves whole bytes
BAD_M = (-3, -1, 1.5, 2.0, 2.5, 40.0, True, "8", None)

#: bad argument -> (applies to row, keyword arguments, ValueError text)
BAD_ARGUMENTS = {
    **{
        f"m={m!r}": (lambda row: True, lambda row, m=m: {"m": m},
                     f"m must be a non-negative int, got m={m!r}")
        for m in BAD_M
    },
    "engine": (lambda row: True, lambda row: {"engine": "bogus"},
               "unknown engine 'bogus'; expected 'tags' or 'layout'"),
    "partition": (lambda row: row.schedule != "multiphase", lambda row: {"partition": (3,)},
                  "{row} takes no partition, got partition=(3,)"),
    "root": (lambda row: not row.semantics.rooted, lambda row: {"root": 1},
             "{row} takes no root, got root=1"),
    "planner+partition": (
        lambda row: True, lambda row: {"planner": _RefusingPlanner(), "partition": (3,)},
        "pass either planner= or partition=, not both",
    ),
    "planner": (lambda row: row.schedule != "multiphase",
                lambda row: {"planner": _RefusingPlanner()},
                "planner= applies only to the multiphase rows "
                "(allgather/exchange, alltoall/multiphase), not {row}"),
}

#: entry point -> (takes the bad argument, run)
ENTRY_POINTS = {
    "simulate": (lambda bad: True, lambda row, kwargs: simulate(
        row.pattern, row.algorithm, 3, kwargs.pop("m", 8), ipsc860(), **kwargs)),
    "replay": (lambda bad: bad != "root", lambda row, kwargs: replay(
        row.algorithm, 3, kwargs.pop("m", 8), **kwargs)),
    "replay-rows": (lambda bad: bad != "root" and not bad.startswith("m="),
                    lambda row, kwargs: replay(
                        row.algorithm, rows=np.zeros((8, 8, 2), np.uint8), **kwargs)),
    "replay-one-node": (lambda bad: bad == "engine", lambda row, kwargs: replay(
        row.algorithm, rows=np.zeros((1, 1, 2), np.uint8), **kwargs)),
}

ARGUMENT_CASES = [
    pytest.param(entry, row, bad, id=f"{entry}-{row.name}-{bad}")
    for entry, (takes, _) in ENTRY_POINTS.items()
    for row in ROWS
    if entry == "simulate" or row.pattern == "alltoall"
    for bad, (applies, _, _) in BAD_ARGUMENTS.items()
    if takes(bad) and applies(row)
]


@pytest.mark.parametrize("entry, row, bad", ARGUMENT_CASES)
def test_a_bad_argument_raises_before_anything_runs(entry, row, bad):
    """Every row, every entry point: a bad argument raises its
    :class:`ValueError` before a planner is asked or a machine boots.
    A multiphase row gets a planner that must not be asked."""
    _, make_kwargs, text = BAD_ARGUMENTS[bad]
    kwargs = make_kwargs(row)
    if row.schedule == "multiphase" and "planner" not in kwargs and "partition" not in kwargs:
        kwargs["planner"] = _RefusingPlanner()
    boots = Engine.boot_count
    with pytest.raises(ValueError) as raised:
        ENTRY_POINTS[entry][1](row, kwargs)
    assert str(raised.value) == text.format(row=row.name)
    assert Engine.boot_count == boots
