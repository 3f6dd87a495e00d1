"""Tests for the simulated machine: message semantics, rendezvous,
barriers, and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partitions import partitions
from repro.core.schedule import ExchangeStep, PhaseStart, ShuffleStep, multiphase_schedule
from repro.model.params import ipsc860
from repro.sim.engine import SimulationError
from repro.sim.machine import SimulatedHypercube


class TestExchange:
    def test_pairwise_exchange_swaps_payloads(self):
        machine = SimulatedHypercube(2, ipsc860())

        def program(ctx):
            other = ctx.rank ^ 1
            data = yield ctx.exchange(other, payload=ctx.rank * 10, nbytes=8)
            return data

        result = machine.run(program)
        assert result.node_results == [10, 0, 30, 20]

    def test_exchange_time_matches_model(self):
        params = ipsc860()
        machine = SimulatedHypercube(3, params)

        def program(ctx):
            other = ctx.rank ^ 0b111  # distance 3
            yield ctx.exchange(other, payload=None, nbytes=40)

        result = machine.run(program)
        assert result.time == pytest.approx(params.exchange_time(40, 3))

    def test_numpy_labels_become_plain_ints(self):
        """Request builders store the validated plain int, so numpy
        labels exchange like ints and trace records hold ints."""
        machine = SimulatedHypercube(2, ipsc860())

        def program(ctx):
            other = np.int64(ctx.rank ^ 1)
            data = yield ctx.exchange(other, payload=ctx.rank, nbytes=8)
            return data

        result = machine.run(program)
        assert result.node_results == [1, 0, 3, 2]
        for record in result.trace.transmissions:
            assert type(record.src) is int and type(record.dst) is int
        ctx = machine.contexts[0]
        assert type(ctx.exchange(np.uint8(2), None, 0).partner) is int
        assert type(ctx.send(np.int32(1), None, 0).dst) is int
        assert type(ctx.recv(np.int64(3)).src) is int
        assert type(ctx.post_recv(np.uint8(1)).src) is int
        with pytest.raises(ValueError):
            ctx.exchange(np.int64(4), None, 0)
        with pytest.raises(TypeError):
            ctx.send(True, None, 0)

    def test_self_exchange_rejected(self):
        machine = SimulatedHypercube(2, ipsc860())

        def program(ctx):
            yield ctx.exchange(ctx.rank, payload=None, nbytes=0)

        with pytest.raises(ValueError, match="exchange with self"):
            machine.run(program)

    @pytest.mark.parametrize("nbytes", [2.9, -1, True, np.float64(8.0), np.int64(-3)])
    @pytest.mark.parametrize("builder", ["send", "exchange", "shuffle"])
    def test_bad_byte_counts_rejected(self, builder, nbytes):
        """A fraction, a negative count or a bool is refused when the
        request is built, naming the node, instead of being truncated
        into the trace or failing later as a scheduling error."""
        machine = SimulatedHypercube(2, ipsc860())
        ctx = machine.contexts[3]
        build = {
            "send": lambda: ctx.send(1, None, nbytes),
            "exchange": lambda: ctx.exchange(1, None, nbytes),
            "shuffle": lambda: ctx.shuffle(nbytes),
        }[builder]
        with pytest.raises(ValueError, match=r"node 3: nbytes must be a non-negative int"):
            build()

    def test_requests_are_slotted(self):
        machine = SimulatedHypercube(2, ipsc860())
        ctx = machine.contexts[0]
        for request in (ctx.send(1, None, 8), ctx.recv(1), ctx.post_recv(), ctx.barrier(),
                        ctx.exchange(2, None, 8), ctx.shuffle(8), ctx.delay(1.0)):
            assert not hasattr(request, "__dict__"), type(request).__name__

    def test_numpy_byte_counts_become_plain_ints(self):
        machine = SimulatedHypercube(1, ipsc860())

        def program(ctx):
            yield ctx.exchange(ctx.rank ^ 1, payload=None, nbytes=np.int64(24))
            yield ctx.shuffle(np.uint16(8))

        result = machine.run(program)
        assert [r.nbytes for r in result.trace.transmissions] == [24, 24]
        assert all(type(r.nbytes) is int for r in result.trace.transmissions)
        assert all(type(s.nbytes) is int for s in result.trace.shuffles)
        ctx = machine.contexts[0]
        assert type(ctx.send(1, None, np.int32(5)).nbytes) is int
        assert ctx.send(1, None, 0).nbytes == 0

    def test_mismatched_partners_deadlock(self):
        machine = SimulatedHypercube(1, ipsc860())

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.exchange(1, payload=None, nbytes=0, tag=1)
            else:
                yield ctx.exchange(0, payload=None, nbytes=0, tag=2)  # tag mismatch

        with pytest.raises(SimulationError, match="deadlock"):
            machine.run(program)

    def test_rendezvous_waits_for_late_partner(self):
        params = ipsc860()
        machine = SimulatedHypercube(1, params)

        def program(ctx):
            if ctx.rank == 1:
                yield ctx.delay(500.0)
            yield ctx.exchange(ctx.rank ^ 1, payload=None, nbytes=0)

        result = machine.run(program)
        assert result.time == pytest.approx(500.0 + params.exchange_time(0, 1))


class TestForcedMessages:
    def test_posted_receive_delivers(self):
        machine = SimulatedHypercube(1, ipsc860())

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.post_recv(1, tag=7)
                yield ctx.barrier()
                data = yield ctx.recv(1, tag=7)
                return data
            yield ctx.barrier()
            yield ctx.send(0, payload="hello", nbytes=16, tag=7)
            return None

        result = machine.run(program)
        assert result.node_results[0] == "hello"

    def test_unposted_forced_is_fatal_by_default(self):
        machine = SimulatedHypercube(1, ipsc860())

        def program(ctx):
            if ctx.rank == 1:
                yield ctx.send(0, payload="x", nbytes=8, tag=3)
            else:
                yield ctx.delay(10_000.0)  # never posts

        with pytest.raises(SimulationError, match="no posted receive"):
            machine.run(program)

    def test_unposted_forced_dropped_when_lenient(self):
        machine = SimulatedHypercube(1, ipsc860(), strict_forced=False)

        def program(ctx):
            if ctx.rank == 1:
                yield ctx.send(0, payload="x", nbytes=8, tag=3)
            else:
                yield ctx.delay(10_000.0)

        result = machine.run(program)
        assert len(result.trace.dropped_messages) == 1
        src, dst, tag, _ = result.trace.dropped_messages[0]
        assert (src, dst, tag) == (1, 0, 3)

    def test_blocked_recv_counts_as_posted(self):
        machine = SimulatedHypercube(1, ipsc860())

        def program(ctx):
            if ctx.rank == 0:
                data = yield ctx.recv(1, tag=0)
                return data
            yield ctx.delay(50.0)
            yield ctx.send(0, payload=123, nbytes=4, tag=0)
            return None

        result = machine.run(program)
        assert result.node_results[0] == 123


class TestUnforcedMessages:
    def test_buffered_without_receive(self):
        machine = SimulatedHypercube(1, ipsc860())

        def program(ctx):
            if ctx.rank == 1:
                yield ctx.send(0, payload="later", nbytes=8, tag=0, forced=False)
                return None
            yield ctx.delay(5000.0)
            data = yield ctx.recv(1, tag=0)
            return data

        result = machine.run(program)
        assert result.node_results[0] == "later"

    def test_large_unforced_slower_than_forced(self):
        def run(forced):
            machine = SimulatedHypercube(1, ipsc860())

            def program(ctx):
                if ctx.rank == 1:
                    yield ctx.send(0, payload=None, nbytes=400, tag=0, forced=forced)
                else:
                    yield ctx.recv(1, tag=0)

            return machine.run(program).time

        assert run(forced=False) > run(forced=True)


class TestBarrier:
    def test_barrier_cost(self):
        params = ipsc860()
        machine = SimulatedHypercube(3, params)

        def program(ctx):
            yield ctx.barrier()

        result = machine.run(program)
        assert result.time == pytest.approx(params.global_sync_time(3))
        assert len(result.trace.barriers) == 1
        assert result.trace.barriers[0].n_participants == 8

    def test_barrier_waits_for_slowest(self):
        params = ipsc860()
        machine = SimulatedHypercube(2, params)

        def program(ctx):
            yield ctx.delay(float(ctx.rank) * 100.0)
            yield ctx.barrier()

        result = machine.run(program)
        assert result.time == pytest.approx(300.0 + params.global_sync_time(2))

    def test_multiple_barriers(self):
        machine = SimulatedHypercube(2, ipsc860())

        def program(ctx):
            yield ctx.barrier()
            yield ctx.barrier()

        result = machine.run(program)
        assert len(result.trace.barriers) == 2


class TestShuffleAndPhases:
    def test_shuffle_cost_and_record(self):
        params = ipsc860()
        machine = SimulatedHypercube(1, params)

        def program(ctx):
            yield ctx.shuffle(1000)

        result = machine.run(program)
        assert result.time == pytest.approx(540.0)
        assert len(result.trace.shuffles) == 2  # one per node

    def test_phase_marks_deduplicated(self):
        """``mark_phase`` is called, not yielded: the first node to
        reach a phase marks it, and later nodes add nothing."""
        machine = SimulatedHypercube(2, ipsc860())

        def program(ctx):
            assert ctx.mark_phase(0) is None
            yield ctx.barrier()
            ctx.mark_phase(1)

        result = machine.run(program)
        assert [p for p, _ in result.trace.phase_marks] == [0, 1]

    def test_phase_mark_carries_the_instant_it_was_reached(self):
        """A mark takes the time the first node reached it and costs no
        event: one shared start, four delays, one barrier release."""
        params = ipsc860()
        machine = SimulatedHypercube(2, params)

        def program(ctx):
            ctx.mark_phase(0)
            yield ctx.delay(10.0 * (ctx.rank + 1))
            ctx.mark_phase(1)  # node 0 first, at t = 10
            yield ctx.barrier()
            ctx.mark_phase(2)

        result = machine.run(program)
        release = 40.0 + params.global_sync_time(2)
        assert result.trace.phase_marks == [(0, 0.0), (1, 10.0), (2, release)]
        assert result.n_events == 1 + 4 + 1


class TestDeterminism:
    def test_identical_runs(self):
        def run_once():
            machine = SimulatedHypercube(3, ipsc860())

            def program(ctx):
                for offset in range(1, ctx.n):
                    yield ctx.exchange(ctx.rank ^ offset, payload=None, nbytes=24, tag=offset)

            result = machine.run(program)
            return result.time, [
                (t.src, t.dst, t.t_start, t.t_end) for t in result.trace.transmissions
            ]

        assert run_once() == run_once()


def _expected_events(d: int, partition: tuple[int, ...]) -> int:
    """Events of one multiphase exchange, ``1 + phases + n/2·(exchange
    steps) + n·(shuffle steps)``: one shared start; per phase one
    barrier release (the phase mark takes none); one completion per
    exchanging pair; a resumption per node per shuffle."""
    n = 1 << d
    per_step = {PhaseStart: 1, ExchangeStep: n // 2, ShuffleStep: n}
    return 1 + sum(per_step[type(step)] for step in multiphase_schedule(d, partition))


class TestEventCount:
    """The node processes start from one shared event, phase marks take
    no event, and each exchange pair and each barrier completes with one
    shared event, so the count follows from the schedule alone."""

    @pytest.mark.parametrize("d,partition", [
        pytest.param(d, p, id=f"d{d}-" + "-".join(map(str, p)))
        for d, p in [
            *((d, p) for d in range(1, 7) for p in partitions(d)),
            (7, (4, 3)),
            (7, (1,) * 7),
        ]
    ])
    def test_n_events_follows_schedule(self, d, partition):
        from repro.comm import simulate_exchange

        result = simulate_exchange(d, 0, partition, ipsc860())
        assert result.run.n_events == _expected_events(d, partition)


class TestOwnership:
    """A machine owns its contexts and its engine owns its processes;
    the links back are weak, so a finished run is freed by reference
    counting, trace and buffers included, without the cycle collector."""

    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "fault-plan"])
    def test_finished_run_is_freed_without_the_cycle_collector(self, faulty):
        import gc
        import weakref

        from repro.comm.program import exchange_program
        from repro.sim.faults import FaultPlan

        plan = FaultPlan.generate(
            3, seed=5, degraded_link_fraction=0.5, link_failure_rate=0.5,
            horizon_us=2_000.0, cross_traffic_flows=2,
        ) if faulty else None
        gc.disable()
        try:
            machine = SimulatedHypercube(3, ipsc860(), fault_plan=plan)
            result = machine.run(
                exchange_program, steps=multiphase_schedule(3, (2, 1)), m=8
            )
            assert len(result.trace.transmissions) > 0
            owned = [machine, machine.engine, machine.network, machine.trace,
                     machine.contexts[0], *machine.engine.processes, *result.node_results]
            refs = [weakref.ref(obj) for obj in owned]
            del machine, result, owned
            assert [r() for r in refs if r() is not None] == []
        finally:
            gc.enable()
