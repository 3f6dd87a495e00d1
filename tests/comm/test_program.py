"""Integration tests: schedule replay on the simulated machine."""

from __future__ import annotations

import pytest

from repro.comm.program import (
    exchange_program,
    simulate_exchange,
    simulate_naive_exchange,
    simulate_planned_exchange,
)
from repro.core.blocks import BlockBuffer
from repro.core.partitions import partitions
from repro.model.cost import multiphase_time
from repro.patterns import simulate_pattern
from repro.sim.fastpath import exchange_time


class TestModelAgreement:
    """The simulator implements the first-order model exactly for
    contention-free schedules — the dashed-vs-solid agreement check."""

    @pytest.mark.parametrize("d,m,partition", [
        (3, 16, (2, 1)),
        (4, 0, (2, 2)),
        (5, 40, (3, 2)),
        (5, 40, (5,)),
        (5, 40, (1, 1, 1, 1, 1)),
        (5, 333, (4, 1)),
    ])
    def test_simulated_time_equals_predicted(self, d, m, partition, ipsc):
        result = simulate_exchange(d, m, partition, ipsc)
        assert result.time_us == pytest.approx(multiphase_time(m, d, partition, ipsc))

    def test_hypothetical_machine_agreement(self, hypo):
        result = simulate_exchange(4, 24, (2, 2), hypo)
        assert result.time_us == pytest.approx(multiphase_time(24, 4, (2, 2), hypo))

    def test_all_partitions_d4(self, ipsc):
        for partition in partitions(4):
            result = simulate_exchange(4, 24, partition, ipsc)
            assert result.time_us == pytest.approx(multiphase_time(24, 4, partition, ipsc))


class TestContentionFreedom:
    @pytest.mark.parametrize("partition", [(5,), (3, 2), (1, 1, 1, 1, 1)])
    def test_zero_contention_wait(self, partition, ipsc):
        result = simulate_exchange(5, 64, partition, ipsc)
        assert result.trace.total_contention_wait == 0.0


class TestDataIntegrity:
    @pytest.mark.parametrize("engine", ["tags", "layout"])
    def test_verified_payloads(self, engine, ipsc):
        result = simulate_exchange(4, 8, (2, 2), ipsc, engine=engine)
        result.verify()  # byte-exact

    def test_transmission_accounting(self, ipsc):
        d, m = 4, 8
        result = simulate_exchange(d, m, (4,), ipsc)
        # (2**d - 1) exchange steps, 2 records each (both directions),
        # times 2**(d-1) pairs... every node participates once per step:
        # n/2 pairs per step -> n records per step
        expected = ((1 << d) - 1) * (1 << d)
        assert result.trace.n_transmissions == expected

    @pytest.mark.parametrize("run", [
        lambda ipsc: simulate_exchange(3, 8, (2, 1), ipsc),
        lambda ipsc: simulate_exchange(3, 8, (3,), ipsc),
        lambda ipsc: simulate_naive_exchange(3, 8, ipsc),
    ])
    def test_dropped_put_fails_verification(self, run, ipsc, monkeypatch):
        """A slot taken but never refilled keeps a foreign block."""
        put = BlockBuffer.put
        calls = []

        def drop_one(self, slots, incoming):
            calls.append(self.node)
            if len(calls) != 5:
                put(self, slots, incoming)

        monkeypatch.setattr(BlockBuffer, "put", drop_one)
        with pytest.raises(AssertionError, match="foreign destinations"):
            run(ipsc)

    def test_needs_exactly_one_payload_source(self, ipsc):
        with pytest.raises(ValueError, match="exactly one"):
            next(exchange_program(None, steps=(), m=None, rows=None))

    def test_engines_same_time(self, ipsc):
        a = simulate_exchange(4, 16, (2, 2), ipsc, engine="tags")
        b = simulate_exchange(4, 16, (2, 2), ipsc, engine="layout")
        assert a.time_us == pytest.approx(b.time_us)


class TestPhaseStructure:
    def test_phase_marks(self, ipsc):
        result = simulate_exchange(4, 8, (2, 1, 1), ipsc)
        assert [p for p, _ in sorted(result.trace.phase_marks)] == [0, 1, 2]
        assert len(result.trace.barriers) == 3

    def test_shuffle_count(self, ipsc):
        result = simulate_exchange(4, 8, (2, 2), ipsc)
        # 2 phases x 16 nodes shuffles
        assert len(result.trace.shuffles) == 2 * 16

    def test_single_phase_no_shuffles(self, ipsc):
        result = simulate_exchange(4, 8, (4,), ipsc)
        assert len(result.trace.shuffles) == 0


class TestNaiveBaseline:
    """The §2 lesson: ignoring the machine's structure is expensive."""

    def test_naive_correct_but_slower(self, ipsc):
        d, m = 4, 64
        naive = simulate_naive_exchange(d, m, ipsc)
        naive.verify()
        ocs = simulate_exchange(d, m, (d,), ipsc)
        assert naive.time_us > 1.5 * ocs.time_us

    def test_naive_has_queueing(self, ipsc):
        naive = simulate_naive_exchange(4, 64, ipsc)
        assert naive.trace.total_contention_wait > 0.0

    def test_same_message_count_as_ocs(self, ipsc):
        """The slowdown is scheduling, not extra traffic: the naive run
        moves the same number of one-way messages."""
        d = 3
        naive = simulate_naive_exchange(d, 16, ipsc)
        n = 1 << d
        assert naive.trace.n_transmissions == n * (n - 1)


class TestValidation:
    def test_rejects_bad_partition(self, ipsc):
        with pytest.raises(ValueError):
            simulate_exchange(4, 8, (3, 2), ipsc)

    def test_default_partition(self, ipsc):
        result = simulate_exchange(3, 8, None, ipsc)
        assert result.partition == (3,)

    def test_rejects_unknown_engine(self, ipsc):
        with pytest.raises(ValueError, match="engine"):
            simulate_exchange(3, 8, (3,), ipsc, engine="bogus")


class _RefusingPlanner:
    """A planner that must not be asked: ``m`` is checked first."""

    def decide(self, d, m):
        raise AssertionError("planner asked before m was checked")


EVENT_ENGINE_ENTRY_POINTS = {
    "exchange": lambda m, p: simulate_exchange(3, m, (3,), p),
    "planned": lambda m, p: simulate_planned_exchange(3, m, _RefusingPlanner(), p),
    "naive": lambda m, p: simulate_naive_exchange(3, m, p),
    "pattern": lambda m, p: simulate_pattern("broadcast", "binomial", 3, m, p),
}


class TestEventEngineBlockSize:
    @pytest.mark.parametrize("entry", sorted(EVENT_ENGINE_ENTRY_POINTS))
    @pytest.mark.parametrize("m", [40.0, 2.5, True, -3])
    def test_bad_m_is_a_value_error_naming_m(self, ipsc, entry, m):
        with pytest.raises(ValueError, match="m="):
            EVENT_ENGINE_ENTRY_POINTS[entry](m, ipsc)

    def test_fast_path_still_prices_fractional_m(self, ipsc):
        fast = simulate_exchange(3, 2.5, (3,), ipsc, fast=True)
        assert fast.time_us == exchange_time(3, 2.5, (3,), ipsc)
        assert simulate_naive_exchange(3, 2.5, ipsc, fast=True).time_us > 0
