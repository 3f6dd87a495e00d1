"""Integration tests: schedule replay on the simulated machine."""

from __future__ import annotations

import pytest

from repro.comm.program import simulate, simulate_exchange
from repro.core.blocks import BlockBuffer
from repro.core.partitions import partitions
from repro.model.cost import multiphase_time
from repro.sim.fastpath import exchange_time, naive_exchange_time


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
        lambda ipsc: simulate("alltoall", "rotation", 3, 8, ipsc),
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
        naive = simulate("alltoall", "rotation", d, m, ipsc)
        naive.verify()
        ocs = simulate_exchange(d, m, (d,), ipsc)
        assert naive.time_us > 1.5 * ocs.time_us

    def test_naive_has_queueing(self, ipsc):
        naive = simulate("alltoall", "rotation", 4, 64, ipsc)
        assert naive.trace.total_contention_wait > 0.0

    def test_same_message_count_as_ocs(self, ipsc):
        """The slowdown is scheduling, not extra traffic: the naive run
        moves the same number of one-way messages."""
        d = 3
        naive = simulate("alltoall", "rotation", d, 16, ipsc)
        n = 1 << d
        assert naive.trace.n_transmissions == n * (n - 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_rotation_row_is_the_replayed_price(self, d, ipsc):
        """The ``alltoall/rotation`` row byte-verifies in the time the
        fast path's sends-first replay prices, with no phase mark."""
        naive = simulate("alltoall", "rotation", d, 40, ipsc)
        assert naive.time_us == naive_exchange_time(d, 40, ipsc)
        assert naive.trace.n_transmissions == (1 << d) * ((1 << d) - 1)
        assert naive.trace.phase_marks == []


class TestValidation:
    def test_rejects_bad_partition(self, ipsc):
        with pytest.raises(ValueError):
            simulate_exchange(4, 8, (3, 2), ipsc)

    def test_default_partition(self, ipsc):
        result = simulate_exchange(3, 8, None, ipsc)
        assert result.partition == (3,)


class TestFractionalM:
    def test_the_fast_path_prices_fractional_m(self, ipsc):
        """The event engine moves whole bytes; the fast path prices any
        block size."""
        assert exchange_time(3, 2.5, (3,), ipsc) > exchange_time(3, 2, (3,), ipsc)
        assert naive_exchange_time(3, 2.5, ipsc) > naive_exchange_time(3, 2, ipsc)
