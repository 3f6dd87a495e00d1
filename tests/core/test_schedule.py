"""Tests for the exchange's rounds and their static validation."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.check import verify_pattern
from repro.core.partitions import partitions
from repro.core.programs import exchange_rounds
from repro.sim.fastpath import KIND_BARRIER, KIND_EXCHANGE, KIND_SHUFFLE, compile_schedule
from repro.util.bitops import popcount
from tests.conftest import small_cube_cases


def _round_with_mask(rounds, mask):
    (rnd,) = [r for r in rounds if r.mask == mask]
    return rnd


def _phase_times(rounds):
    """Each phase's closing shuffle count, in phase order."""
    return [times for _, times in sorted({(r.phase, r.times) for r in rounds})]


class TestCompilation:
    def test_step_kinds_and_order(self):
        rounds = exchange_rounds(3, (2, 1))
        # tags count each phase's barrier and closing shuffle
        assert [(r.mask, r.tag, r.phase, r.times) for r in rounds] == [
            (2, 1, 0, 2), (4, 2, 0, 2), (6, 3, 0, 2), (1, 6, 1, 1),
        ]
        assert all(r.pairwise and r.sources == 7 for r in rounds)
        # the chain: barrier, exchanges, shuffle per phase
        B, X, S = KIND_BARRIER, KIND_EXCHANGE, KIND_SHUFFLE
        assert compile_schedule(3, (2, 1)).kinds.tolist() == [B, X, X, X, S, B, X, S]

    def test_standard_is_all_ones(self):
        rounds = exchange_rounds(4, (1,) * 4)
        assert len(rounds) == 4  # d transmissions
        assert all(popcount(r.mask) == 1 for r in rounds)
        assert [r.mask for r in rounds] == [8, 4, 2, 1]  # top bit group first
        # d shuffles, one per phase
        assert _phase_times(rounds) == [1, 1, 1, 1]

    def test_optimal_has_no_shuffles(self):
        rounds = exchange_rounds(4, (4,))
        assert all(r.times == 0 for r in rounds)
        assert [r.mask for r in rounds] == list(range(1, 16))
        assert {r.phase for r in rounds} == {0}

    def test_exchange_counts_per_phase(self):
        rounds = exchange_rounds(6, (3, 2, 1))
        assert Counter(r.phase for r in rounds) == {0: 7, 1: 3, 2: 1}

    def test_shuffle_times_match_phase_dims(self):
        assert _phase_times(exchange_rounds(6, (3, 2, 1))) == [3, 2, 1]

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError):
            exchange_rounds(4, (3, 2))

    def test_partner_is_involution(self):
        # phase 0 of (3, 2) is bits 4..2: offset 5 is mask 5 << 2
        rnd = _round_with_mask(exchange_rounds(5, (3, 2)), 5 << 2)
        for node in range(32):
            partner = rnd.sends_to(node)
            assert rnd.sends_to(partner) == node
            assert rnd.receives_from(node) == partner
            assert partner != node

    def test_hops(self):
        # phase 0 of (3, 1) is bits 3..1: offset 0b101 is mask 0b1010
        rounds = exchange_rounds(4, (3, 1))
        rnd = _round_with_mask(rounds, 0b101 << 1)
        assert popcount(rnd.mask) == 2
        compiled = compile_schedule(4, (3, 1))
        exchange_hops = compiled.hops[compiled.kinds == KIND_EXCHANGE].tolist()
        assert exchange_hops == [popcount(r.mask) for r in rounds]


class TestCircuits:
    """An exchange round's circuits pair every node with its partner."""

    def test_circuit_count(self):
        # phase 1 of (2, 2) is bits 1..0: offset 3 is mask 3
        rnd = _round_with_mask(exchange_rounds(4, (2, 2)), 3)
        circuits = rnd.circuits(0)
        assert len(circuits) == 16
        # every node appears exactly once as a source
        assert sorted(c[0] for c in circuits) == list(range(16))
        assert circuits == [(x, rnd.sends_to(x)) for x in range(16)]

    def test_circuits_stay_in_subcube_dimensions(self):
        # phase 1 of (1, 2, 1) is bits 2..1: offset 2 is mask 2 << 1
        rnd = _round_with_mask(exchange_rounds(4, (1, 2, 1)), 2 << 1)
        assert ~rnd.reach & 15 == 0b0110
        for src, dst in rnd.circuits(0):
            assert (src ^ dst) & rnd.reach == 0


class TestContentionValidation:
    """Every exchange certifies: circuits contention-free, blocks delivered."""

    @settings(deadline=None)
    @given(small_cube_cases())
    def test_random_partitions_certify(self, case):
        d, partition = case
        assert verify_pattern("alltoall", "multiphase", d, partition=partition) == []

    def test_all_partitions_d6(self):
        for partition in partitions(6):
            assert verify_pattern("alltoall", "multiphase", 6, partition=partition) == []

    def test_d7_extremes(self):
        for partition in ((7,), (1,) * 7, (4, 3), (3, 2, 2)):
            assert verify_pattern("alltoall", "multiphase", 7, partition=partition) == []


class TestStats:
    """The aggregates of a schedule, read off its compiled chain."""

    @staticmethod
    def _stats(d, partition, m):
        compiled = compile_schedule(d, partition)
        exchange = compiled.kinds == KIND_EXCHANGE
        return {
            "n_transmissions": int(exchange.sum()),
            "bytes_per_node": m * int(compiled.bytes_per_m[exchange].sum()),
            "hop_sum": int(compiled.hops.sum()),
            "n_phases": int((compiled.kinds == KIND_BARRIER).sum()),
            "n_shuffles": int((compiled.kinds == KIND_SHUFFLE).sum()),
        }

    def test_standard_stats(self):
        d, m = 4, 8
        stats = self._stats(d, (1,) * d, m)
        assert stats["n_transmissions"] == d
        # d transmissions of m * 2**(d-1) bytes
        assert stats["bytes_per_node"] == d * m * (1 << (d - 1))
        assert stats["hop_sum"] == d  # all distance 1
        assert stats["n_phases"] == d
        assert stats["n_shuffles"] == d

    def test_optimal_stats(self):
        d, m = 4, 8
        stats = self._stats(d, (d,), m)
        assert stats["n_transmissions"] == (1 << d) - 1
        assert stats["bytes_per_node"] == ((1 << d) - 1) * m
        # sum of popcounts over 1..15 = d * 2**(d-1)
        assert stats["hop_sum"] == d * (1 << (d - 1))
        assert stats["n_phases"] == 1
        assert stats["n_shuffles"] == 0

    def test_multiphase_volume_between_extremes(self):
        d, m = 6, 10
        volumes = {
            partition: self._stats(d, partition, m)["bytes_per_node"]
            for partition in partitions(d)
        }
        v_min = volumes[(d,)]
        v_max = volumes[(1,) * d]
        for partition, v in volumes.items():
            assert v_min <= v <= v_max, partition
