"""Tests for schedule compilation and static validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.check import verify_pattern
from repro.core.partitions import partitions
from repro.core.programs import exchange_rounds
from repro.core.schedule import (
    ExchangeStep,
    PhaseStart,
    ShuffleStep,
    multiphase_schedule,
    optimal_schedule,
    schedule_stats,
    schedule_stats_cache_info,
    standard_schedule,
)
from repro.hypercube.subcube import BitGroup
from tests.conftest import small_cube_cases


class TestCompilation:
    def test_step_kinds_and_order(self):
        steps = multiphase_schedule(3, (2, 1))
        kinds = [type(s).__name__ for s in steps]
        assert kinds == [
            "PhaseStart", "ExchangeStep", "ExchangeStep", "ExchangeStep", "ShuffleStep",
            "PhaseStart", "ExchangeStep", "ShuffleStep",
        ]

    def test_standard_is_all_ones(self):
        steps = standard_schedule(4)
        exchanges = [s for s in steps if isinstance(s, ExchangeStep)]
        assert len(exchanges) == 4  # d transmissions
        assert all(s.offset == 1 for s in exchanges)
        assert [s.group.lo for s in exchanges] == [3, 2, 1, 0]
        # d shuffles, one per phase
        assert sum(1 for s in steps if isinstance(s, ShuffleStep)) == 4

    def test_optimal_has_no_shuffles(self):
        steps = optimal_schedule(4)
        assert not any(isinstance(s, ShuffleStep) for s in steps)
        exchanges = [s for s in steps if isinstance(s, ExchangeStep)]
        assert [s.offset for s in exchanges] == list(range(1, 16))
        assert sum(1 for s in steps if isinstance(s, PhaseStart)) == 1

    def test_exchange_counts_per_phase(self):
        steps = multiphase_schedule(6, (3, 2, 1))
        per_phase = {}
        for s in steps:
            if isinstance(s, ExchangeStep):
                per_phase[s.phase_index] = per_phase.get(s.phase_index, 0) + 1
        assert per_phase == {0: 7, 1: 3, 2: 1}

    def test_shuffle_times_match_phase_dims(self):
        steps = multiphase_schedule(6, (3, 2, 1))
        times = [s.times for s in steps if isinstance(s, ShuffleStep)]
        assert times == [3, 2, 1]

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError):
            multiphase_schedule(4, (3, 2))

    def test_exchange_step_offset_validation(self):
        group = BitGroup(lo=0, width=2)
        with pytest.raises(ValueError):
            ExchangeStep(phase_index=0, group=group, offset=0)
        with pytest.raises(ValueError):
            ExchangeStep(phase_index=0, group=group, offset=4)

    def test_partner_is_involution(self):
        step = ExchangeStep(phase_index=0, group=BitGroup(lo=2, width=3), offset=5)
        for node in range(32):
            partner = step.partner(node)
            assert step.partner(partner) == node
            assert partner != node

    def test_hops(self):
        step = ExchangeStep(phase_index=0, group=BitGroup(lo=1, width=3), offset=0b101)
        assert step.hops == 2


class TestCircuits:
    """An exchange step's circuits are its round's (Round.circuits)."""

    def test_circuit_count(self):
        step = ExchangeStep(phase_index=0, group=BitGroup(lo=0, width=2), offset=3)
        (rnd,) = exchange_rounds([step], 4)
        circuits = rnd.circuits(0)
        assert len(circuits) == 16
        # every node appears exactly once as a source
        assert sorted(c[0] for c in circuits) == list(range(16))
        assert circuits == [(x, step.partner(x)) for x in range(16)]

    def test_circuits_stay_in_subcube_dimensions(self):
        step = ExchangeStep(phase_index=0, group=BitGroup(lo=1, width=2), offset=2)
        (rnd,) = exchange_rounds([step], 4)
        for src, dst in rnd.circuits(0):
            assert (src ^ dst) & ~step.group.mask == 0


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
    def test_standard_stats(self):
        d, m = 4, 8
        stats = schedule_stats(standard_schedule(d), d, m)
        assert stats["n_transmissions"] == d
        # d transmissions of m * 2**(d-1) bytes
        assert stats["bytes_per_node"] == d * m * (1 << (d - 1))
        assert stats["hop_sum"] == d  # all distance 1
        assert stats["n_phases"] == d
        assert stats["n_shuffles"] == d

    def test_optimal_stats(self):
        d, m = 4, 8
        stats = schedule_stats(optimal_schedule(d), d, m)
        assert stats["n_transmissions"] == (1 << d) - 1
        assert stats["bytes_per_node"] == ((1 << d) - 1) * m
        # sum of popcounts over 1..15 = d * 2**(d-1)
        assert stats["hop_sum"] == d * (1 << (d - 1))
        assert stats["n_shuffles"] == 0

    def test_multiphase_volume_between_extremes(self):
        d, m = 6, 10
        volumes = {}
        for partition in partitions(d):
            stats = schedule_stats(multiphase_schedule(d, partition), d, m)
            volumes[partition] = stats["bytes_per_node"]
        v_min = volumes[(d,)]
        v_max = volumes[(1,) * d]
        for partition, v in volumes.items():
            assert v_min <= v <= v_max, partition

    def test_stats_memoized_per_schedule(self):
        """Repeat queries of one schedule — at any block size — hit the
        per-(d, partition) cache instead of re-walking the steps."""
        d = 6
        steps = multiphase_schedule(d, (4, 2))
        first = schedule_stats(steps, d, 8)
        hits_before = schedule_stats_cache_info().hits
        again = schedule_stats(steps, d, 8)
        rescaled = schedule_stats(steps, d, 16)
        assert schedule_stats_cache_info().hits == hits_before + 2
        # same answer, fresh dict (callers may mutate their copy)
        assert again == first and again is not first
        # only the m scaling differs between queries of one schedule
        assert rescaled["bytes_per_node"] == 2 * first["bytes_per_node"]
        for key in ("n_transmissions", "hop_sum", "n_phases", "n_shuffles"):
            assert rescaled[key] == first[key]

    def test_stats_cache_distinguishes_schedules(self):
        """Different (d, partition) schedules never share a cache entry."""
        a = schedule_stats(multiphase_schedule(4, (2, 2)), 4, 8)
        b = schedule_stats(multiphase_schedule(4, (4,)), 4, 8)
        assert a["n_transmissions"] != b["n_transmissions"]
        misses_before = schedule_stats_cache_info().misses
        schedule_stats(multiphase_schedule(5, (2, 1, 1, 1)), 5, 8)
        assert schedule_stats_cache_info().misses == misses_before + 1
