"""Tests for alternative schedule orderings (§4.2 / report 91-4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.schedule import verify_rounds
from repro.core.blocks import BlockBuffer
from repro.core.programs import PATTERN_TABLE, exchange_rounds, replay_pattern
from repro.core.variants import (
    ORDERINGS,
    distance_profile,
    offset_order,
    ordered_rounds,
)
from tests.conftest import small_cube_cases


class TestOffsetOrder:
    def test_index_order(self):
        assert offset_order(3, "index") == list(range(1, 8))

    def test_distance_order_sorted_by_popcount(self):
        order = offset_order(4, "distance")
        pops = [bin(o).count("1") for o in order]
        assert pops == sorted(pops)

    def test_distance_desc(self):
        order = offset_order(4, "distance_desc")
        pops = [bin(o).count("1") for o in order]
        assert pops == sorted(pops, reverse=True)

    def test_gray_adjacent_offsets_differ_by_one_bit(self):
        order = offset_order(4, "gray")
        for a, b in zip(order, order[1:]):
            assert bin(a ^ b).count("1") == 1

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @given(width=st.integers(min_value=1, max_value=8))
    def test_every_ordering_is_a_permutation(self, ordering, width):
        order = offset_order(width, ordering)
        assert sorted(order) == list(range(1, 1 << width))

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="ordering"):
            offset_order(3, "random")
        with pytest.raises(ValueError):
            offset_order(0, "index")


class TestOrderedSchedules:
    def test_index_reproduces_default(self):
        assert ordered_rounds(5, (3, 2), "index") == exchange_rounds(5, (3, 2))

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_certified(self, ordering):
        """Every ordering's rounds are contention-free and deliver."""
        row = PATTERN_TABLE[("alltoall", "multiphase")]
        for partition in ((5,), (3, 2), (1,) * 5):
            rounds = ordered_rounds(5, partition, ordering)
            assert verify_rounds(row, rounds, 5, 0, target="t") == []

    @settings(deadline=None, max_examples=20)
    @given(small_cube_cases(), st.sampled_from(ORDERINGS))
    def test_byte_identical_exchanges(self, case, ordering):
        """Any ordering moves the same bytes to the same places."""
        d, partition = case
        rounds = ordered_rounds(d, partition, ordering)
        buffers = [BlockBuffer.initial(node, d, 4) for node in range(1 << d)]
        assert replay_pattern(rounds, buffers) == ([], [])
        for buf in buffers:
            buf.verify_complete_exchange_result()

    def test_distance_multiset_invariant(self):
        profiles = {
            ordering: sorted(distance_profile(ordered_rounds(5, (3, 2), ordering)))
            for ordering in ORDERINGS
        }
        baseline = profiles["index"]
        assert all(p == baseline for p in profiles.values())

    def test_profiles_differ_in_sequence(self):
        asc = distance_profile(ordered_rounds(4, (4,), "distance"))
        desc = distance_profile(ordered_rounds(4, (4,), "distance_desc"))
        assert asc == sorted(asc)
        assert desc == sorted(desc, reverse=True)
        assert asc != desc


class TestSimulatedOrderings:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_same_total_time_in_lockstep(self, ordering, ipsc):
        """With pairwise-synchronized lockstep steps the total time is
        ordering-invariant (the per-step costs commute)."""
        from functools import partial

        from repro.patterns.execute import pattern_node
        from repro.sim.machine import SimulatedHypercube

        holdings = partial(BlockBuffer.initial, d=4, m=16)
        machine = SimulatedHypercube(4, ipsc)
        run = machine.run(
            pattern_node, rounds=ordered_rounds(4, (2, 2), ordering), holdings=holdings
        )
        machine2 = SimulatedHypercube(4, ipsc)
        run2 = machine2.run(
            pattern_node, rounds=exchange_rounds(4, (2, 2)), holdings=holdings
        )
        assert run.time == pytest.approx(run2.time)
        for buf in run.node_results:
            buf.verify_complete_exchange_result()
