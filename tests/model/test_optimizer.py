"""Tests for partition enumeration optimization (paper §6) and the
hull of optimality (Figures 4-6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import partition_count, partitions
from repro.model.cost import multiphase_time
from repro.model.optimizer import best_partition, evaluate_partitions, hull_of_optimality


class TestEvaluate:
    def test_covers_all_partitions(self, ipsc):
        scored = evaluate_partitions(40.0, 6, ipsc)
        assert len(scored) == partition_count(6)
        times = [t for _, t in scored]
        assert times == sorted(times)

    def test_candidate_restriction(self, ipsc):
        scored = evaluate_partitions(40.0, 6, ipsc, candidates=[(6,), (3, 3)])
        assert {p for p, _ in scored} == {(6,), (3, 3)}

    def test_times_match_model(self, ipsc):
        for partition, t in evaluate_partitions(24.0, 5, ipsc):
            assert t == pytest.approx(multiphase_time(24.0, 5, partition, ipsc))


class TestBestPartition:
    def test_figure6_winner_at_40_bytes(self, ipsc):
        assert best_partition(40.0, 7, ipsc).partition == (4, 3)

    def test_large_blocks_single_phase(self, ipsc):
        for d in (5, 6, 7):
            assert best_partition(400.0, d, ipsc).partition == (d,)

    def test_tiny_blocks_multiphase(self, ipsc):
        choice = best_partition(1.0, 7, ipsc)
        assert len(choice.partition) > 1

    def test_speedup_over(self, ipsc):
        choice = best_partition(40.0, 7, ipsc)
        assert choice.speedup_over((7,)) > 2.0
        assert choice.speedup_over((4, 3)) == pytest.approx(1.0)

    def test_speedup_over_order_insensitive(self, ipsc):
        choice = best_partition(40.0, 7, ipsc)
        assert choice.speedup_over((3, 4)) == choice.speedup_over((4, 3))

    def test_speedup_over_unknown_partition_raises_value_error(self, ipsc):
        """Regression: a partition outside the evaluated pool used to
        escape as a bare KeyError; it must be a ValueError naming the
        partition and the available candidates."""
        choice = best_partition(40.0, 7, ipsc, candidates=[(7,), (4, 3)])
        with pytest.raises(ValueError, match=r"\(5, 2\).*not among.*\(4, 3\).*\(7,\)"):
            choice.speedup_over((2, 5))

    def test_scalar_method_identical(self, ipsc):
        for m in (0.0, 7.5, 40.0, 400.0):
            grid = best_partition(m, 7, ipsc)
            scalar = best_partition(m, 7, ipsc, method="scalar")
            assert grid == scalar

    def test_unknown_method_rejected(self, ipsc):
        with pytest.raises(ValueError, match="method"):
            best_partition(40.0, 7, ipsc, method="turbo")

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=7),
           st.floats(min_value=0.0, max_value=400.0))
    def test_winner_really_is_minimal(self, d, m):
        from repro.model.params import ipsc860

        p = ipsc860()
        choice = best_partition(m, d, p)
        brute = min(multiphase_time(m, d, part, p) for part in partitions(d))
        assert choice.time == pytest.approx(brute)


class TestNumpyBlockSizes:
    def test_numpy_int_block_size_is_accepted(self, ipsc):
        assert best_partition(np.int64(40), 7, ipsc) == best_partition(40, 7, ipsc)


class TestHull:
    def test_figure4_hull(self, ipsc):
        table = hull_of_optimality(5, ipsc)
        assert table.hull_partitions == ((3, 2), (5,))
        assert len(table.boundaries) == 1
        assert table.boundaries[0] == pytest.approx(100.3, abs=1.0)

    def test_figure5_hull(self, ipsc):
        table = hull_of_optimality(6, ipsc)
        assert table.hull_partitions == ((2, 2, 2), (3, 3), (6,))

    def test_figure6_hull(self, ipsc):
        table = hull_of_optimality(7, ipsc)
        assert table.hull_partitions == ((3, 2, 2), (4, 3), (7,))
        # {2,2,3} optimal only for very small blocks (paper: 0-12 B)
        assert table.boundaries[0] < 15

    def test_lookup_consistency(self, ipsc):
        table = hull_of_optimality(6, ipsc)
        for m in (0.0, 5.0, 50.0, 139.0, 400.0):
            assert table.lookup(m) == best_partition(m, 6, ipsc).partition

    def test_boundaries_sorted(self, ipsc):
        table = hull_of_optimality(7, ipsc)
        assert list(table.boundaries) == sorted(table.boundaries)
        assert len(table.segments) == len(table.boundaries) + 1

    def test_standard_never_on_ipsc_hull(self, ipsc):
        """Paper: SE 'is never optimal on the iPSC-860 for dimensions
        5-7' — shown only for comparison."""
        for d in (5, 6, 7):
            table = hull_of_optimality(d, ipsc)
            assert (1,) * d not in table.hull_partitions

    def test_d1_trivial(self, ipsc):
        table = hull_of_optimality(1, ipsc)
        assert table.hull_partitions == ((1,),)
        assert table.boundaries == ()

    def test_grid_and_scalar_methods_bitwise_equal(self, ipsc, hypo):
        """The vectorized hull must reproduce the scalar hull exactly —
        same segments and bit-identical switch points."""
        for params in (ipsc, hypo):
            for d in (1, 2, 5, 6, 7):
                grid = hull_of_optimality(d, params)
                scalar = hull_of_optimality(d, params, method="scalar")
                assert grid == scalar

    def test_unknown_method_rejected(self, ipsc):
        with pytest.raises(ValueError, match="method"):
            hull_of_optimality(5, ipsc, method="turbo")

    def test_hypothetical_machine_se_wins_small(self, hypo):
        """On the §4.3 machine SE genuinely owns the small-block end
        (that machine has no per-message sync overhead)."""
        table = hull_of_optimality(6, hypo, m_max=100.0)
        assert table.segments[0] == (1,) * 6
