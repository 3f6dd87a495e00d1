"""Tests for the all-to-all broadcast (allgather) pattern."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.program import simulate
from repro.patterns import allgather, allgather_time


class TestDataLevel:
    def test_everyone_gathers_everything(self):
        contributions = np.arange(8, dtype=np.uint8).reshape(4, 2)
        out = allgather(contributions, 2)
        for node in range(4):
            assert np.array_equal(out[node], contributions)

    @given(st.integers(min_value=0, max_value=4))
    def test_all_dimensions(self, d):
        n = 1 << d
        rng = np.random.default_rng(d)
        contributions = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
        out = allgather(contributions, d)
        for node in range(n):
            assert np.array_equal(out[node], contributions)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            allgather(np.zeros((3, 1), np.uint8), 2)


class TestModel:
    def test_formula(self, ipsc):
        t = allgather_time(10, 3, ipsc)
        expected = 3 * (177.5 + 20.6) + 0.394 * 10 * 7 + 150 * 3
        assert t == pytest.approx(expected)

    def test_fewer_startups_than_complete_exchange(self, ipsc):
        """Allgather moves the same minimum per-node volume as the
        exchange but in only d startups; it must undercut even the
        optimizer's best exchange time."""
        from repro.model.optimizer import best_partition

        for d in (5, 6, 7):
            for m in (0, 40, 400):
                assert allgather_time(m, d, ipsc) < best_partition(float(m), d, ipsc).time


class TestSimulated:
    @pytest.mark.parametrize("d,m", [(1, 8), (3, 16), (5, 40), (6, 24)])
    def test_time_matches_model(self, d, m, ipsc):
        t = simulate("allgather", "doubling", d, m, ipsc).time_us
        assert t == pytest.approx(allgather_time(m, d, ipsc))

    def test_no_contention(self, ipsc):
        run = simulate("allgather", "doubling", 5, 32, ipsc).run
        assert run.trace.total_contention_wait == 0.0

    @settings(deadline=None, max_examples=6)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=32))
    def test_random_sizes_verified(self, d, m):
        from repro.model.params import ipsc860

        simulate("allgather", "doubling", d, m, ipsc860())  # verifies internally
