"""Tests for the one-to-all broadcast pattern."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.program import simulate
from repro.patterns import broadcast, broadcast_time


class TestDataLevel:
    def test_all_nodes_covered(self):
        msg = np.array([7, 8, 9], dtype=np.uint8)
        out = broadcast(msg, root=0, d=3)
        assert len(out) == 8
        for copy in out:
            assert np.array_equal(copy, msg)

    @given(st.integers(min_value=0, max_value=4), st.data())
    def test_any_root(self, d, data):
        root = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
        msg = np.arange(5, dtype=np.uint8)
        out = broadcast(msg, root=root, d=d)
        assert all(np.array_equal(c, msg) for c in out)

    def test_root_copy_is_independent(self):
        msg = np.array([1], dtype=np.uint8)
        out = broadcast(msg, root=0, d=2)
        msg[0] = 99
        assert out[0][0] == 1

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            broadcast(np.zeros(1, np.uint8), root=8, d=3)


class TestModel:
    def test_linear_in_dimension_and_size(self, ipsc):
        t = broadcast_time(100, 4, ipsc)
        expected = 4 * (95.0 + 39.4 + 10.3) + 150 * 4
        assert t == pytest.approx(expected)

    def test_far_below_complete_exchange(self, ipsc):
        from repro.model.optimizer import best_partition

        for d in (5, 6, 7):
            assert broadcast_time(40, d, ipsc) < best_partition(40, d, ipsc).time


class TestSimulated:
    @pytest.mark.parametrize("d,m", [(1, 8), (3, 16), (5, 40)])
    def test_time_matches_model(self, d, m, ipsc):
        t = simulate("broadcast", "binomial", d, m, ipsc).time_us
        assert t == pytest.approx(broadcast_time(m, d, ipsc))

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_nonzero_roots(self, d, data):
        from repro.model.params import ipsc860

        root = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
        result = simulate("broadcast", "binomial", d, 16, ipsc860(), root=root)
        t, run = result.time_us, result.run
        assert t == pytest.approx(broadcast_time(16, d, ipsc860()))

    def test_no_contention(self, ipsc):
        run = simulate("broadcast", "binomial", 5, 64, ipsc).run
        # the binomial tree is contention-free even with port
        # serialization: each node sends/receives sequentially anyway
        assert run.trace.total_contention_wait == 0.0
