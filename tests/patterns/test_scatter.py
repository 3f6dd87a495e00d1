"""Tests for the one-to-all personalized (scatter) pattern."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns import scatter, scatter_direct_time, scatter_time, simulate_pattern


class TestDataLevel:
    def test_each_node_gets_its_block(self):
        blocks = np.arange(16, dtype=np.uint8).reshape(8, 2)
        out = scatter(blocks, root=0, d=3)
        for node in range(8):
            assert np.array_equal(out[node], blocks[node])

    @given(st.integers(min_value=0, max_value=4), st.data())
    def test_any_root(self, d, data):
        root = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
        n = 1 << d
        rng = np.random.default_rng(d * 31 + root)
        blocks = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
        out = scatter(blocks, root=root, d=d)
        for node in range(n):
            assert np.array_equal(out[node], blocks[node])

    def test_rejects_wrong_block_count(self):
        with pytest.raises(ValueError):
            scatter(np.zeros((3, 2), np.uint8), root=0, d=2)


class TestModels:
    def test_halving_formula(self, ipsc):
        t = scatter_time(10, 3, ipsc)
        expected = 3 * (95.0 + 10.3) + 0.394 * 10 * 7 + 150 * 3
        assert t == pytest.approx(expected)

    def test_direct_formula(self, ipsc):
        t = scatter_direct_time(10, 2, ipsc)
        # offsets 1,2,3 -> distances 1,1,2
        expected = 3 * (95.0 + 3.94) + 10.3 * 4 + 150 * 2
        assert t == pytest.approx(expected)

    def test_halving_dominates_direct(self, ipsc):
        """Unlike the complete exchange, scatter has a single source:
        the root pushes τ·m·(n-1) bytes through its port under either
        variant, so direct circuits only add startups and never win on
        time (the asymmetry with SE-vs-OCS the module documents)."""
        d = 6
        for m in (1.0, 100.0, 1000.0, 100_000.0):
            assert scatter_time(m, d, ipsc) < scatter_direct_time(m, d, ipsc)
        # and the startup gap is exactly (n - 1 - d) extra λ's plus the
        # distance-term difference
        n = 1 << d
        gap = scatter_direct_time(0.0, d, ipsc) - scatter_time(0.0, d, ipsc)
        from repro.model.cost import total_distance

        expected = (n - 1 - d) * ipsc.latency + ipsc.hop_time * (total_distance(d) - d)
        assert gap == pytest.approx(expected)


class TestSimulated:
    @pytest.mark.parametrize("d,m", [(1, 8), (3, 16), (5, 40)])
    def test_time_matches_model(self, d, m, ipsc):
        t, _ = simulate_pattern("scatter", "halving", d, m, ipsc)
        assert t == pytest.approx(scatter_time(m, d, ipsc))

    @pytest.mark.parametrize("d,m", [(1, 8), (3, 16), (5, 40)])
    def test_direct_time_matches_model(self, d, m, ipsc):
        t, _ = simulate_pattern("scatter", "direct", d, m, ipsc)
        assert t == pytest.approx(scatter_direct_time(m, d, ipsc))

    @settings(deadline=None, max_examples=8)
    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_nonzero_roots_verified(self, d, data):
        from repro.model.params import ipsc860

        root = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
        # simulate_pattern verifies payloads internally
        simulate_pattern("scatter", "halving", d, 12, ipsc860(), root=root)
