"""The §3 upper-bound property: the complete exchange dominates.

"Being equivalent to a complete directed graph ... the time required to
execute the complete exchange pattern is an upper bound for the time
required by any pattern (which must necessarily be a subset of the
complete directed graph)."

Every simpler pattern, at the same per-pair block size, must therefore
cost no more than the *multiphase* complete exchange (the paper's §9
closing argument) — checked here on both the model and the simulator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.optimizer import best_partition
from repro.patterns import (
    allgather_time,
    broadcast_time,
    scatter_direct_time,
    scatter_time,
    simulate_pattern,
)


class TestModelBounds:
    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(min_value=2, max_value=7),
        st.floats(min_value=0.0, max_value=400.0),
    )
    def test_all_patterns_below_exchange(self, d, m):
        from repro.model.params import ipsc860

        p = ipsc860()
        bound = best_partition(m, d, p).time
        assert broadcast_time(m, d, p) <= bound
        assert scatter_time(m, d, p) <= bound
        assert allgather_time(m, d, p) <= bound
        assert min(scatter_time(m, d, p), scatter_direct_time(m, d, p)) <= bound


class TestSimulatedBounds:
    @pytest.mark.parametrize("d,m", [(4, 24), (5, 40)])
    def test_measured_bound(self, d, m, ipsc):
        from repro.comm.program import simulate_exchange

        bound = simulate_exchange(d, m, best_partition(m, d, ipsc).partition, ipsc).time_us
        assert simulate_pattern("broadcast", "binomial", d, m, ipsc)[0] <= bound
        assert simulate_pattern("scatter", "halving", d, m, ipsc)[0] <= bound
        assert simulate_pattern("allgather", "doubling", d, m, ipsc)[0] <= bound
