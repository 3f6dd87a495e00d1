"""Served answers at the switch points of the pool envelope.

A table whose switch points are off by a fraction of a byte serves the
wrong partition in the sliver between its boundary and the true one.
Here every switch point of both presets at d 1..10 comes from the
brute-force oracle (exact rational crossings, independent of the
optimizer), and block sizes are probed at each crossing, a few ulps
either side of it, and inside the uncertified gaps between the
certified intervals.  The resolver and ``OptimizerRegistry.lookup``
must name ``best_partition``'s partition there, priced to the same
``float.hex``.
"""

from __future__ import annotations

import math
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.optimizer import best_partition
from repro.model.params import PRESETS
from repro.service.batch import resolve_queries
from repro.service.registry import OptimizerRegistry
from tests.model.envelope_oracle import exact_envelope

DIMS = range(1, 11)
REGISTRY = OptimizerRegistry(memo_capacity=0)


@cache
def switch_points(preset: str, d: int) -> tuple[float, ...]:
    _, switches = exact_envelope(d, PRESETS[preset](), 1e6)
    return tuple(float(m) for m in switches)


def ulps(m: float, k: int) -> float:
    for _ in range(abs(k)):
        m = math.nextafter(m, math.inf if k > 0 else -math.inf)
    return m


def assert_served_exactly(preset: str, d: int, m: float) -> None:
    choice = best_partition(m, d, PRESETS[preset]())
    (result,) = resolve_queries(REGISTRY, [(preset, d, m)])
    assert result.source in ("grid", "pool")
    assert (result.partition, result.time_us.hex()) == (choice.partition, choice.time.hex()), (
        preset, d, m, result.source)
    assert REGISTRY.lookup(preset, d, m) == choice.partition


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_crossing_and_its_neighbours(preset):
    for d in DIMS:
        for switch in switch_points(preset, d):
            for k in range(-4, 5):
                assert_served_exactly(preset, d, ulps(switch, k))


@settings(max_examples=300, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)), d=st.integers(2, 10),
       k=st.integers(-64, 64), frac=st.floats(0.0, 1.0), data=st.data())
def test_crossings_and_uncertified_gaps(preset, d, k, frac, data):
    switches = switch_points(preset, d)
    if switches:
        assert_served_exactly(preset, d, ulps(data.draw(st.sampled_from(switches)), k))
    envelope = REGISTRY.envelope(preset, d)
    gaps = list(zip(envelope.highs, envelope.lows[1:]))
    if gaps:
        hi, lo = data.draw(st.sampled_from(gaps))
        assert_served_exactly(preset, d, hi + frac * (lo - hi))
