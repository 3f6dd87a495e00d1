"""The certified pool envelope against the full-pool optimizer.

Wherever :func:`repro.model.optimizer.pool_envelope` names a winner,
it must be ``best_partition``'s partition, and the row kernel's price
at that winner must equal ``multiphase_time`` bit for bit.  Block
sizes are drawn where rounding bites: every interval end and a few
ulps either side of it, subnormals, ``1e300`` and the largest float.
Everything outside the intervals must be left to the pool.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import cached_partitions
from repro.model.cost import multiphase_time
from repro.model.optimizer import _CHECK_MARGIN, best_partition, pool_envelope
from repro.model.params import MachineParams, hypothetical, ipsc860
from repro.model.vectorized import price_rows

EXTREMES = (5e-324, 2.0 ** -1060, sys.float_info.min, 1e-300, 1e300, sys.float_info.max)


def magnitude(zero: bool):
    """A constant from 1e-12 to 1e6 on a log scale, or (when ``zero``
    is allowed) exactly 0."""
    scaled = st.floats(min_value=-12.0, max_value=6.0).map(lambda e: 10.0 ** e)
    return st.one_of(st.just(0.0), scaled) if zero else scaled


params_strategy = st.builds(
    lambda lam, tau, delta, rho, lam0, gamma, sync: MachineParams(
        name="random", latency=lam, byte_time=tau, hop_time=delta, permute_time=rho,
        sync_latency=lam0, pairwise_sync=sync, global_sync_per_dim=gamma,
    ),
    magnitude(False), magnitude(False), magnitude(False), magnitude(True),
    magnitude(True), magnitude(True), st.booleans(),
)


def ulps(m: float, k: int) -> float:
    """``m`` moved ``k`` floats up (``k > 0``) or down."""
    for _ in range(abs(k)):
        m = math.nextafter(m, math.inf if k > 0 else -math.inf)
    return m


def probes(envelope, m_min: float) -> list[float]:
    points = [m_min, *EXTREMES]
    for end in envelope.lows + envelope.highs:
        points += [ulps(end, k) for k in range(-4, 5)]
    return [m for m in points if 0.0 <= m < math.inf]


def check(d: int, params: MachineParams, m_min: float) -> None:
    envelope = pool_envelope(d, params, m_min=m_min)
    assert len(envelope.lows) == len(envelope.highs) == len(envelope.winners)
    assert list(envelope.lows) == sorted(envelope.lows)
    for lo, hi, nxt in zip(envelope.lows, envelope.highs, envelope.lows[1:] + (math.inf,)):
        assert m_min <= lo <= hi < nxt
    for m in probes(envelope, m_min):
        at = envelope.index(m)
        inside = [lo <= m <= hi for lo, hi in zip(envelope.lows, envelope.highs)]
        assert at == (inside.index(True) if any(inside) else -1), m
        if at < 0:
            continue  # left to the pool
        winner = envelope.winners[at]
        assert winner == best_partition(m, d, params).partition, (d, m)
        price = float(price_rows(np.array(envelope.rows[at]), m, params))
        assert price.hex() == multiphase_time(m, d, winner, params).hex(), (d, m)


@settings(max_examples=120, deadline=None)
@given(params=params_strategy, d=st.integers(1, 12), m_min=st.sampled_from([0.0, 400.0]))
def test_certified_winners_are_the_pool_winners(params, d, m_min):
    check(d, params, m_min)


@pytest.mark.parametrize("params", [ipsc860(), hypothetical()], ids=lambda p: p.name)
@pytest.mark.parametrize("m_min", [0.0, 400.0])
def test_a_24_cube(params, m_min):
    check(24, params, m_min)


@pytest.mark.parametrize("d, segments", [(4, 3), (7, 5), (8, 5)])
def test_hypothetical_envelope_from_zero(d, segments):
    """The §4.3 machine switches partition several times below 100 B;
    each switch leaves a sliver uncertified between two intervals."""
    envelope = pool_envelope(d, hypothetical())
    assert len(envelope.winners) == segments
    assert envelope.winners[0] == (1,) * d and envelope.winners[-1] == (d,)
    for hi, lo in zip(envelope.highs, envelope.lows[1:]):
        assert hi < lo and (lo - hi) < 1e-6 * lo


@pytest.mark.parametrize("d", range(4, 9))
def test_ipsc860_past_the_sweep_bound_is_one_segment(d):
    """Past 400 B the single-phase optimal circuit-switched algorithm
    wins on the iPSC-860 from the bound until the float range runs
    out; subnormal and near-overflow sizes are not certified."""
    envelope = pool_envelope(d, ipsc860(), m_min=400.0)
    assert envelope.winners == ((d,),)
    assert envelope.lows == (400.0,) and 1e300 < envelope.highs[0] < 1e306
    assert envelope.index(sys.float_info.max) == -1
    assert pool_envelope(d, ipsc860()).index(5e-324) == -1


def test_no_certificate_where_the_bound_does_not_hold():
    """Subnormal constants, exact ties (all constants zero) and
    intercepts near the top of the float range certify nothing."""
    subnormal = ipsc860().with_overrides(byte_time=1e-310)
    still = MachineParams(name="still", latency=0.0, byte_time=0.0, hop_time=0.0,
                          permute_time=0.0)
    huge = ipsc860().with_overrides(latency=1e306)
    for params in (subnormal, still, huge):
        assert pool_envelope(6, params).winners == ()
    # one partition: nothing to beat, certified on the whole safe range
    assert pool_envelope(1, ipsc860()).winners == ((1,),)


def test_margin_covers_the_rounding_bound():
    """The check margin exceeds the kernel's γ_N (N = 5 + k, k <= 24
    phases) and the float line's γ_4 together, with room to spare."""
    u = 2.0 ** -53

    def gamma(n):
        return n * u / (1 - n * u)

    needed = (1 + gamma(30)) * (1 + gamma(4)) / ((1 - gamma(30)) * (1 - gamma(4))) - 1
    assert needed < 2.0 ** -46 < _CHECK_MARGIN
    assert max(len(p) for p in cached_partitions(24)) == 24
