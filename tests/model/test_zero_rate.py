"""A zero rate prices ``+0.0``, whatever the block size.

On a machine with ``byte_time == 0`` or ``permute_time == 0`` the τ or
ρ term of eq. (3) is zero even where ``m·2**(d-d_i)`` or ``m·2**d``
overflows to ``inf``: it must never become ``0·inf = NaN``.  The scalar
model, the row kernel, the optimizer, the service resolver and the
certified pool envelope must agree by ``float.hex`` at the edges of the
float range, and none may warn.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.hypercube.topology import Link
from repro.model.cost import degraded_multiphase_time, multiphase_time
from repro.model.optimizer import best_partition, pool_envelope
from repro.model.params import ipsc860
from repro.model.vectorized import pool_rows, price_rows
from repro.service.batch import resolve_queries
from repro.service.registry import OptimizerRegistry
from repro.sim.faults import FaultPlan, LinkDegradation, Straggler

BLOCK_SIZES = (0.0, 1.0, 1e300, 1.7e308)
ZERO_RATES = {
    "tau": {"byte_time": 0.0},
    "rho": {"permute_time": 0.0},
    "both": {"byte_time": 0.0, "permute_time": 0.0},
}


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("rates", sorted(ZERO_RATES))
def test_every_path_prices_a_zero_rate_as_zero(rates, d):
    params = ipsc860().with_overrides(**ZERO_RATES[rates])
    pool, rows = pool_rows(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        envelope = pool_envelope(d, params)
        results = resolve_queries(
            OptimizerRegistry({"zero": params}), [("zero", d, m) for m in BLOCK_SIZES]
        )
        for m, result in zip(BLOCK_SIZES, results):
            scalar = [multiphase_time(m, d, p, params).hex() for p in pool]
            assert [t.hex() for t in price_rows(rows, m, params).tolist()] == scalar
            choice = best_partition(m, d, params)
            want = multiphase_time(m, d, choice.partition, params)
            assert result.partition == choice.partition
            assert result.time_us.hex() == choice.time.hex() == want.hex()
            # τ·m itself overflows only when τ > 0, at the float maximum
            if params.byte_time and m == 1.7e308:
                assert math.isinf(choice.time)
            else:
                assert math.isfinite(choice.time)
            at = envelope.index(m)
            if at >= 0:
                assert envelope.winners[at] == choice.partition
                assert float(price_rows(envelope.rows[at], m, params)).hex() == want.hex()
    assert envelope.winners
    assert all(map(math.isfinite, envelope.lows + envelope.highs))


@pytest.mark.parametrize("rates", sorted(ZERO_RATES))
def test_degraded_model_prices_a_zero_rate_as_zero(rates):
    params = ipsc860().with_overrides(**ZERO_RATES[rates])
    plan = FaultPlan(
        3,
        degradations=(LinkDegradation(Link(0, 1), latency_scale=2.0, bandwidth_scale=3.0),),
        stragglers=(Straggler(2, 1.5),),
    )
    for m in BLOCK_SIZES:
        for partition in ((3,), (1, 2), (1, 1, 1)):
            time_us = degraded_multiphase_time(m, 3, partition, params, plan)
            assert not math.isnan(time_us)
            if rates == "both":  # no term grows with m
                assert math.isfinite(time_us)
