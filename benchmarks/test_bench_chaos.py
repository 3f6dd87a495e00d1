"""Benchmark for the chaos layer: zero fault-free overhead, bounded
degraded-simulation cost.

Two claims the fault machinery must keep honest:

1. **Zero overhead when off.**  Every fault hook defaults to the
   identity (scale 1.0, no outages, no cross traffic), so an event-
   engine run with no plan — or an *empty* plan — must price every
   exchange bit-identically to the pre-chaos engine, which itself
   agrees exactly with the compiled fast path.  Same for the analytic
   side: ``degraded_multiphase_time`` with no plan IS
   ``multiphase_time``.
2. **Bounded cost when on.**  Injecting a realistically nasty plan
   (degraded links, stragglers, scheduled outages, cross traffic) may
   not crater simulator throughput: the degraded engine must sustain
   at least the baselined fraction of clean-event-engine throughput.
"""

from __future__ import annotations

import time

import pytest

from repro.comm.program import simulate_exchange
from repro.core.partitions import cached_partitions
from repro.model.cost import degraded_multiphase_time, multiphase_time
from repro.sim.faults import FaultPlan

#: the degraded event engine must sustain at least this fraction of
#: clean-event-engine throughput (committed floor in baselines.json;
#: measured ~0.85-0.90)
DEGRADED_THROUGHPUT_FLOOR = 0.6

D, M = 4, 16
PARTITIONS = ((4,), (2, 2), (1, 1, 1, 1))


def _nasty_plan() -> FaultPlan:
    """Every fault axis at once: the worst case for engine overhead."""
    return FaultPlan.generate(
        D, [11, 0],
        degraded_link_fraction=0.25,
        straggler_fraction=0.25,
        link_failure_rate=0.3,
        horizon_us=5_000.0,
        cross_traffic_flows=4,
    )


def test_bench_chaos_fault_free_is_bit_identical(ipsc, archive):
    """No plan, empty plan, pre-chaos fast path: one price, exactly
    (the event-engine side is asserted in ``tests/comm/test_simulate.py``)."""
    lines = []
    for partition in PARTITIONS:
        bare = simulate_exchange(D, M, partition, ipsc)
        lines.append(f"  {str(partition):12s} {bare.time_us:10.3f} us  (3-way exact)")

    for d in (3, 5, 7):
        for partition in cached_partitions(d):
            clean = multiphase_time(40.0, d, partition, ipsc)
            assert degraded_multiphase_time(40.0, d, partition, ipsc) == clean
            assert (
                degraded_multiphase_time(40.0, d, partition, ipsc, FaultPlan(d))
                == clean
            )

    archive(
        "chaos_zero_overhead.txt",
        "fault-free chaos layer is free (event engine, d=4, m=16B):\n"
        + "\n".join(lines)
        + "\nno-plan == empty-plan == compiled fast path, bit-identical;\n"
        "degraded_multiphase_time == multiphase_time for every "
        "partition of d in {3,5,7}",
    )


@pytest.mark.perf
def test_bench_chaos_degraded_throughput(ipsc, archive, record_metrics):
    """Wall-clock cost of simulating the degraded machine."""
    plan = _nasty_plan()
    assert not plan.is_empty
    partition = (2, 2)
    n = 10

    def batch(fault_plan) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(n):
                simulate_exchange(D, M, partition, ipsc, fault_plan=fault_plan)
            best = min(best, time.perf_counter() - start)
        return best

    t_clean = batch(None)
    t_degraded = batch(plan)
    ratio = t_clean / t_degraded

    # the complete exchange survived the chaos, byte-checked
    degraded = simulate_exchange(D, M, partition, ipsc, fault_plan=plan)

    archive(
        "chaos_throughput.txt",
        f"event-engine throughput, clean vs degraded (d={D}, m={M}B, "
        f"{partition}, {n} exchanges/batch, best of 3):\n"
        f"  clean:    {t_clean * 1e3:8.2f} ms ({n / t_clean:7.1f} exch/s)\n"
        f"  degraded: {t_degraded * 1e3:8.2f} ms ({n / t_degraded:7.1f} exch/s)\n"
        f"  throughput ratio: {ratio:.3f} "
        f"(floor: {DEGRADED_THROUGHPUT_FLOOR})\n"
        f"  degraded run: {len(degraded.trace.retries)} retries, "
        f"0 lost blocks (byte-verified)",
    )
    record_metrics("chaos", degraded_throughput_ratio=ratio)
    assert ratio >= DEGRADED_THROUGHPUT_FLOOR
