"""Fast-path timing engine vs the event engine on a validation sweep.

The acceptance bar for the fast-path refactor's serving economics: a
validation-style sweep — replaying a mix of planned schedules and the
contended naive baseline across dimensions and block sizes — must run
at least 10x faster through :mod:`repro.sim.fastpath` than through the
coroutine event engine (typically 100x+ is measured; ~20x was the
design target).  Exact agreement of every replayed time is asserted
alongside, so the speedup is never bought with drift.
"""

from __future__ import annotations

import time

import pytest

from repro.comm.program import simulate, simulate_exchange
from repro.sim.fastpath import (
    _compile_schedule,
    batch_exchange_times,
    naive_exchange_time,
)

#: the sweep: (d, m, partition) with partition None = naive baseline.
#: Sized so the event-engine side takes seconds, not minutes.
SWEEP_CONFIGS = (
    [(4, m, p) for m in (8, 24, 40, 80) for p in ((4,), (2, 2), (1, 1, 1, 1))]
    + [(5, m, p) for m in (8, 24, 40, 80) for p in ((5,), (3, 2))]
    + [(6, m, p) for m in (8, 24, 40) for p in ((3, 3), (2, 2, 2))]
    + [(7, 40, (4, 3))]
    + [(4, m, None) for m in (16, 40)]
    + [(5, 16, None)]
)


def run_event_engine(ipsc) -> list[float]:
    times = []
    for d, m, partition in SWEEP_CONFIGS:
        if partition is None:
            times.append(simulate("alltoall", "rotation", d, m, ipsc).time_us)
        else:
            times.append(simulate_exchange(d, m, partition, ipsc).time_us)
    return times


@pytest.mark.perf
def test_bench_fastpath_validation_sweep(ipsc, archive, record_metrics):
    """>= 10x wall-clock over the event engine, with exact agreement."""
    # cold fast path: include schedule compilation and replay costs
    _compile_schedule.cache_clear()
    naive_exchange_time.cache_clear()

    t0 = time.perf_counter()
    event_times = run_event_engine(ipsc)
    event_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast_times = batch_exchange_times(SWEEP_CONFIGS, ipsc)
    fast_s = time.perf_counter() - t0

    for config, event_us, fast_us in zip(SWEEP_CONFIGS, event_times, fast_times):
        assert fast_us == event_us, config

    speedup = event_s / fast_s if fast_s else float("inf")
    n_naive = sum(1 for _, _, p in SWEEP_CONFIGS if p is None)
    archive(
        "bench_fastpath.txt",
        "\n".join(
            [
                f"validation sweep: {len(SWEEP_CONFIGS)} configurations "
                f"({n_naive} naive-baseline, {len(SWEEP_CONFIGS) - n_naive} "
                f"contention-free), iPSC-860 constants",
                f"  event engine (coroutines):  {event_s * 1e3:9.2f} ms",
                f"  fast path (vectorized):     {fast_s * 1e3:9.2f} ms",
                f"  speedup: {speedup:.1f}x   (agreement: exact, all configs)",
            ]
        ),
    )
    record_metrics("fastpath", speedup=speedup)
    assert speedup >= 10.0, f"fast-path speedup only {speedup:.1f}x"
