"""Application-kernel benchmarks (paper §3 workloads).

Times the distributed transpose, 2-D FFT, table lookup, and ADI step on
the abstract data engine, and reports the modelled communication time
each would spend on the calibrated iPSC-860 — connecting the paper's
0-160 byte sweet spot to the block sizes these applications actually
generate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.apps.adi import ADIProblem, run_adi
from repro.apps.fft2d import distributed_fft2
from repro.apps.lookup import DistributedTable, distributed_lookup
from repro.apps.transpose import distributed_transpose, transpose_block_size
from repro.model.optimizer import best_partition


def test_bench_transpose(benchmark, ipsc, archive):
    n_nodes, size = 16, 64
    rng = np.random.default_rng(0)
    a = rng.normal(size=(size, size))

    out = benchmark(distributed_transpose, a, n_nodes)
    assert np.array_equal(out, a.T)

    # what block size does this workload put on the wire, and what
    # partition would the optimizer pick for it?
    lines = ["distributed transpose block sizes on a 16-node (d=4) machine", ""]
    lines.append("matrix    block(B)   optimizer's partition")
    for grid in (16, 32, 64, 128, 256):
        m = transpose_block_size(grid, n_nodes, dtype=np.float32)
        choice = best_partition(float(m), 4, ipsc)
        lines.append(
            f"{grid:4d}^2    {m:7d}   {{{','.join(map(str, sorted(choice.partition)))}}}"
        )
    lines.append("")
    lines.append("small strong-scaled grids fall squarely in the multiphase regime")
    archive("apps_transpose.txt", "\n".join(lines))


def test_bench_fft2d(benchmark):
    rng = np.random.default_rng(1)
    g = rng.normal(size=(32, 32))
    out = benchmark(distributed_fft2, g, 8)
    assert np.allclose(out, np.fft.fft2(g))


def test_bench_lookup(benchmark):
    n_nodes, capacity = 8, 1024
    keys = np.arange(0, capacity, 2)
    table = DistributedTable(keys, keys * 0.5, n_nodes, capacity)
    rng = np.random.default_rng(2)
    queries = [rng.choice(keys, size=32, replace=False) for _ in range(n_nodes)]

    results = benchmark(distributed_lookup, table, queries)
    for q, r in zip(queries, results):
        assert np.array_equal(r, q * 0.5)


def test_bench_adi(benchmark):
    problem = ADIProblem(size=32, dt=1e-3)
    rng = np.random.default_rng(3)
    u0 = rng.normal(size=(32, 32))

    out = benchmark(run_adi, u0, problem, 8, 2)
    assert np.sum(out ** 2) < np.sum(u0 ** 2)


#: the fast-vs-event sweep: every compiled §9 pattern variant across
#: the dimensions the apps plan over.  Sized so the event-engine side
#: takes a second or two (the 64-node allgather/exchange dominates),
#: not minutes.
PATTERN_SWEEP = tuple(
    (pattern, algorithm, d, m)
    for pattern, algorithm in (
        ("broadcast", "binomial"),
        ("broadcast", "direct"),
        ("scatter", "halving"),
        ("scatter", "direct"),
        ("allgather", "doubling"),
        ("allgather", "exchange"),
    )
    for d in (4, 5, 6)
    for m in (8, 40)
)


def run_event_patterns(ipsc) -> list[float]:
    from repro.comm.program import simulate

    return [
        simulate(pattern, algorithm, d, m, ipsc).time_us
        for pattern, algorithm, d, m in PATTERN_SWEEP
    ]


@pytest.mark.perf
def test_bench_apps_fastpath(ipsc, archive, record_metrics):
    """Pricing the apps' collective repertoire — every §9 pattern
    program — must run >= 10x faster through the program compiler than
    through the event engine, with every priced time exactly equal;
    and the apps' own validation surface must do it with zero event
    engine boots."""
    from repro.analysis.validation import validate_policy
    from repro.core.programs import _pattern_program, pattern_program
    from repro.plan import ModelPolicy
    from repro.sim.fastpath import _compile_program, batch_program_times

    # cold fast path: include program build and compilation costs
    _pattern_program.cache_clear()
    _compile_program.cache_clear()

    t0 = time.perf_counter()
    event_times = run_event_patterns(ipsc)
    event_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    configs = [
        (pattern_program(pattern, algorithm, d), m)
        for pattern, algorithm, d, m in PATTERN_SWEEP
    ]
    fast_times = batch_program_times(configs, ipsc)
    fast_s = time.perf_counter() - t0

    for config, event_us, fast_us in zip(PATTERN_SWEEP, event_times, fast_times):
        assert fast_us == event_us, config

    # the apps' validation surface never boots the event engine
    report = validate_policy(ModelPolicy(ipsc), params=ipsc)
    assert report.engine_boots == 0, "fast path must never boot the event engine"

    speedup = event_s / fast_s if fast_s else float("inf")
    archive(
        "bench_apps_fastpath.txt",
        "\n".join(
            [
                f"pattern-program sweep: {len(PATTERN_SWEEP)} configurations "
                f"(6 variants x d=4..6 x 2 block sizes), iPSC-860 constants",
                f"  event engine (coroutines):  {event_s * 1e3:9.2f} ms",
                f"  program compiler (1 pass):  {fast_s * 1e3:9.2f} ms",
                f"  speedup: {speedup:.1f}x   (agreement: exact, all configs; "
                f"validation surface: 0 engine boots)",
            ]
        ),
    )
    record_metrics("apps_fastpath", speedup=speedup)
    assert speedup >= 10.0, f"apps fast-path speedup only {speedup:.1f}x"
