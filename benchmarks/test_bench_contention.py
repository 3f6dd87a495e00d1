"""Benchmark for experiment E10: contention discipline (paper §2, §4.2).

Three measurements:

1. every exchange step of every paper schedule is statically
   edge-contention-free (the Schmiermund-Seidel property);
2. the simulated paper schedules incur zero queueing delay;
3. a contention-oblivious baseline (rotation order, plain sends, no
   pairwise synchronization) pays a large measured penalty on identical
   traffic — §2's warning that programmers cannot ignore the network.
"""

from __future__ import annotations

from repro.comm.program import simulate, simulate_exchange
from repro.core.partitions import partitions
from repro.core.programs import PATTERN_TABLE, pattern_rounds
from repro.hypercube.contention import analyze_contention
from repro.util.bitops import bit_reverse


def test_bench_static_contention_validation(benchmark, archive):
    """Time the exhaustive static check over all p(6) schedules."""

    row = PATTERN_TABLE[("alltoall", "multiphase")]

    def validate_all():
        checked = 0
        for partition in partitions(6):
            for rnd in pattern_rounds(row, 6, 0, partition=partition):
                assert analyze_contention(rnd.circuits(0)).edge_contention_free
            checked += 1
        return checked

    checked = benchmark(validate_all)
    assert checked == 11

    # and show what a *bad* permutation looks like, for contrast
    report = analyze_contention([(x, bit_reverse(x, 6)) for x in range(64)])
    archive(
        "contention_static.txt",
        "\n".join(
            [
                f"all {checked} multiphase schedules for d=6: edge-contention-free",
                "",
                "contrast, bit-reversal permutation burst on d=6:",
                f"  {report.summary()}",
            ]
        ),
    )


def test_bench_naive_vs_scheduled(benchmark, ipsc, archive):
    """Measured cost of ignoring the machine (d=5, 64-byte blocks).

    The claims (over 1.5x slower, queueing only on the naive side) are
    asserted in ``tests/comm/test_simulate.py``."""
    d, m = 5, 64

    naive = benchmark.pedantic(
        simulate, args=("alltoall", "rotation", d, m, ipsc), rounds=1, iterations=1
    )
    ocs = simulate_exchange(d, m, (d,), ipsc)

    archive(
        "contention_measured.txt",
        "\n".join(
            [
                f"naive rotation all-to-all vs Optimal CS schedule (d={d}, m={m}B):",
                f"  naive:     {naive.time_us:10.1f} us  "
                f"(queueing {naive.trace.total_contention_wait:.0f} us summed)",
                f"  scheduled: {ocs.time_us:10.1f} us  (queueing 0 us)",
                f"  penalty:   {naive.time_us / ocs.time_us:.2f}x",
                "",
                "both byte-verified; identical message counts "
                f"({naive.trace.n_transmissions} vs {ocs.trace.n_transmissions} records)",
            ]
        ),
    )
