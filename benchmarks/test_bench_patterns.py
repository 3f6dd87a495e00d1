"""Benchmark for the §9 outlook: simpler patterns under the same model.

Measures broadcast, scatter, and allgather on the simulated machine
next to the best multiphase complete exchange, verifying the §3
upper-bound property ("the time required to execute the complete
exchange ... is an upper bound for the time required by any pattern")
and quantifying how much structure each simpler pattern exploits.
"""

from __future__ import annotations

from repro.comm.program import simulate_exchange
from repro.model.optimizer import best_partition
from repro.patterns import scatter_direct_time, scatter_time, simulate_pattern


def test_bench_patterns_vs_exchange(benchmark, ipsc, archive):
    d, m = 5, 40

    def measure_all():
        return {
            "broadcast": simulate_pattern("broadcast", "binomial", d, m, ipsc)[0],
            "scatter": simulate_pattern("scatter", "halving", d, m, ipsc)[0],
            "allgather": simulate_pattern("allgather", "doubling", d, m, ipsc)[0],
        }

    times = benchmark.pedantic(measure_all, rounds=1, iterations=1)

    choice = best_partition(m, d, ipsc)
    exchange = simulate_exchange(d, m, choice.partition, ipsc).time_us

    lines = [f"collective patterns on the simulated iPSC-860 (d={d}, m={m} B)", ""]
    lines.append("pattern                time(us)   vs best complete exchange")
    for name, t in sorted(times.items(), key=lambda kv: kv[1]):
        assert t <= exchange, f"{name} exceeded the complete-exchange bound"
        lines.append(f"{name:20s} {t:10.1f}   {t / exchange * 100:5.1f}%")
    label = "{" + ",".join(map(str, sorted(choice.partition))) + "}"
    lines.append(f"{'complete exchange ' + label:20s} {exchange:10.1f}   100.0%  (upper bound, §3)")
    lines.append("")
    lines.append("scatter variants (model): halving dominates direct at every size")
    for size in (1, 40, 400, 4000):
        lines.append(
            f"  m={size:5d}B  halving {scatter_time(size, d, ipsc):10.1f} us   "
            f"direct {scatter_direct_time(size, d, ipsc):10.1f} us"
        )
    archive("patterns.txt", "\n".join(lines))
