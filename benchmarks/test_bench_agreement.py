"""Benchmark for experiment E9: prediction vs measurement agreement.

The paper's Figures 4-6 show dashed (predicted) against solid
(measured) curves and report "good agreement".  Our measured substrate
is the calibrated simulator, so for contention-free schedules the
agreement must be essentially exact; this bench quantifies it across a
grid of dimensions, block sizes, and partitions, and archives the
relative errors.  The 1% bound on the grid is asserted in
``tests/analysis/test_paper_claims.py``.
"""

from __future__ import annotations

from repro.comm.program import simulate_exchange
from repro.model.cost import multiphase_time

GRID = [
    (4, 0, (2, 2)),
    (4, 100, (4,)),
    (5, 24, (3, 2)),
    (5, 200, (5,)),
    (5, 40, (1, 1, 1, 1, 1)),
    (6, 40, (3, 3)),
    (6, 160, (6,)),
    (7, 40, (4, 3)),
]


def test_bench_model_vs_simulation(benchmark, ipsc, archive):
    def measure_grid():
        rows = []
        for d, m, partition in GRID:
            predicted = multiphase_time(m, d, partition, ipsc)
            measured = simulate_exchange(d, m, partition, ipsc).time_us
            rows.append((d, m, partition, predicted, measured))
        return rows

    rows = benchmark.pedantic(measure_grid, rounds=1, iterations=1)

    lines = ["prediction vs simulation (dashed vs solid), iPSC-860 model", ""]
    lines.append("d   m(B)  partition        predicted(us)  simulated(us)  rel.err")
    worst = 0.0
    for d, m, partition, predicted, measured in rows:
        rel = abs(measured - predicted) / predicted
        worst = max(worst, rel)
        label = "{" + ",".join(map(str, sorted(partition))) + "}"
        lines.append(
            f"{d}  {m:4d}  {label:15s}  {predicted:13.1f}  {measured:13.1f}  {rel * 100:.4f}%"
        )
    lines.append("")
    lines.append(f"worst relative error: {worst * 100:.4f}%  (paper: 'good agreement')")
    archive("agreement.txt", "\n".join(lines))
