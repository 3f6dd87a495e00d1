"""Benchmarks regenerating Figures 4, 5, and 6 (experiments E5-E7).

Each figure benchmark:

1. produces the predicted curves for every partition the paper plots
   (dense model sweep over the 0-400 byte axis),
2. runs full data-moving simulations at sampled block sizes (the
   "measured" solid curves — every run byte-verified),
3. archives the ASCII rendering plus a winners table.

The timed section is one representative simulated exchange per figure
(the paper's headline configuration).  The figures' claims (the hulls,
1% agreement at every sampled point, Figure 6's factor two) are
asserted in ``tests/analysis/test_paper_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import figure_data, render_figure
from repro.comm.program import simulate_exchange

#: (figure, headline block size, headline partition)
CASES = [
    (4, 40, (3, 2)),
    (5, 24, (3, 3)),
    (6, 40, (4, 3)),
]

SIM_BLOCKS = (0, 8, 24, 40, 80, 160, 240, 320, 400)


@pytest.mark.parametrize("figure,headline_m,headline_partition", CASES)
def test_bench_figure(figure, headline_m, headline_partition, benchmark, ipsc, archive):
    spec_d = {4: 5, 5: 6, 6: 7}[figure]

    # timed: the paper's headline configuration, full data movement
    result = benchmark.pedantic(
        simulate_exchange,
        args=(spec_d, headline_m, headline_partition, ipsc),
        rounds=1,
        iterations=1,
    )
    result.verify()

    # untimed: the full figure reproduction
    data = figure_data(figure, params=ipsc, simulate=True, sim_block_sizes=SIM_BLOCKS)

    # winners table across the axis
    lines = [f"Figure {figure} (d={spec_d}, {1 << spec_d} nodes, {data.params_name})", ""]
    lines.append("block(B)  winner      time(s)   (per simulated measurement)")
    for m in SIM_BLOCKS:
        per = {
            c.label: c.measured_us[c.measured_block_sizes.index(float(m))]
            for c in data.curves
        }
        winner = min(per, key=lambda k: per[k])
        lines.append(f"{m:7d}   {winner:10s}  {per[winner] * 1e-6:8.5f}")
    lines.append("")
    hull_fmt = " -> ".join("{" + ",".join(map(str, sorted(h))) + "}" for h in data.hull_partitions)
    lines.append(f"hull of optimality: {hull_fmt}")
    lines.append(f"switch points (bytes): {[round(b, 1) for b in data.hull_boundaries]}")
    lines.append("")
    lines.append(render_figure(data))
    archive(f"figure{figure}.txt", "\n".join(lines))


def test_bench_figure6_factor_two_claim(benchmark, ipsc, archive):
    """Figure 6 caption: at d=7, m=40 the multiphase {3,4} against both
    classical algorithms (measured and archived)."""
    d, m = 7, 40

    t_34 = benchmark.pedantic(
        lambda: simulate_exchange(d, m, (4, 3), ipsc).time_us, rounds=1, iterations=1
    )
    t_se = simulate_exchange(d, m, (1,) * 7, ipsc).time_us
    t_ocs = simulate_exchange(d, m, (7,), ipsc).time_us

    archive(
        "figure6_caption.txt",
        "\n".join(
            [
                "Figure 6 caption check (d=7, 40-byte blocks, simulated):",
                f"  Standard Exchange {{1^7}}: {t_se * 1e-6:.4f} s   (paper: 0.037 s)",
                f"  Optimal CS {{7}}:          {t_ocs * 1e-6:.4f} s   (paper: 0.037 s)",
                f"  Multiphase {{3,4}}:        {t_34 * 1e-6:.4f} s   (paper: 0.016 s)",
                f"  speedup: {min(t_se, t_ocs) / t_34:.2f}x          (paper: 'more than twice')",
            ]
        ),
    )
