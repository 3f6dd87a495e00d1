#!/usr/bin/env python
"""Beyond the complete exchange: the paper's §9 outlook, implemented.

Three things the paper leaves as future work, run live:

1. the simpler collectives (broadcast, scatter, allgather) measured on
   the simulated iPSC-860 against the complete-exchange upper bound of
   §3;
2. the multiphase machinery routing an *arbitrary* traffic matrix (the
   §9 open problem), with the §6 optimizer generalized to pick a
   partition per requirement graph;
3. alternative within-phase schedule orderings (§4.2 / ICASE 91-4),
   shown byte-identical and lockstep-time-invariant.

Usage::

    python examples/beyond_the_exchange.py
"""

from __future__ import annotations

import numpy as np

from repro.comm.program import simulate, simulate_exchange
from repro.core.traffic import best_partition_for_traffic, uniform_traffic
from repro.core.variants import ORDERINGS, ordered_rounds
from repro.model.optimizer import best_partition
from repro.model.params import ipsc860


def fmt(partition) -> str:
    return "{" + ",".join(map(str, sorted(partition))) + "}"


def main() -> None:
    params = ipsc860()
    d, m = 5, 40

    # -- 1. simpler patterns vs the upper bound -------------------------
    print(f"collectives on a {1 << d}-node simulated iPSC-860, {m}-byte blocks")
    print("=" * 64)
    choice = best_partition(m, d, params)
    bound = simulate_exchange(d, m, choice.partition, params).time_us
    rows = [
        ("one-to-all broadcast", simulate("broadcast", "binomial", d, m, params).time_us),
        ("one-to-all personalized", simulate("scatter", "halving", d, m, params).time_us),
        ("all-to-all broadcast", simulate("allgather", "doubling", d, m, params).time_us),
        (f"complete exchange {fmt(choice.partition)}", bound),
    ]
    for name, t in rows:
        print(f"  {name:32s} {t * 1e-6:.5f} s   ({t / bound * 100:5.1f}% of the bound)")
    print("  (§3: the complete exchange upper-bounds every pattern — verified)")

    # -- 2. arbitrary traffic (§9 open problem) -------------------------
    print("\npartition choice per requirement graph (d=5, 40 B per pair):")
    n = 1 << d
    neighbour = np.zeros((n, n)); neighbour[np.arange(n), np.arange(n) ^ 1] = m
    hotspot = np.zeros((n, n)); hotspot[1:, 0] = m
    for name, traffic in [
        ("uniform (complete exchange)", uniform_traffic(d, m)),
        ("nearest-neighbour pairs", neighbour),
        ("hot-spot gather to node 0", hotspot),
    ]:
        partition, t = best_partition_for_traffic(traffic, params)
        print(f"  {name:30s} -> {fmt(partition):10s} {t * 1e-6:.5f} s")

    # -- 3. schedule-order variants --------------------------------------
    print("\nwithin-phase offset orderings (d=4, partition {2,2}):")
    from functools import partial

    from repro.core.blocks import BlockBuffer
    from repro.patterns.execute import pattern_node
    from repro.sim.machine import SimulatedHypercube

    for ordering in ORDERINGS:
        rounds = ordered_rounds(4, (2, 2), ordering)
        machine = SimulatedHypercube(4, params)
        run = machine.run(
            pattern_node, rounds=rounds, holdings=partial(BlockBuffer.initial, d=4, m=16)
        )
        for buf in run.node_results:
            buf.verify_complete_exchange_result()
        print(f"  {ordering:14s} {run.time * 1e-6:.5f} s  (byte-verified)")
    print("  orderings shape the temporal profile, not the lockstep total.")


if __name__ == "__main__":
    main()
