"""Memoized programs price exactly what freshly built ones do.

``plan_pattern`` prices its candidates through the shared, memoized
``pattern_program`` step streams.  Over a seeded ``(d, m)`` grid, every
candidate's ``predicted_us`` must equal ``program_time`` of a program
built fresh by the hand-written oracle of
:mod:`tests.core.pattern_oracle`, compared bit for bit with
``float.hex()``, over every d in 1..10.
"""

from __future__ import annotations

import random

import pytest

from repro.model.optimizer import best_partition
from repro.plan import ModelPolicy
from repro.plan.patterns import PATTERNS, plan_pattern
from repro.plan.planner import CollectivePlanner
from repro.sim.fastpath import program_time
from tests.core.pattern_oracle import oracle_program


def seeded_grid(seed: int = 2024, per_d: int = 3) -> list[tuple[int, float]]:
    rng = random.Random(seed)
    return [
        (d, rng.choice([0.0, 1.0, 8.0, 40.0, 160.0, 400.0, rng.uniform(0.0, 512.0)]))
        for d in range(1, 11)
        for _ in range(per_d)
    ]


@pytest.mark.parametrize("use_planner", [False, True], ids=["model-argmin", "planner"])
def test_candidate_prices_match_fresh_builds(ipsc, use_planner):
    planner = CollectivePlanner(ModelPolicy(ipsc)) if use_planner else None
    for d, m in seeded_grid():
        if planner is not None:
            partition = planner.decide(d, m).partition
        else:
            partition = best_partition(m, d, ipsc).partition
        for pattern in PATTERNS:
            decision = plan_pattern(pattern, m, d, ipsc, planner=planner)
            assert decision.candidates, (pattern, d, m)
            for algorithm, predicted in decision.candidates:
                fresh_program = oracle_program(pattern, algorithm, d, partition=partition)
                fresh = program_time(fresh_program, m, ipsc)
                assert predicted.hex() == fresh.hex(), (pattern, algorithm, d, m)
