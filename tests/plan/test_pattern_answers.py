"""Memoized programs price exactly what freshly built ones do.

``plan_pattern`` prices its candidates through the shared, memoized
``pattern_program`` step streams, stacked once per ``(pattern, d,
partition)`` and priced in one pass.  Over a seeded ``(d, m)`` grid, every
candidate's ``predicted_us`` must equal ``program_time`` of a program
built fresh by the hand-written oracle of
:mod:`tests.core.pattern_oracle`, compared bit for bit with
``float.hex()``, over every d in 1..10 — and so must it at block sizes
at the edges of the float domain, under alternating machine params, and
when the planner's decision leaves the exchange candidate out.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.programs import PATTERN_TABLE, pattern_program
from repro.model.optimizer import best_partition
from repro.model.params import hypothetical, ipsc860
from repro.plan import FixedPolicy, ModelPolicy
from repro.plan.patterns import PATTERNS, pattern_candidates, plan_pattern
from repro.plan.planner import CollectivePlanner
from repro.sim.fastpath import compile_program, program_time, program_times, stack_programs
from tests.core.pattern_oracle import oracle_program
from tests.sim.durations_oracle import oracle_totals

#: block sizes at the edges of the float domain: both zeros, the
#: smallest subnormal and a huge size whose prices stay finite
EDGE_BLOCK_SIZES = (0.0, -0.0, 5e-324, 1e300)


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


def assert_candidates_match_fresh_builds(pattern, m, d, params, planner, partition):
    decision = plan_pattern(pattern, m, d, params, planner=planner)
    assert decision.candidates, (pattern, d, m)
    for algorithm, predicted in decision.candidates:
        fresh_program = oracle_program(pattern, algorithm, d, partition=partition)
        fresh = program_time(fresh_program, m, params)
        assert predicted.hex() == fresh.hex(), (pattern, algorithm, d, m)
    return decision


@settings(deadline=None, max_examples=80)
@given(
    d=st.integers(min_value=1, max_value=10),
    m=st.one_of(
        st.sampled_from(EDGE_BLOCK_SIZES),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    use_planner=st.booleans(),
)
def test_stacked_prices_match_fresh_builds_at_any_block_size(d, m, use_planner):
    params = ipsc860()
    planner = CollectivePlanner(ModelPolicy(params)) if use_planner else None
    if planner is not None:
        partition = planner.decide(d, m).partition
    else:
        partition = best_partition(m, d, params).partition
    for pattern in PATTERNS:
        assert_candidates_match_fresh_builds(pattern, m, d, params, planner, partition)


def test_a_naive_decision_leaves_the_exchange_candidate_out(ipsc):
    """The naive rotation has no lockstep exchange program: allgather
    then scores doubling alone, while the model argmin at the same
    cell still scores both."""
    planner = CollectivePlanner(FixedPolicy(naive=True))
    for d, m in seeded_grid():
        decision = assert_candidates_match_fresh_builds(
            "allgather", m, d, ipsc, planner, None
        )
        assert [name for name, _ in decision.candidates] == ["doubling"]
        assert decision.algorithm == "doubling" and decision.partition is None
        both = plan_pattern("allgather", m, d, ipsc)
        assert sorted(name for name, _ in both.candidates) == ["doubling", "exchange"]


def test_alternating_params_price_with_their_own_constants():
    """One ``(pattern, d, partition)`` priced under alternating presets:
    every answer is the per-kind oracle's price of the fresh build on
    that preset (no compiled-program cache involved), so no price comes
    from columns cached for the other."""
    presets = (ipsc860(), hypothetical())
    for d, m in seeded_grid(seed=7, per_d=2):
        partition = best_partition(m, d, presets[0]).partition
        planner = CollectivePlanner(FixedPolicy(partition=partition))
        for params in presets * 3:
            for pattern in PATTERNS:
                for name, predicted, used in pattern_candidates(
                    pattern, m, d, params, planner=planner
                ):
                    assert used == (partition if name == "exchange" else None)
                    fresh = oracle_program(pattern, name, d, partition=partition)
                    want = oracle_totals(compile_program(fresh), [m], params)[0]
                    assert predicted.hex() == float(want).hex(), (pattern, name, d, m)


@pytest.mark.parametrize("d", range(1, 11))
def test_the_stacked_pass_equals_program_times(d):
    """Every contention-free ``PATTERN_TABLE`` program of a cube, at
    several partitions, stacked in one pass: each row equals that
    program's own ``program_times``, ``float.hex`` for ``float.hex``."""
    ms = [*EDGE_BLOCK_SIZES, 1.0, 40.0, 400.5, 4096.0]
    programs = [
        pattern_program(pattern, algorithm, d, partition=partition)
        for (pattern, algorithm), row in sorted(PATTERN_TABLE.items())
        for partition in (
            {(d,), (1,) * d, best_partition(40.0, d, ipsc860()).partition}
            if row.schedule == "multiphase" else {None}
        )
    ]
    programs = [program for program in programs if not program.contended]
    assert len({program.name for program in programs}) == len(PATTERN_TABLE) - 1
    stack = stack_programs(programs)
    for params in (ipsc860(), hypothetical(), ipsc860()):
        totals = stack.totals(ms, params)
        assert totals.shape == (len(programs), len(ms))
        for program, row in zip(programs, totals.tolist()):
            want = program_times(program, ms, params).tolist()
            assert [t.hex() for t in row] == [t.hex() for t in want], program.name
            oracle = oracle_totals(compile_program(program), ms, params).tolist()
            assert [t.hex() for t in row] == [t.hex() for t in oracle], program.name
