"""Planner integration across comm, apps, and patterns.

The acceptance checks of the adaptive-planner refactor: every layer
that performs a collective routes through the planner, the naive
baseline is reachable through the comm layer, all four apps verify
under each policy, and decisions land in the simulator trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    ADIProblem,
    DistributedTable,
    adi_reference_step,
    distributed_fft2,
    distributed_lookup,
    distributed_transpose,
    run_adi,
)
from repro.comm import Communicator, simulate_exchange
from repro.comm.program import simulate
from repro.core.exchange import replay, run_exchange_on_rows
from repro.model.cost import multiphase_time
from repro.plan import CollectivePlanner, FixedPolicy, ModelPolicy, ServicePolicy, plan_pattern
from repro.sim.fastpath import exchange_time
from repro.sim.machine import SimulatedHypercube


def _random_rows(d: int, m: int, seed: int = 0) -> list[np.ndarray]:
    n = 1 << d
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=(n, m), dtype=np.uint8) for _ in range(n)]


def _policies(ipsc):
    return [
        FixedPolicy(params=ipsc),
        ModelPolicy(ipsc),
        ServicePolicy(preset="ipsc860"),
    ]


class TestNaiveRowsExchange:
    def test_matches_multiphase_result(self):
        rows = _random_rows(3, 5)
        naive = replay("rotation", rows=rows).rows()
        multiphase = run_exchange_on_rows(rows, (2, 1))
        for a, b in zip(naive, multiphase):
            assert np.array_equal(a, b)

    def test_defining_equation(self):
        rows = _random_rows(2, 4, seed=7)
        out = replay("rotation", rows=rows).rows()
        for x in range(4):
            for j in range(4):
                assert np.array_equal(out[x][j], rows[j][x])

    def test_single_node(self):
        rows = [np.arange(6, dtype=np.uint8).reshape(1, 6)]
        out = replay("rotation", rows=rows).rows()
        assert np.array_equal(out[0], rows[0])


class TestPlannedRowsExchange:
    def test_planner_selects_per_call(self, ipsc):
        planner = CollectivePlanner(ModelPolicy(ipsc))
        rows = _random_rows(3, 8)
        out = replay("multiphase", rows=rows, planner=planner).rows()
        for x in range(8):
            for j in range(8):
                assert np.array_equal(out[x][j], rows[j][x])
        assert planner.stats.policy_calls == 1
        assert planner.unique_decisions()[0].m == 8.0

    def test_naive_decision_routes_to_rotation(self):
        planner = CollectivePlanner(FixedPolicy(naive=True))
        rows = _random_rows(2, 4)
        out = replay("multiphase", rows=rows, planner=planner).rows()
        for x in range(4):
            for j in range(4):
                assert np.array_equal(out[x][j], rows[j][x])
        assert planner.unique_decisions()[0].algorithm == "naive"


class TestCommunicatorPlanner:
    def test_alltoall_with_planner_records_one_trace_decision(self, ipsc):
        d, m = 3, 12
        rows = _random_rows(d, m, seed=3)
        planner = CollectivePlanner(ModelPolicy(ipsc))

        def program(ctx):
            comm = Communicator(ctx)
            recv = yield from comm.Alltoall(rows[ctx.rank], planner=planner)
            return recv

        machine = SimulatedHypercube(d, ipsc)
        run = machine.run(program)
        for x in range(1 << d):
            for j in range(1 << d):
                assert np.array_equal(run.node_results[x][j], rows[j][x])
        # one policy call (rank 0), cache hits for the other ranks,
        # exactly one plan record in the trace
        assert planner.stats.policy_calls == 1
        assert planner.stats.cache_hits == (1 << d) - 1
        assert len(run.trace.plan_decisions) == 1
        record = run.trace.plan_decisions[0]
        assert (record.d, record.m) == (d, float(m))
        assert record.partition == planner.unique_decisions()[0].partition

    def test_alltoall_naive_algorithm(self, ipsc):
        d, m = 2, 6
        rows = _random_rows(d, m, seed=4)

        def program(ctx):
            comm = Communicator(ctx)
            recv = yield from comm.Alltoall(rows[ctx.rank], algorithm="naive")
            return recv

        run = SimulatedHypercube(d, ipsc).run(program)
        for x in range(4):
            for j in range(4):
                assert np.array_equal(run.node_results[x][j], rows[j][x])

    def test_alltoall_rejects_planner_plus_partition(self, ipsc):
        planner = CollectivePlanner(FixedPolicy())

        def program(ctx):
            comm = Communicator(ctx)
            recv = yield from comm.Alltoall(
                np.zeros((ctx.n, 4), dtype=np.uint8), planner=planner, partition=(2,)
            )
            return recv

        with pytest.raises(ValueError, match="not both"):
            SimulatedHypercube(2, ipsc).run(program)

    def test_alltoall_standard_algorithm_runs_the_standard_schedule(self, ipsc):
        """algorithm='standard' must mean (1,)*d, not the single-phase
        default (regression: it used to silently run (d,))."""
        d, m = 3, 8
        rows = _random_rows(d, m, seed=5)

        def program(ctx):
            comm = Communicator(ctx)
            recv = yield from comm.Alltoall(rows[ctx.rank], algorithm="standard")
            return recv

        run = SimulatedHypercube(d, ipsc).run(program)
        for x in range(1 << d):
            for j in range(1 << d):
                assert np.array_equal(run.node_results[x][j], rows[j][x])
        assert run.time == simulate_exchange(d, m, (1,) * d, ipsc).time_us
        assert run.time != simulate_exchange(d, m, (d,), ipsc).time_us

    def test_alltoall_multiphase_needs_a_partition(self, ipsc):
        def program(ctx):
            comm = Communicator(ctx)
            recv = yield from comm.Alltoall(
                np.zeros((ctx.n, 4), dtype=np.uint8), algorithm="multiphase"
            )
            return recv

        with pytest.raises(ValueError, match="needs an explicit partition"):
            SimulatedHypercube(2, ipsc).run(program)

    def test_alltoall_rejects_contradictory_algorithm_and_partition(self, ipsc):
        def program(ctx):
            comm = Communicator(ctx)
            recv = yield from comm.Alltoall(
                np.zeros((ctx.n, 4), dtype=np.uint8),
                algorithm="standard", partition=(2,),
            )
            return recv

        with pytest.raises(ValueError, match="realizes 'single-phase'"):
            SimulatedHypercube(2, ipsc).run(program)

    def test_alltoall_rejects_naive_with_partition(self, ipsc):
        def program(ctx):
            comm = Communicator(ctx)
            recv = yield from comm.Alltoall(
                np.zeros((ctx.n, 4), dtype=np.uint8),
                algorithm="naive", partition=(2,),
            )
            return recv

        with pytest.raises(ValueError, match="no partition"):
            SimulatedHypercube(2, ipsc).run(program)

    def test_alltoall_rejects_unknown_algorithm(self, ipsc):
        def program(ctx):
            comm = Communicator(ctx)
            recv = yield from comm.Alltoall(
                np.zeros((ctx.n, 4), dtype=np.uint8), algorithm="telepathy"
            )
            return recv

        with pytest.raises(ValueError, match="telepathy"):
            SimulatedHypercube(2, ipsc).run(program)


class TestSimulateWithAPlanner:
    def test_matches_direct_simulation(self, ipsc):
        planner = CollectivePlanner(ModelPolicy(ipsc))
        planned = simulate("alltoall", "multiphase", 4, 24, ipsc, planner=planner)
        direct = simulate_exchange(4, 24, planned.partition, ipsc)
        assert planned.time_us == direct.time_us
        assert planned.decision.partition == planned.partition
        assert len(planned.trace.plan_decisions) == 1

    def test_naive_decision_runs_the_rotation_schedule(self, ipsc):
        planner = CollectivePlanner(FixedPolicy(naive=True))
        result = simulate("alltoall", "multiphase", 3, 16, ipsc, planner=planner)
        assert result.partition == ()
        assert result.decision.algorithm == "naive"
        assert result.trace.plan_decisions[0].predicted_us is None
        # prediction-free, but still measured and byte-verified
        assert result.time_us > 0

    def test_predicted_agrees_with_simulated_for_model_policy(self, ipsc):
        planner = CollectivePlanner(ModelPolicy(ipsc))
        result = simulate("alltoall", "multiphase", 5, 40, ipsc, planner=planner)
        predicted = result.decision.predicted_us
        assert predicted == multiphase_time(40, 5, result.partition, ipsc)
        assert abs(result.time_us - predicted) / predicted < 0.01


class TestAppsUnderEveryPolicy:
    @pytest.fixture(params=["fixed", "model", "service"])
    def planner(self, request, ipsc):
        policies = dict(zip(["fixed", "model", "service"], _policies(ipsc)))
        return CollectivePlanner(policies[request.param])

    def test_transpose_verified(self, planner):
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((16, 16))
        assert np.array_equal(
            distributed_transpose(matrix, 8, planner=planner), matrix.T
        )

    def test_fft2d_verified(self, planner):
        rng = np.random.default_rng(12)
        grid = rng.standard_normal((8, 8))
        assert np.allclose(distributed_fft2(grid, 4, planner=planner), np.fft.fft2(grid))

    def test_lookup_verified(self, planner):
        rng = np.random.default_rng(13)
        keys = np.arange(0, 64, 3)
        table = DistributedTable(keys, keys * 2.0, 16, 64)
        queries = [rng.choice(keys, size=3) for _ in range(16)]
        answers = distributed_lookup(table, queries, planner=planner)
        for q, a in zip(queries, answers):
            assert np.array_equal(a, q * 2.0)

    def test_adi_verified(self, planner):
        problem = ADIProblem(size=16, dt=2e-4)
        u0 = np.zeros((16, 16))
        u0[6:10, 6:10] = 100.0
        got = run_adi(u0, problem, 8, 2, planner=planner)
        ref = adi_reference_step(adi_reference_step(u0, problem), problem)
        assert np.allclose(got, ref, atol=1e-12)

    def test_apps_reject_planner_plus_partition(self, planner):
        with pytest.raises(ValueError, match="not both"):
            distributed_transpose(
                np.zeros((8, 8)), 4, planner=planner, partition=(2,)
            )


class TestPatternsPlanning:
    def test_scatter_candidates_and_winner(self, ipsc):
        decision = plan_pattern("scatter", 40.0, 5, ipsc)
        assert decision.algorithm == "halving"
        names = [name for name, _ in decision.candidates]
        assert set(names) == {"halving", "direct"}
        times = [t for _, t in decision.candidates]
        assert times == sorted(times)

    def test_broadcast_winner(self, ipsc):
        decision = plan_pattern("broadcast", 40.0, 5, ipsc)
        assert decision.algorithm == "binomial"

    def test_allgather_exchange_candidate_uses_planner_partition(self, ipsc):
        planner = CollectivePlanner(ModelPolicy(ipsc))
        decision = plan_pattern("allgather", 40.0, 5, ipsc, planner=planner)
        assert decision.algorithm == "doubling"
        exchange = dict(decision.candidates)["exchange"]
        # candidates are priced by the compiled fast path, which agrees
        # with the analytic model on contention-free schedules
        partition = planner.unique_decisions()[0].partition
        assert exchange == exchange_time(5, 40.0, partition, ipsc)
        assert exchange == pytest.approx(multiphase_time(40.0, 5, partition, ipsc))

    def test_allgather_with_naive_planner_drops_the_exchange_candidate(self, ipsc):
        """A naive decision has no analytic model, so the pattern
        planner must not advertise an 'exchange' candidate priced as a
        partition schedule that would not actually run."""
        planner = CollectivePlanner(FixedPolicy(naive=True))
        decision = plan_pattern("allgather", 40.0, 5, ipsc, planner=planner)
        assert decision.algorithm == "doubling"
        assert [name for name, _ in decision.candidates] == ["doubling"]

    def test_unknown_pattern_rejected(self, ipsc):
        with pytest.raises(ValueError, match="unknown pattern"):
            plan_pattern("reduce", 8.0, 3, ipsc)

    @pytest.mark.parametrize("algorithm", ["binomial", "direct"])
    def test_simulated_broadcast_verifies_under_every_algorithm(self, ipsc, algorithm):
        time_us = simulate("broadcast", algorithm, 3, 16, ipsc).time_us
        assert time_us > 0

    @pytest.mark.parametrize("algorithm", ["halving", "direct"])
    def test_simulated_scatter_verifies_under_every_algorithm(self, ipsc, algorithm):
        time_us = simulate("scatter", algorithm, 3, 16, ipsc).time_us
        assert time_us > 0

    @pytest.mark.parametrize("algorithm", ["doubling", "exchange"])
    def test_simulated_allgather_verifies_under_every_algorithm(self, ipsc, algorithm):
        time_us = simulate("allgather", algorithm, 3, 16, ipsc).time_us
        assert time_us > 0

    @pytest.mark.parametrize("pattern", ["broadcast", "scatter", "allgather"])
    def test_the_planned_algorithm_runs_at_its_predicted_time(self, ipsc, pattern):
        decision = plan_pattern(pattern, 16.0, 3, ipsc)
        result = simulate(pattern, decision.algorithm, 3, 16, ipsc, partition=decision.partition)
        assert result.time_us == decision.predicted_us

    def test_allgather_exchange_honours_planner(self, ipsc):
        planner = CollectivePlanner(ModelPolicy(ipsc))
        result = simulate("allgather", "exchange", 3, 16, ipsc, planner=planner)
        time_us, run = result.time_us, result.run
        assert time_us > 0
        assert planner.stats.policy_calls == 1
        assert len(run.trace.plan_decisions) == 1

    def test_direct_variants_cost_more_startups(self, ipsc):
        t_tree = simulate("broadcast", "binomial", 4, 16, ipsc).time_us
        t_direct = simulate("broadcast", "direct", 4, 16, ipsc).time_us
        assert t_direct > t_tree
        t_halving = simulate("scatter", "halving", 4, 16, ipsc).time_us
        t_direct = simulate("scatter", "direct", 4, 16, ipsc).time_us
        assert t_direct > t_halving
