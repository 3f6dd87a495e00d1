"""Agreement tests for the vectorized lockstep fast path.

The load-bearing guarantee mirrors PR 1/2's grid-vs-scalar property
tests: on contention-free schedules the fast path must equal
``simulate_exchange`` to **float equality** (``==``, not approx) across
the machine presets and every cube dimension the acceptance sweep
names (d ∈ {2..8}); the contended naive baseline must match the event
engine's simulated time within the documented tolerance (1e-12
relative — in practice the reservation replay is exact, and these
tests assert ``==``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.program import simulate, simulate_exchange
from repro.core.partitions import partitions
from repro.core.programs import (
    PATTERN_TABLE,
    BarrierStep,
    LocalShuffleStep,
    PairStep,
    pattern_program,
    pattern_rounds,
)
from repro.model.params import hypothetical, ipsc860
from repro.plan import CollectivePlanner, ContentionPolicy, FixedPolicy
from repro.sim.fastpath import (
    _compile_program,
    _compile_schedule,
    batch_exchange_times,
    compile_schedule,
    exchange_time,
    exchange_timeline,
    exchange_times,
    naive_contention_summary,
    naive_exchange_time,
    naive_timeline,
    program_time,
)
from tests.conftest import small_cube_cases
from tests.core.pattern_oracle import multiphase_exchange_steps

PRESET_PARAMS = (ipsc860(), hypothetical())

#: the acceptance sweep: one representative schedule set per dimension
#: (heavier dimensions use fewer event-engine replays to stay tier-1
#: cheap; the fast path itself is exercised at full width elsewhere)
AGREEMENT_PARTITIONS = {
    2: [(2,), (1, 1)],
    3: [(3,), (2, 1), (1, 1, 1)],
    4: [(4,), (2, 2), (1, 1, 1, 1)],
    5: [(5,), (3, 2), (2, 2, 1)],
    6: [(6,), (3, 3), (2, 2, 2)],
    7: [(4, 3), (1,) * 7],
    8: [(4, 4), (1,) * 8],
}


def params_strategy():
    """Presets plus randomized constants (sync handshake on and off)."""
    finite = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
    randomized = st.builds(
        lambda lam, tau, delta, rho, lam0, gamma, sync: ipsc860().with_overrides(
            latency=lam,
            byte_time=tau,
            hop_time=delta,
            permute_time=rho,
            sync_latency=lam0,
            global_sync_per_dim=gamma,
            pairwise_sync=sync,
        ),
        finite, finite, finite, finite, finite, finite, st.booleans(),
    )
    return st.one_of(st.sampled_from(PRESET_PARAMS), randomized)


class TestContentionFreeAgreement:
    """fast path == event engine, float equality, presets × d ∈ {2..8}."""

    @pytest.mark.parametrize("params", PRESET_PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("d", sorted(AGREEMENT_PARTITIONS))
    def test_acceptance_sweep_float_equality(self, params, d):
        ms = (0, 7, 24) if d <= 6 else (0, 24)
        for partition in AGREEMENT_PARTITIONS[d]:
            for m in ms:
                event = simulate_exchange(d, m, partition, params)
                assert exchange_time(d, m, partition, params) == event.time_us

    @settings(deadline=None, max_examples=30)
    @given(case=small_cube_cases(), m=st.integers(min_value=0, max_value=48),
           params=params_strategy())
    def test_property_random_schedules(self, case, m, params):
        """Random (d, partition, m, machine constants): still exact."""
        d, partition = case
        event = simulate_exchange(d, m, partition, params)
        assert exchange_time(d, m, partition, params) == event.time_us

    def test_default_partition_is_single_phase(self, ipsc):
        assert exchange_time(5, 16, None, ipsc) == exchange_time(5, 16, (5,), ipsc)

    def test_batched_block_sizes_match_scalar(self, ipsc):
        ms = [0, 1, 8, 24, 40, 160]
        batched = exchange_times(6, ms, (3, 3), ipsc)
        for m, total in zip(ms, batched):
            assert total == exchange_time(6, m, (3, 3), ipsc)


class TestDegenerateSchedules:
    """The lockstep assumption at its weakest: d=1, single-phase
    partitions, and zero-byte messages (satellite suite)."""

    @pytest.mark.parametrize("params", PRESET_PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("m", [0, 1, 16])
    def test_d1_exchange(self, params, m):
        event = simulate_exchange(1, m, (1,), params)
        assert exchange_time(1, m, (1,), params) == event.time_us

    @pytest.mark.parametrize("params", PRESET_PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("m", [0, 1, 16])
    def test_d1_naive(self, params, m):
        event = simulate("alltoall", "rotation", 1, m, params)
        assert naive_exchange_time(1, m, params) == event.time_us

    @pytest.mark.parametrize("params", PRESET_PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_single_phase_partitions(self, params, d):
        """(d,) has no shuffles at all — the k=1 special case."""
        for m in (0, 16):
            event = simulate_exchange(d, m, (d,), params)
            assert exchange_time(d, m, (d,), params) == event.time_us

    @pytest.mark.parametrize("params", PRESET_PARAMS, ids=lambda p: p.name)
    def test_zero_byte_messages(self, params):
        """m=0: every duration collapses to startup + distance terms."""
        for d, partition in ((3, (2, 1)), (4, (1, 1, 1, 1)), (5, (5,))):
            event = simulate_exchange(d, 0, partition, params)
            assert exchange_time(d, 0, partition, params) == event.time_us
        event = simulate("alltoall", "rotation", 3, 0, params)
        assert naive_exchange_time(3, 0, params) == event.time_us


class TestNaiveAgreement:
    """Contended naive baseline vs the event engine.

    Documented tolerance: 1e-12 relative.  The replay mirrors the
    engine's reservation discipline exactly, so equality is in fact
    bitwise — asserted as such below; any future divergence beyond the
    tolerance is a bug in the mirror, not acceptable drift.
    """

    @pytest.mark.parametrize("params", PRESET_PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_naive_times_match_event_engine(self, params, d):
        for m in (5, 16):
            event = simulate("alltoall", "rotation", d, m, params)
            fast = naive_exchange_time(d, m, params)
            assert fast == pytest.approx(event.time_us, rel=1e-12)
            assert fast == event.time_us  # exact in practice

    @pytest.mark.parametrize("params", PRESET_PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_rotation_row_replay_equals_event_engine(self, params, d):
        """The one sends-first replay prices the ``alltoall/rotation``
        row's rounds at ``==`` with the event engine's naive run."""
        program = pattern_program("alltoall", "rotation", d)
        assert program.contended
        for m in (0, 40):
            event = simulate("alltoall", "rotation", d, m, params)
            assert program_time(program, m, params) == event.time_us

    def test_naive_timeline_reconstructs_trace(self, ipsc):
        """Per-send grant intervals equal the event engine's
        transmission records (same src/dst/start/end multiset)."""
        event = simulate("alltoall", "rotation", 3, 8, ipsc)
        timeline = naive_timeline(3, 8, ipsc)
        got = sorted((s.src, s.dst, s.t_start, s.t_end) for s in timeline.sends)
        want = sorted(
            (t.src, t.dst, t.t_start, t.t_end) for t in event.trace.transmissions
        )
        assert got == want
        assert timeline.total == event.time_us
        assert timeline.total_wait == pytest.approx(
            event.trace.total_contention_wait, rel=1e-9
        )

    def test_naive_serialization_is_the_cost(self, ipsc):
        """The replay attributes real wait to contention: the naive
        time strictly exceeds an uncontended lower bound."""
        timeline = naive_timeline(4, 16, ipsc)
        assert timeline.contended_sends > 0
        assert timeline.total_wait > 0.0
        uncontended = max(
            send.t_issue + (send.t_end - send.t_start) for send in timeline.sends
        )
        assert timeline.total > uncontended - 1e-9


class TestTimelines:
    def test_per_step_timeline_matches_event_trace(self, ipsc):
        """Pair-step finish times equal the trace's transmission ends;
        barrier finishes equal the barrier releases."""
        d, m, partition = 4, 24, (2, 2)
        timeline = exchange_timeline(d, m, partition, ipsc)
        event = simulate_exchange(d, m, partition, ipsc)
        steps = timeline.program.steps
        barrier_finishes = [
            t for step, t in zip(steps, timeline.finish)
            if isinstance(step, BarrierStep)
        ]
        assert barrier_finishes == [b.t_release for b in event.trace.barriers]
        exchange_finishes = {
            float(t) for step, t in zip(steps, timeline.finish)
            if isinstance(step, PairStep)
        }
        assert exchange_finishes == {t.t_end for t in event.trace.transmissions}
        shuffle_finishes = [
            t for step, t in zip(steps, timeline.finish)
            if isinstance(step, LocalShuffleStep)
        ]
        assert set(shuffle_finishes) == {s.t_end for s in event.trace.shuffles}
        assert timeline.total == event.time_us

    def test_timeline_is_contiguous(self, ipsc):
        timeline = exchange_timeline(5, 16, (3, 2), ipsc)
        assert timeline.start[0] == 0.0
        assert np.array_equal(timeline.start[1:], timeline.finish[:-1])
        assert (timeline.finish >= timeline.start).all()

    def test_compiled_schedule_is_memoized(self):
        assert compile_schedule(6, (3, 3)) is compile_schedule(6, (3, 3))


class TestOneCompiledForm:
    """The exchange is priced only as its CommProgram."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_compiled_schedule_is_the_exchange_program(self, d):
        for parts in partitions(d):
            program = pattern_program("alltoall", "multiphase", d, partition=parts)
            assert compile_schedule(d, parts).program == program
            assert program == multiphase_exchange_steps(d, parts)

    def test_exchange_compile_is_one_cache_miss(self):
        _compile_schedule.cache_clear()
        before = _compile_program.cache_info()
        compile_schedule(7, (4, 2, 1))
        compile_schedule(7, (4, 2, 1))
        info = _compile_schedule.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert _compile_program.cache_info() == before


class TestBatch:
    def test_heterogeneous_batch_matches_scalars(self, ipsc):
        configs = [
            (5, 16, (3, 2)),
            (4, 0, (2, 2)),
            (5, 40, (3, 2)),
            (3, 8, None),       # naive baseline inside the batch
            (6, 24, (3, 3)),
            (5, 16, (5,)),
        ]
        got = batch_exchange_times(configs, ipsc)
        assert got.shape == (len(configs),)
        for (d, m, partition), total in zip(configs, got):
            if partition is None:
                assert total == naive_exchange_time(d, m, ipsc)
            else:
                assert total == exchange_time(d, m, partition, ipsc)

    def test_empty_batch(self, ipsc):
        assert batch_exchange_times([], ipsc).shape == (0,)

    def test_invalid_partition_rejected(self, ipsc):
        with pytest.raises(ValueError):
            batch_exchange_times([(4, 8, (3, 3))], ipsc)

    def test_negative_block_size_rejected(self, ipsc):
        with pytest.raises(ValueError):
            exchange_times(4, [8, -1], (2, 2), ipsc)
        with pytest.raises(ValueError):
            naive_exchange_time(3, -1, ipsc)

    @pytest.mark.parametrize("m", [float("nan"), float("inf")])
    def test_non_finite_block_size_rejected(self, ipsc, m):
        with pytest.raises(ValueError, match="finite"):
            exchange_time(3, m, (3,), ipsc)
        with pytest.raises(ValueError, match="finite"):
            exchange_times(4, [8, m], (2, 2), ipsc)
        with pytest.raises(ValueError, match="finite"):
            naive_exchange_time(3, m, ipsc)


class TestPricedRuns:
    """The fast path prices what :func:`simulate` runs, without a run."""

    def test_exchange_timeline_totals_the_run(self, ipsc):
        run = simulate_exchange(5, 16, (3, 2), ipsc)
        assert exchange_timeline(5, 16, (3, 2), ipsc).total == run.time_us
        program = pattern_program("alltoall", "multiphase", 5, partition=(3, 2))
        assert program_time(program, 16, ipsc) == run.time_us

    @pytest.mark.parametrize("naive", [False, True])
    def test_a_planned_run_is_priced_by_the_row_it_ran(self, ipsc, naive):
        policy = FixedPolicy(naive=True) if naive else ContentionPolicy(ipsc)
        run = simulate("alltoall", "multiphase", 4, 16, ipsc, planner=CollectivePlanner(policy))
        assert (run.row.algorithm == "rotation") == naive
        program = pattern_program("alltoall", run.row.algorithm, 4, partition=run.partition or None)
        assert program_time(program, 16, ipsc) == run.time_us
        assert len(run.trace.plan_decisions) == 1


class TestNaiveContentionSummary:
    def test_rotation_steps_individually_clean(self):
        """Every rotation step in isolation is link-clean under e-cube
        — the harm is drift, not the static schedule."""
        for d in (2, 3, 4):
            summary = naive_contention_summary(d, 8, ipsc860())
            assert summary.static_step_conflicts == 0

    def test_union_of_steps_is_contended(self, ipsc):
        summary = naive_contention_summary(4, 16, ipsc)
        assert summary.overlap_conflict_links > 0
        assert summary.overlap_max_edge_load > 1
        assert summary.contended_sends > 0
        assert summary.serialization_wait_us > 0.0
        assert summary.n_sends == 16 * 15
        assert summary.total_us == naive_exchange_time(4, 16, ipsc)

    def test_step_circuits_shape(self):
        rounds = pattern_rounds(PATTERN_TABLE["alltoall", "rotation"], 3, 0)
        assert rounds[0].circuits(0) == [(x, (x + 1) % 8) for x in range(8)]
        # one round per rotation step 1..7: none for step 0 or 8
        assert [rnd.offset for rnd in rounds] == list(range(1, 8))
