"""Unit tests for the program compiler (`compile_program` family).

The fast path's program compiler lowers any contention-free
:class:`~repro.core.programs.CommProgram` to coefficient arrays and
prices whole batches in one numpy pass.  These tests pin the compiler's
structure: the step streams ``pattern_program`` derives, coefficient extraction, batching,
validation errors, and degenerate shapes.  Exact agreement with the
event engine lives in ``test_program_agreement.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.programs import (
    BarrierStep,
    CommProgram,
    LocalShuffleStep,
    PairStep,
    PATTERN_TABLE,
    SendStep,
    exchange_steps,
    naive_rotation_steps,
    pattern_program,
)
from repro.sim.fastpath import (
    KIND_BARRIER,
    KIND_EXCHANGE,
    KIND_SEND,
    KIND_SHUFFLE,
    batch_program_times,
    compile_program,
    exchange_time,
    naive_exchange_time,
    program_time,
    program_timeline,
    program_times,
)
from repro.util.bitops import popcount


class TestBuilders:
    def test_broadcast_binomial_is_barrier_plus_d_sends(self):
        program = pattern_program("broadcast", "binomial", 4)
        assert program.name == "broadcast/binomial"
        assert isinstance(program.steps[0], BarrierStep)
        sends = program.steps[1:]
        assert len(sends) == 4
        for step in sends:
            assert isinstance(step, SendStep)
            assert step.bytes_per_m == 1
            assert step.hops == 1

    def test_broadcast_direct_hops_follow_popcount(self):
        program = pattern_program("broadcast", "direct", 3)
        sends = [s for s in program.steps if isinstance(s, SendStep)]
        assert len(sends) == 7
        assert [s.hops for s in sends] == [popcount(dst) for dst in range(1, 8)]

    def test_scatter_halving_halves_the_payload(self):
        program = pattern_program("scatter", "halving", 4)
        sends = [s for s in program.steps if isinstance(s, SendStep)]
        assert [s.bytes_per_m for s in sends] == [8, 4, 2, 1]

    def test_allgather_doubling_doubles_the_payload(self):
        program = pattern_program("allgather", "doubling", 4)
        pairs = [s for s in program.steps if isinstance(s, PairStep)]
        assert [p.bytes_per_m for p in pairs] == [1, 2, 4, 8]
        assert [p.shift for p in pairs] == [1, 2, 4, 8]

    def test_exchange_program_matches_exchange_time(self, ipsc):
        for d, partition in ((3, None), (4, (2, 2)), (5, (3, 2))):
            program = exchange_steps(d, partition)
            for m in (0.0, 1.0, 40.0):
                assert program_time(program, m, ipsc) == exchange_time(
                    d, m, partition, ipsc
                )

    def test_allgather_exchange_wraps_the_exchange(self, ipsc):
        program = pattern_program("allgather", "exchange", 4, partition=(2, 2))
        assert program.name == "allgather/exchange"
        assert program.partition == (2, 2)
        assert program_time(program, 16.0, ipsc) > 0

    def test_pattern_program_dispatch(self):
        assert pattern_program("broadcast", "binomial", 3).name == "broadcast/binomial"
        assert pattern_program("scatter", "halving", 3).name == "scatter/halving"
        assert pattern_program("allgather", "doubling", 3).name == "allgather/doubling"
        with pytest.raises(ValueError, match="no program"):
            pattern_program("reduce", "binomial", 3)
        with pytest.raises(ValueError, match="no program"):
            pattern_program("broadcast", "telepathy", 3)

    def test_programs_are_hashable_and_cached(self):
        program = pattern_program("broadcast", "binomial", 5)
        copy = CommProgram(name=program.name, d=program.d, steps=tuple(program.steps))
        # lru_cache on structurally equal frozen programs
        assert compile_program(copy) is compile_program(program)


class TestCompile:
    def test_coefficient_arrays(self):
        program = CommProgram(
            name="hand",
            d=3,
            steps=(
                BarrierStep(),
                SendStep(src=0, dst=5, bytes_per_m=2),
                PairStep(shift=3, bytes_per_m=4),
                LocalShuffleStep(bytes_per_m=8),
            ),
        )
        compiled = compile_program(program)
        assert compiled.kinds.tolist() == [
            KIND_BARRIER, KIND_SEND, KIND_EXCHANGE, KIND_SHUFFLE,
        ]
        assert compiled.bytes_per_m.tolist() == [0, 2, 4, 8]
        assert compiled.hops.tolist() == [0, 2, 2, 0]
        assert not compiled.kinds.flags.writeable

    def test_contended_program_refused(self):
        with pytest.raises(ValueError, match="contended"):
            compile_program(naive_rotation_steps(3))

    def test_send_outside_cube_refused(self):
        bad = CommProgram(name="bad", d=2, steps=(SendStep(0, 4, 1),))
        with pytest.raises(ValueError, match="outside"):
            compile_program(bad)

    def test_self_send_refused(self):
        bad = CommProgram(name="bad", d=2, steps=(SendStep(1, 1, 1),))
        with pytest.raises(ValueError, match="itself"):
            compile_program(bad)

    def test_zero_shift_refused(self):
        bad = CommProgram(name="bad", d=2, steps=(PairStep(0, 1),))
        with pytest.raises(ValueError, match="shift"):
            compile_program(bad)

    def test_negative_bytes_refused(self):
        bad = CommProgram(name="bad", d=2, steps=(PairStep(1, -3),))
        with pytest.raises(ValueError, match="negative"):
            compile_program(bad)


class TestPricing:
    def test_program_times_is_vectorized_program_time(self, ipsc):
        program = pattern_program("scatter", "halving", 4)
        ms = [0.0, 1.0, 8.0, 40.0, 160.0]
        batch = program_times(program, ms, ipsc)
        assert batch.shape == (5,)
        assert batch.tolist() == [program_time(program, m, ipsc) for m in ms]

    def test_empty_program_prices_to_zero(self, ipsc):
        empty = CommProgram(name="empty", d=2, steps=())
        assert program_time(empty, 40.0, ipsc) == 0.0
        assert program_timeline(empty, 40.0, ipsc).total == 0.0

    def test_timeline_chains_without_gaps(self, ipsc):
        program = pattern_program("broadcast", "binomial", 3)
        timeline = program_timeline(program, 16.0, ipsc)
        assert timeline.start[0] == 0.0
        assert np.array_equal(timeline.start[1:], timeline.finish[:-1])
        assert timeline.total == program_time(program, 16.0, ipsc)

    def test_dimension_one_and_zero_bytes(self, ipsc):
        programs = [pattern_program(*key, 1) for key in PATTERN_TABLE]
        for program in programs + [exchange_steps(1)]:
            assert program_time(program, 0.0, ipsc) >= 0.0
            assert program_time(program, 1.0, ipsc) >= program_time(
                program, 0.0, ipsc
            )


class TestBatchProgramTimes:
    def test_heterogeneous_batch_aligns_with_configs(self, ipsc):
        configs = [
            (pattern_program("broadcast", "binomial", 4), 16.0),
            (pattern_program("scatter", "halving", 3), 8.0),
            (pattern_program("broadcast", "binomial", 4), 40.0),
            (exchange_steps(5, (3, 2)), 24.0),
        ]
        batch = batch_program_times(configs, ipsc)
        assert batch.shape == (4,)
        for got, (program, m) in zip(batch, configs):
            assert got == program_time(program, m, ipsc)

    def test_naive_fallback_uses_reservation_replay(self, ipsc):
        configs = [
            (naive_rotation_steps(3), 16.0),
            (pattern_program("broadcast", "binomial", 3), 16.0),
        ]
        batch = batch_program_times(configs, ipsc)
        assert batch[0] == naive_exchange_time(3, 16.0, ipsc)
        assert batch[1] == program_time(configs[1][0], 16.0, ipsc)

    def test_unknown_contended_program_refused(self, ipsc):
        rogue = CommProgram(name="rogue", d=2, steps=(), contended=True)
        with pytest.raises(ValueError, match="no contention model"):
            batch_program_times([(rogue, 4.0)], ipsc)

    def test_empty_batch(self, ipsc):
        assert batch_program_times([], ipsc).shape == (0,)
