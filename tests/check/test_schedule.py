"""Tests for the static schedule verifier (repro.check.schedule).

The verifier is a prover: a clean schedule must certify with zero
violations, and every corruption class must be rejected with the
*right* violation kind and a usable counterexample — a verifier that
rejects everything is as useless as one that accepts everything.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check import (
    verify_block_conservation,
    verify_circuit_steps,
    verify_pattern,
    verify_plan_decision,
    verify_program_coefficients,
    verify_schedule,
)
from repro.check.schedule import check_schedules, pattern_variants, verify_rounds
from repro.core.partitions import partitions
from repro.core.programs import (
    PATTERN_TABLE,
    SendStep,
    exchange_steps,
    pattern_program,
    pattern_rounds,
)
from repro.core.schedule import ExchangeStep, multiphase_schedule
from repro.plan.decision import PlanDecision
from repro.sim.fastpath import compile_program, compile_schedule
from repro.util.bitops import bit_reverse


def exchange_positions(steps):
    return [i for i, s in enumerate(steps) if isinstance(s, ExchangeStep)]


class TestCleanSchedulesCertify:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_partition_certifies(self, d):
        for parts in partitions(d):
            assert verify_schedule(d, parts) == [], (d, parts)

    def test_default_partition_is_single_phase(self):
        assert verify_schedule(4) == []

    def test_d6_spot_checks(self):
        for parts in [(6,), (3, 3), (1,) * 6, (2, 4)]:
            assert verify_schedule(6, parts) == []


class TestCircuitChecks:
    def test_xor_step_is_clean(self):
        d = 4
        circuits = [(x, x ^ 5) for x in range(1 << d)]
        assert verify_circuit_steps([circuits], d, target="t") == []

    def test_bit_reversal_rejected_with_edge_counterexample(self):
        d = 4
        circuits = [(x, bit_reverse(x, d)) for x in range(1 << d)]
        violations = verify_circuit_steps([circuits], d, target="t")
        kinds = {v.check for v in violations}
        assert "edge-contention" in kinds
        edge = next(v for v in violations if v.check == "edge-contention")
        # the counterexample names the sharing circuits
        assert len(edge.counterexample["circuits"]) >= 2
        assert edge.counterexample["load"] >= 2

    def test_duplicated_circuit_is_port_contention(self):
        d = 4
        circuits = [(x, x ^ 3) for x in range(1 << d)] + [(0, 3)]
        violations = verify_circuit_steps([circuits], d, target="t")
        kinds = {v.check for v in violations}
        assert "port-contention" in kinds and "edge-contention" in kinds
        port = next(v for v in violations if v.check == "port-contention")
        assert port.counterexample["node"] == 0

    def test_out_of_cube_circuit_rejected(self):
        violations = verify_circuit_steps([[(0, 99)]], 4, target="t")
        assert [v.check for v in violations] == ["ecube-route"]

    def test_step_indices_provenance(self):
        d = 3
        bad = [(x, bit_reverse(x, d)) for x in range(1 << d)]
        violations = verify_circuit_steps(
            [bad], d, target="t", step_indices=[17]
        )
        assert all(v.step_index == 17 for v in violations)

    def test_self_circuits_ignored(self):
        assert verify_circuit_steps([[(2, 2), (5, 5)]], 3, target="t") == []


class TestBlockConservation:
    def test_clean_schedule_conserves(self):
        steps = multiphase_schedule(5, (2, 3))
        assert verify_block_conservation(steps, 5, target="t") == []

    def test_dropped_step_is_undelivered(self):
        d = 4
        steps = multiphase_schedule(d, (2, 2))
        drop = exchange_positions(steps)[2]
        corrupted = steps[:drop] + steps[drop + 1:]
        violations = verify_block_conservation(corrupted, d, target="t")
        kinds = {v.check for v in violations}
        assert "block-undelivered" in kinds
        missing = next(v for v in violations if v.check == "block-undelivered")
        # counterexample pins a concrete lost block
        assert {"origin", "dest"} <= set(missing.counterexample)

    def test_duplicated_step_is_vacuous(self):
        d = 4
        steps = multiphase_schedule(d, (2, 2))
        dup = exchange_positions(steps)[1]
        corrupted = steps[: dup + 1] + [steps[dup]] + steps[dup + 1:]
        violations = verify_block_conservation(corrupted, d, target="t")
        assert [v.check for v in violations] == ["vacuous-step"]
        assert violations[0].step_index == dup + 1

    def test_repeated_offset_is_rejected(self):
        d = 4
        steps = [
            dataclasses.replace(s, offset=1)
            if isinstance(s, ExchangeStep) and s.offset == 2
            else s
            for s in multiphase_schedule(d, (2, 2))
        ]
        violations = verify_block_conservation(steps, d, target="t")
        kinds = {v.check for v in violations}
        assert "vacuous-step" in kinds  # the second offset-1 step moves nothing
        assert "block-undelivered" in kinds  # offset-2 blocks never travel

    def test_exchange_before_phase_start_rejected(self):
        steps = multiphase_schedule(3, (3,))
        violations = verify_block_conservation(steps[1:], 3, target="t")
        assert any(v.check == "phase-structure" for v in violations)

    def test_oversized_group_rejected(self):
        steps = multiphase_schedule(4, (4,))
        violations = verify_block_conservation(steps, 3, target="t")
        assert any(v.check == "step-domain" for v in violations)


class TestExchangeProgramCoefficients:
    """The exchange's one compiled form, certified against its own steps
    and against the multiphase schedule of its partition."""

    @pytest.mark.parametrize("parts", [(4,), (2, 2), (1, 1, 1, 1), (1, 3)])
    def test_compiled_schedules_certify(self, parts):
        assert verify_program_coefficients(compile_schedule(4, parts)) == []

    def test_forged_hops_rejected(self):
        compiled = compile_schedule(4, (2, 2))
        forged = dataclasses.replace(compiled, hops=compiled.hops.copy())
        forged.hops[3] += 1
        violations = verify_program_coefficients(forged)
        assert violations
        assert all(v.check == "coeff-mismatch" for v in violations)
        assert any(v.step_index == 3 for v in violations)

    def test_forged_bytes_rejected(self):
        compiled = compile_schedule(3, (3,))
        forged = dataclasses.replace(
            compiled, bytes_per_m=compiled.bytes_per_m * 2
        )
        violations = verify_program_coefficients(forged)
        assert any(v.check == "coeff-mismatch" for v in violations)

    def test_foreign_step_stream_rejected(self):
        compiled = compile_schedule(4, (2, 2))
        forged = dataclasses.replace(
            compiled, program=dataclasses.replace(
                compiled.program, steps=exchange_steps(4, (1, 3)).steps
            )
        )
        violations = verify_program_coefficients(forged)
        assert any(v.check == "coeff-mismatch" for v in violations)

    def test_foreign_program_compiled_whole_rejected(self):
        """Steps and arrays agree with each other, but they are another
        partition's: only the schedule check can see it."""
        program = dataclasses.replace(
            exchange_steps(4, (2, 2)), steps=exchange_steps(4, (1, 3)).steps
        )
        violations = verify_program_coefficients(compile_program(program))
        assert [v.check for v in violations] == ["coeff-mismatch"]

    def test_allgather_exchange_with_foreign_steps_rejected(self):
        program = dataclasses.replace(
            pattern_program("allgather", "exchange", 4, partition=(1, 3)),
            steps=exchange_steps(4, (3, 1)).steps,
        )
        violations = verify_program_coefficients(compile_program(program))
        assert [v.check for v in violations] == ["coeff-mismatch"]
        assert violations[0].step_index == 1

    def test_allgather_exchange_program_certifies(self):
        program = pattern_program("allgather", "exchange", 4, partition=(1, 3))
        assert verify_program_coefficients(compile_program(program)) == []

    def test_illegal_carried_partition_rejected(self):
        program = dataclasses.replace(exchange_steps(4, (2, 2)), partition=(3, 3))
        violations = verify_program_coefficients(compile_program(program))
        assert [v.check for v in violations] == ["program-structure"]


class TestProgramCoefficients:
    @pytest.mark.parametrize("pattern,algorithm", pattern_variants())
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_compiled_pattern_programs_certify(self, pattern, algorithm, d):
        compiled = compile_program(pattern_program(pattern, algorithm, d))
        assert verify_program_coefficients(compiled) == []

    @pytest.mark.parametrize("parts", [None, (2, 2), (1, 1, 1, 1)])
    def test_compiled_exchange_program_certifies(self, parts):
        compiled = compile_program(exchange_steps(4, parts))
        assert verify_program_coefficients(compiled) == []

    def test_forged_hops_rejected(self):
        compiled = compile_program(pattern_program("broadcast", "direct", 3))
        forged_hops = compiled.hops.copy()
        forged_hops[2] += 1
        forged = dataclasses.replace(compiled, hops=forged_hops)
        violations = verify_program_coefficients(forged)
        assert violations
        assert all(v.check == "coeff-mismatch" for v in violations)
        assert any(v.step_index == 2 for v in violations)

    def test_forged_bytes_rejected(self):
        compiled = compile_program(pattern_program("scatter", "halving", 4))
        forged = dataclasses.replace(
            compiled, bytes_per_m=compiled.bytes_per_m * 2
        )
        violations = verify_program_coefficients(forged)
        assert any(v.check == "coeff-mismatch" for v in violations)

    def test_forged_kind_rejected(self):
        compiled = compile_program(pattern_program("allgather", "doubling", 3))
        forged_kinds = compiled.kinds.copy()
        forged_kinds[-1] = 3  # a PairStep masquerading as a send
        forged = dataclasses.replace(compiled, kinds=forged_kinds)
        violations = verify_program_coefficients(forged)
        assert any(v.check == "coeff-mismatch" for v in violations)

    def test_structurally_broken_program_rejected(self):
        compiled = compile_program(pattern_program("broadcast", "binomial", 3))
        bad_steps = list(compiled.program.steps)
        bad_steps[1] = SendStep(src=2, dst=2, bytes_per_m=1)
        forged = dataclasses.replace(
            compiled, program=dataclasses.replace(
                compiled.program, steps=tuple(bad_steps)
            )
        )
        violations = verify_program_coefficients(forged)
        assert any(v.check == "program-structure" for v in violations)

    def test_truncated_arrays_rejected(self):
        compiled = compile_program(pattern_program("scatter", "direct", 3))
        forged = dataclasses.replace(compiled, kinds=compiled.kinds[:-1])
        violations = verify_program_coefficients(forged)
        assert any(v.check == "coeff-mismatch" for v in violations)


class TestPatterns:
    @pytest.mark.parametrize("pattern,algorithm", pattern_variants())
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_patterns_certify(self, pattern, algorithm, d):
        assert verify_pattern(pattern, algorithm, d) == []

    @pytest.mark.parametrize("root", [0, 1, 5])
    def test_nonzero_roots(self, root):
        for pattern, algorithm in pattern_variants():
            assert verify_pattern(pattern, algorithm, 3, root=root) == []

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError, match="allgather"):
            verify_pattern("allgather", "ring", 3)

    def test_exchange_backed_variant_is_left_to_verify_schedule(self):
        assert ("allgather", "exchange") not in pattern_variants()
        with pytest.raises(ValueError, match="exchange"):
            verify_pattern("allgather", "exchange", 3)


class TestDeliveryProof:
    """The generic abstract-holdings proof rejects broken rounds."""

    def test_dropped_round_is_undelivered(self):
        row = PATTERN_TABLE[("scatter", "halving")]
        rounds = pattern_rounds(row, 3, 0)
        violations = verify_rounds(row, rounds[:-1], 3, 0, target="t")
        assert [v.check for v in violations] == ["block-undelivered"]
        # node 0 still holds the block the last round would forward
        assert violations[0].counterexample == {"node": 0, "missing": [], "stray": [1]}

    def test_repeated_round_is_duplicated(self):
        row = PATTERN_TABLE[("broadcast", "binomial")]
        rounds = pattern_rounds(row, 3, 2)
        violations = verify_rounds(row, rounds + rounds[-1:], 3, 2, target="t")
        assert {v.check for v in violations} == {"block-duplicated"}
        assert {v.step_index for v in violations} == {3}

    def test_schedule_must_suit_the_semantics(self):
        tree = PATTERN_TABLE[("broadcast", "binomial")]
        allgather = dataclasses.replace(tree, pattern="allgather")
        violations = verify_rounds(
            allgather, pattern_rounds(tree, 3, 0), 3, 0, target="t"
        )
        assert [v.check for v in violations] == ["block-undelivered"]


class TestPlanDecisions:
    def _decision(self, **overrides):
        base = dict(
            d=4, m=32.0, algorithm="multiphase", partition=(2, 2),
            predicted_us=1.0, policy="model", source="policy",
        )
        base.update(overrides)
        return PlanDecision(**base)

    def test_partitioned_decision_certifies(self):
        assert verify_plan_decision(self._decision()) == []

    def test_naive_decision_certifies_per_step(self):
        decision = self._decision(
            algorithm="naive", partition=None, predicted_us=None
        )
        assert verify_plan_decision(decision) == []

    def test_illegal_partition_rejected(self):
        decision = self._decision(partition=(3, 3))
        violations = verify_plan_decision(decision)
        assert [v.check for v in violations] == ["plan-illegal"]


class TestDriver:
    def test_small_driver_run_certifies(self):
        report = check_schedules(dims=(2, 3), block_sizes=(40.0,))
        assert report.ok
        # schedules + patterns + planner decisions all certified
        assert any(c.startswith("schedule d=3") for c in report.certified)
        assert any(c.startswith("pattern ") for c in report.certified)
        assert any(c.startswith("plan ipsc860") for c in report.certified)

    def test_driver_respects_preset_subset(self):
        report = check_schedules(
            dims=(2,), presets=("hypothetical",), block_sizes=(8.0,)
        )
        assert report.ok
        assert not any("ipsc860" in c for c in report.certified)
