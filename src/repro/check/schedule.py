"""Static schedule verifier: whole-schedule proofs, no simulator.

Lifts the per-step contention oracle of
:mod:`repro.hypercube.contention` to whole-schedule certificates for
every declared algorithm — the complete exchange at every
``(d, partition)``, each §9 pattern, and the collectives the planner
emits — without invoking :mod:`repro.sim.engine`.  Every certificate
is computed from the rounds the engines run
(:func:`repro.core.programs.pattern_rounds`).  Four invariant
families:

* **circuit disjointness** — every round's circuit set is edge-disjoint
  (no two circuits share a directed link under e-cube) *and*
  port-disjoint (no node sources or sinks two circuits at once); a
  failure names the shared resource and the circuits holding it;
* **route legality** — every circuit's e-cube route starts at its
  source, ends at its destination, flips exactly one bit per hop, and
  crosses dimensions in strictly ascending order (the fixed routing
  every contention conclusion rests on);
* **delivery** — :func:`repro.core.programs.replay_pattern`, the
  lockstep loop the data engines run, replays abstract holdings and
  proves that every circuit carries a block, no block reaches a node
  twice, and every node ends holding exactly its pattern's blocks:
  dropped rounds surface as undelivered blocks, duplicated rounds as
  vacuous circuits;
* **coefficient fidelity** — the fast path's compiled per-step
  coefficients (:class:`repro.sim.fastpath.CompiledProgram`, the one
  compiled form of the exchange and of every §9 pattern program) must
  structurally match the program step stream they claim to price, and
  an exchange-backed program's must also match the phases of its
  partition, recomputed independently of the rounds; the naive
  rotation's sends-first replay must grant exactly its certified
  circuits, never two on one link or port at once.

Every function returns plain :class:`~repro.check.report.Violation`
lists so callers can compose them into one
:class:`~repro.check.report.CheckReport`; :func:`check_schedules` is
the ``repro check --schedules`` driver.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from typing import Callable, Iterable, Sequence

from repro.check.report import CheckReport, Violation
from repro.core.blocks import BlockBuffer, BlockSet
from repro.core.partitions import partitions
from repro.core.programs import (
    PATTERN_TABLE,
    BarrierStep,
    CommProgram,
    KeyHoldings,
    LocalShuffleStep,
    PairStep,
    PatternAlgorithm,
    Round,
    SendStep,
    pattern_program,
    pattern_rounds,
    replay_pattern,
    resolve_pattern,
)
from repro.hypercube.routing import ecube_path_edges
from repro.hypercube.topology import Link
from repro.model.params import PRESETS, MachineParams, ipsc860
from repro.plan.decision import PlanDecision, format_partition
from repro.sim.fastpath import (
    KIND_BARRIER,
    KIND_EXCHANGE,
    KIND_SEND,
    KIND_SHUFFLE,
    CompiledProgram,
    compile_program,
    compile_schedule,
    contended_timeline,
)
from repro.util.bitops import popcount
from repro.util.validation import check_dimension, check_node, check_partition

__all__ = [
    "CHECK_DIMS",
    "CHECK_SIZES",
    "check_schedules",
    "pattern_variants",
    "verify_circuit_steps",
    "verify_pattern",
    "verify_plan_decision",
    "verify_program_coefficients",
    "verify_replay",
    "verify_rounds",
    "verify_schedule",
]

#: cube dimensions ``repro check --schedules`` certifies by default
CHECK_DIMS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
#: block sizes at which planner-emitted collectives are sampled
CHECK_SIZES: tuple[float, ...] = (8.0, 40.0, 160.0)

Circuit = tuple[int, int]


def _schedule_target(d: int, partition: Sequence[int]) -> str:
    return f"schedule d={d} {format_partition(partition)}"


# ----------------------------------------------------------------------
# circuit-level invariants: routes, ports, edges
# ----------------------------------------------------------------------
def verify_circuit_steps(
    circuit_steps: Sequence[Iterable[Circuit]],
    d: int,
    *,
    target: str,
) -> list[Violation]:
    """Prove every step's circuit set route-legal and edge/port-disjoint.

    ``circuit_steps[i]`` is the set of ``(src, dst)`` circuits held
    simultaneously during step ``i``.  Self-circuits (``src == dst``) hold no resources and are ignored,
    matching :func:`~repro.hypercube.contention.analyze_contention`.
    Each circuit is routed once; its link list serves route legality,
    edge loads and the counterexample's holders.
    """
    check_dimension(d, minimum=1)
    n = 1 << d
    violations: list[Violation] = []
    for index, raw_circuits in enumerate(circuit_steps):
        routed: list[tuple[Circuit, list[Link]]] = []
        for src, dst in raw_circuits:
            if src == dst:
                continue
            edges = ecube_path_edges(src, dst) if src >= 0 and dst >= 0 else []
            routed.append(((src, dst), edges))
            violations.extend(_verify_route(src, dst, edges, n, target, index))
        violations.extend(_verify_ports([c for c, _ in routed], target, index))
        violations.extend(_verify_edges(routed, target, index))
    return violations


def _verify_route(
    src: int, dst: int, edges: Sequence[Link], n: int, target: str, index: int
) -> list[Violation]:
    """Route legality: in-range endpoints, one ascending bit per hop."""
    if not (0 <= src < n and 0 <= dst < n):
        return [Violation(
            check="ecube-route",
            target=target,
            message=f"circuit {src}->{dst} leaves the {n}-node cube",
            step_index=index,
            counterexample={"src": src, "dst": dst, "n_nodes": n},
            fix_hint="schedule offsets/groups must stay inside the cube's label bits",
        )]
    violations: list[Violation] = []
    previous_dim = -1
    current = src
    for edge in edges:
        flipped = edge.src ^ edge.dst
        dim = flipped.bit_length() - 1
        if edge.src != current or popcount(flipped) != 1 or dim <= previous_dim:
            violations.append(Violation(
                check="ecube-route",
                target=target,
                message=(
                    f"circuit {src}->{dst}: hop {edge} is not a legal "
                    f"dimension-ordered e-cube hop"
                ),
                step_index=index,
                counterexample={
                    "src": src, "dst": dst, "hop": str(edge),
                    "previous_dimension": previous_dim,
                },
                fix_hint="e-cube must flip exactly one differing bit, lowest first",
            ))
            return violations
        previous_dim = dim
        current = edge.dst
    if current != dst or len(edges) != popcount(src ^ dst):
        violations.append(Violation(
            check="ecube-route",
            target=target,
            message=f"circuit {src}->{dst}: route ends at {current} "
                    f"after {len(edges)} hops (expected {popcount(src ^ dst)})",
            step_index=index,
            counterexample={"src": src, "dst": dst, "ends_at": current},
            fix_hint="the route must correct exactly the differing bits",
        ))
    return violations


def _verify_ports(
    circuits: Sequence[Circuit], target: str, index: int
) -> list[Violation]:
    """Port disjointness: no node sources or sinks two circuits."""
    violations: list[Violation] = []
    for role, position in (("source", 0), ("destination", 1)):
        seen: dict[int, list[Circuit]] = {}
        for circuit in circuits:
            seen.setdefault(circuit[position], []).append(circuit)
        for node, holders in sorted(seen.items()):
            if len(holders) > 1:
                violations.append(Violation(
                    check="port-contention",
                    target=target,
                    message=f"node {node} is the {role} of "
                            f"{len(holders)} simultaneous circuits",
                    step_index=index,
                    counterexample={"node": node, "role": role,
                                    "circuits": [list(c) for c in holders]},
                    fix_hint="a node's port serializes; one circuit per step per role",
                ))
    return violations


def _verify_edges(
    routed: Sequence[tuple[Circuit, list[Link]]], target: str, index: int
) -> list[Violation]:
    """Edge disjointness, with the sharing circuits as counterexample."""
    load = Counter(edge for _, edges in routed for edge in edges)
    conflicts = sorted(
        ((link, count) for link, count in load.items() if count > 1),
        key=lambda kv: str(kv[0]),
    )
    violations: list[Violation] = []
    for link, count in conflicts:
        holders = [circuit for circuit, edges in routed if link in edges]
        violations.append(Violation(
            check="edge-contention",
            target=target,
            message=f"link {link} is held by {count} circuits at once",
            step_index=index,
            counterexample={"link": str(link), "load": count,
                            "circuits": [list(c) for c in holders]},
            fix_hint="simultaneous circuits must use disjoint e-cube links "
                     "(paper §2: edge contention is disastrous)",
        ))
    return violations


# ----------------------------------------------------------------------
# fast-path coefficient fidelity
# ----------------------------------------------------------------------
def verify_program_coefficients(compiled: CompiledProgram) -> list[Violation]:
    """Prove a compiled program's coefficients match its step stream.

    Recomputes, independently from the program step dataclasses, the
    per-step kind code, byte multiplier, and hop count
    :func:`repro.sim.fastpath.compile_program` should have produced —
    ``coeff-mismatch`` violations otherwise — and proves each step
    structurally legal (endpoints inside the cube, no self-sends, pair
    shifts in range: ``program-structure``).

    An exchange-backed program (``program.partition`` set:
    ``alltoall/multiphase`` and ``allgather/exchange``) must also
    price the schedule the data engines execute: its coefficients are
    recomputed from that partition's phases (a barrier, the offsets
    ``1 .. 2**d_i - 1``, and a shuffle when there are several phases),
    independently of the rounds the chain is derived from, so a
    program carrying another partition's steps is a
    ``coeff-mismatch``.
    """
    program = compiled.program
    target = f"fastpath program {program.name} d={program.d}"
    n = 1 << program.d
    violations: list[Violation] = []
    if program.partition is not None:
        violations.extend(
            _verify_schedule_coefficients(compiled, program.partition, target)
        )
    arrays = (compiled.kinds, compiled.bytes_per_m, compiled.hops)
    if any(len(array) != len(program.steps) for array in arrays):
        violations.append(Violation(
            check="coeff-mismatch",
            target=target,
            message="coefficient arrays and program step stream disagree in length",
            counterexample={"n_steps": len(program.steps),
                            "array_lengths": [len(a) for a in arrays]},
        ))
        return violations
    for index, step in enumerate(program.steps):
        if isinstance(step, BarrierStep):
            kind, nbytes, hops = KIND_BARRIER, 0, 0
        elif isinstance(step, SendStep):
            if (
                not (0 <= step.src < n and 0 <= step.dst < n)
                or step.src == step.dst
            ):
                violations.append(Violation(
                    check="program-structure",
                    target=target,
                    message=f"step {index}: send {step.src}->{step.dst} is "
                            f"not a legal circuit of the {program.d}-cube",
                    step_index=index,
                    counterexample={"src": step.src, "dst": step.dst, "n": n},
                    fix_hint="send endpoints must be distinct cube nodes",
                ))
                continue
            kind = KIND_SEND
            nbytes = step.bytes_per_m
            hops = popcount(step.src ^ step.dst)
        elif isinstance(step, PairStep):
            if not 1 <= step.shift < n:
                violations.append(Violation(
                    check="program-structure",
                    target=target,
                    message=f"step {index}: pair shift {step.shift} outside "
                            f"1..{n - 1}",
                    step_index=index,
                    counterexample={"shift": step.shift, "n": n},
                    fix_hint="a pairwise exchange must pair distinct cube nodes",
                ))
                continue
            kind = KIND_EXCHANGE
            nbytes = step.bytes_per_m
            hops = popcount(step.shift)
        elif isinstance(step, LocalShuffleStep):
            kind, nbytes, hops = KIND_SHUFFLE, step.bytes_per_m, 0
        else:
            violations.append(Violation(
                check="coeff-mismatch",
                target=target,
                message=f"unknown program step type {type(step).__name__}",
                step_index=index,
            ))
            continue
        got = (int(compiled.kinds[index]), int(compiled.bytes_per_m[index]),
               int(compiled.hops[index]))
        if got != (kind, nbytes, hops):
            violations.append(Violation(
                check="coeff-mismatch",
                target=target,
                message=f"step {index} ({type(step).__name__}) compiled to "
                        f"kind/bytes/hops {got}, expected {(kind, nbytes, hops)}",
                step_index=index,
                counterexample={"compiled": list(got),
                                "expected": [kind, nbytes, hops]},
                fix_hint="the affine timing coefficients must mirror the "
                         "program step stream term for term",
            ))
    return violations


def _verify_schedule_coefficients(
    compiled: CompiledProgram, partition: tuple[int, ...], target: str
) -> list[Violation]:
    """The coefficients of an exchange-backed program, checked against
    the multiphase schedule of its ``partition``."""
    d = compiled.d
    try:
        parts = check_partition(partition, d)
    except (TypeError, ValueError) as exc:
        return [Violation(
            check="program-structure",
            target=target,
            message=f"partition {partition!r} is not a partition of d={d}: {exc}",
            counterexample={"partition": list(partition)},
            fix_hint="an exchange-backed program carries a partition of its cube",
        )]
    expected: list[tuple[int, int, int]] = []
    for di in parts:
        expected.append((KIND_BARRIER, 0, 0))
        expected.extend(
            (KIND_EXCHANGE, 2 ** (d - di), popcount(offset)) for offset in range(1, 1 << di)
        )
        if len(parts) > 1:
            expected.append((KIND_SHUFFLE, 2 ** d, 0))
    got = list(zip(compiled.kinds.tolist(), compiled.bytes_per_m.tolist(),
                   compiled.hops.tolist()))
    if got == expected:
        return []
    index = next(
        (i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]),
        min(len(got), len(expected)),
    )
    return [Violation(
        check="coeff-mismatch",
        target=target,
        message=f"compiled coefficients depart from the multiphase schedule "
                f"of partition {format_partition(partition)} at step {index}",
        step_index=index,
        counterexample={
            "compiled": list(got[index]) if index < len(got) else None,
            "expected": list(expected[index]) if index < len(expected) else None,
            "n_compiled": len(got),
            "n_expected": len(expected),
        },
        fix_hint="price the exchange with repro.sim.fastpath.compile_schedule",
    )]


def verify_replay(
    program: CommProgram, rounds: Sequence[Round], params: MachineParams
) -> list[Violation]:
    """Prove a contended program's price is the serialization of
    ``rounds`` (the certified rounds) and nothing else.

    Its sends-first replay (:func:`repro.sim.fastpath.contended_timeline`
    at m = 40) must grant every node its circuits of ``rounds`` in round
    order (``replay-mismatch``), and no two grants may hold one e-cube
    link or endpoint port at once (``replay-overlap``).
    """
    target = f"fastpath program {program.name} d={program.d}"
    sends = contended_timeline(program, 40.0, params).sends
    # a stable sort by source keeps each node's grants in issue order
    granted = [(s.src, s.step, s.dst) for s in sorted(sends, key=lambda s: s.src)]
    expected = [(src, tag, dst) for src, _, tag, dst in sorted(
        (src, index, rnd.tag, dst)
        for index, rnd in enumerate(rounds) for src, dst in rnd.circuits(0)
    )]
    if granted != expected:
        first = next((i for i, (got, want) in enumerate(zip(granted, expected))
                      if got != want), min(len(granted), len(expected)))
        return [Violation(
            check="replay-mismatch",
            target=target,
            message=f"replayed send {first} is not the certified rounds' circuit",
            counterexample={"granted": granted[first:first + 4],
                            "expected": expected[first:first + 4]},
            fix_hint="a contended program must carry the rounds it is certified on",
        )]
    held = sorted(
        (str(resource), s.t_start, s.t_end, s.src, s.dst)
        for s in sends
        for resource in (*ecube_path_edges(s.src, s.dst), ("port", s.src), ("port", s.dst))
    )
    for before, after in zip(held, held[1:]):
        if before[0] == after[0] and after[1] < before[2]:
            return [Violation(
                check="replay-overlap",
                target=target,
                message=f"{after[0]} is granted to {after[3]}->{after[4]} before "
                        f"{before[3]}->{before[4]} releases it",
                counterexample={"resource": after[0], "grants": [before[1:], after[1:]]},
                fix_hint="the replay must serialize every circuit on its links "
                         "and ports, as the event engine does",
            )]
    return []


# ----------------------------------------------------------------------
# declared algorithms: the exchange and the §9 patterns
# ----------------------------------------------------------------------
def verify_schedule(d: int, partition: Sequence[int] | None = None) -> list[Violation]:
    """Certify the complete exchange at one ``(d, partition)``.

    ``partition=None`` selects the single-phase ``(d,)`` schedule.
    Covers the declared rounds (:func:`verify_pattern`) and the
    coefficient fidelity of the exchange's one compiled form,
    :func:`repro.sim.fastpath.compile_schedule`; an empty list is a
    certificate.
    """
    check_dimension(d, minimum=1)
    parts = check_partition(partition if partition is not None else (d,), d)
    violations = verify_pattern("alltoall", "multiphase", d, partition=parts)
    violations.extend(verify_program_coefficients(compile_schedule(d, parts)))
    return violations


def pattern_variants() -> list[tuple[str, str]]:
    """Every ``(pattern, algorithm)`` pair :func:`verify_pattern`
    certifies without a partition — the §9 rows and the naive rotation;
    the multiphase rows are the complete exchange, which
    :func:`verify_schedule` certifies on its partition."""
    return [key for key, row in PATTERN_TABLE.items() if row.schedule != "multiphase"]


def verify_pattern(
    pattern: str,
    algorithm: str,
    d: int,
    *,
    root: int = 0,
    partition: Sequence[int] | None = None,
) -> list[Violation]:
    """Certify one declared algorithm's schedule: expand the
    :data:`~repro.core.programs.PATTERN_TABLE` row into the rounds the
    engines run and prove them with :func:`verify_rounds`.

    ``partition`` (default ``(d,)``) applies to the complete exchange,
    ``alltoall/multiphase``, whose violations name its schedule;
    ``allgather/exchange`` runs as that exchange and is certified as it.
    """
    row = PATTERN_TABLE.get((pattern, algorithm))
    if row is None or (row.schedule == "multiphase" and row.pattern != "alltoall"):
        raise ValueError(
            f"cannot statically verify pattern {pattern!r} algorithm "
            f"{algorithm!r}; have {pattern_variants() + [('alltoall', 'multiphase')]}"
        )
    _, partition, _ = resolve_pattern(pattern, algorithm, d, partition=partition)
    check_node(root, d)
    target = (
        f"pattern {pattern}/{algorithm} d={d} root={root}" if partition is None
        else _schedule_target(d, partition)
    )
    return verify_rounds(
        row, pattern_rounds(row, d, root, partition=partition), d, root, target=target
    )


class _TagSlots(BlockBuffer):
    """Fixed slots that find a round's blocks by scanning their tags
    (:meth:`~repro.core.programs.Round.take`'s rule), so a corrupted
    round sends what the tags say rather than the slots a correct
    schedule would have refilled."""

    def send(self, rnd: Round, dst: int) -> BlockSet:
        bits = ~rnd.reach
        slots = ((self.dests & bits) == (dst & bits)).nonzero()[0]
        self._vacated.append(slots)
        return self.take(slots)


def verify_rounds(
    row: PatternAlgorithm,
    rounds: Sequence[Round],
    d: int,
    root: int,
    *,
    target: str,
) -> list[Violation]:
    """Circuit and delivery proof for ``rounds`` under ``row``'s block
    semantics (:func:`verify_pattern` on the declared rounds).

    Delivery replays :func:`~repro.core.programs.replay_pattern` on
    dict keys or, for exchange rounds that swap across every node, on
    fixed zero-byte :class:`~repro.core.blocks.BlockBuffer` slots found
    by their tags.
    Rounds leaving the cube are rejected on their circuits alone.
    """
    n = 1 << d
    circuit_steps = [rnd.circuits(root) for rnd in rounds]
    violations = verify_circuit_steps(circuit_steps, d, target=target)
    if any(not (0 <= src < n and 0 <= dst < n)
           for circuits in circuit_steps for src, dst in circuits):
        return violations
    semantics = row.semantics
    if row.pattern == "alltoall" and all(len(c) == n for c in circuit_steps):
        holdings: list = [_TagSlots.initial(node, d, 0) for node in range(n)]
    else:
        holdings = [KeyHoldings(row, node, root, d, lambda key: None) for node in range(n)]
    empty, repeats = replay_pattern(rounds, holdings, root)
    for index, node, keys in repeats:
        violations.append(Violation(
            check="block-duplicated",
            target=target,
            message=f"blocks {keys[:4]} arrive twice at node {node}",
            step_index=index,
            counterexample={"node": node, "blocks": keys[:8]},
            fix_hint="each block reaches a node at most once",
        ))
    for index, idle in groupby(empty, key=lambda circuit: circuit[0]):
        circuits = [[src, dst] for _, src, dst in idle]
        violations.append(Violation(
            check="vacuous-step",
            target=target,
            message=f"round {index} holds {len(circuits)} circuits that "
                    f"carry no block",
            step_index=index,
            counterexample={"circuits": circuits[:8], "n_vacuous": len(circuits)},
            fix_hint="a circuit that moves nothing re-runs a finished "
                     "round; each round appears once",
        ))
    for node in range(n):
        wanted = set(semantics.ends(node, root, n))
        held = set(holdings[node].keys())
        if held != wanted:
            missing = sorted(wanted - held)
            counterexample = {
                "node": node, "missing": missing[:8], "stray": sorted(held - wanted)[:8],
            }
            if missing:
                counterexample.update(zip(semantics.key_fields, divmod(missing[0], n)))
            violations.append(Violation(
                check="block-undelivered",
                target=target,
                message=f"node {node} ends holding {sorted(held)[:4]} "
                        f"instead of {sorted(wanted)[:4]}",
                counterexample=counterexample,
                fix_hint="the rounds must leave every node holding exactly "
                         "the blocks its pattern delivers",
            ))
            break
    return violations


# ----------------------------------------------------------------------
# planner-emitted collectives
# ----------------------------------------------------------------------
def verify_plan_decision(decision: PlanDecision) -> list[Violation]:
    """Certify the schedule a planner decision would execute.

    A partitioned decision is verified as a full exchange schedule, a
    naive one as the ``alltoall/rotation`` row (:func:`verify_pattern`):
    every rotation step in isolation is link-clean and port-disjoint,
    and its rounds deliver every block (its slowness comes from drift,
    not from an illegal schedule).
    """
    return _verify_plan_decision(decision, verify_schedule)


def _verify_plan_decision(
    decision: PlanDecision,
    schedule_check: Callable[[int, tuple[int, ...]], list[Violation]],
) -> list[Violation]:
    """:func:`verify_plan_decision` with a (memoized) ``schedule_check``."""
    if decision.algorithm == "naive":
        return verify_pattern("alltoall", "rotation", decision.d)
    target = f"plan d={decision.d} m={decision.m:g} {decision.algorithm}"
    try:
        parts = check_partition(decision.partition, decision.d)
    except (TypeError, ValueError) as exc:
        return [Violation(
            check="plan-illegal",
            target=target,
            message=f"decision partition {decision.partition!r} is not a "
                    f"partition of d={decision.d}: {exc}",
            counterexample={"partition": list(decision.partition or ())},
            fix_hint="planner policies must emit partitions summing to d",
        )]
    return schedule_check(decision.d, parts)


# ----------------------------------------------------------------------
# the `repro check --schedules` driver
# ----------------------------------------------------------------------
def check_schedules(
    dims: Sequence[int] = CHECK_DIMS,
    *,
    presets: Sequence[str] | None = None,
    block_sizes: Sequence[float] = CHECK_SIZES,
) -> CheckReport:
    """Statically certify every schedule the library can emit.

    For each dimension: every partition's exchange schedule (circuits,
    delivery, fast-path coefficients), every §9 pattern program, the
    naive rotation (its iPSC-860 replay), and — per machine preset —
    the collectives the model policy actually emits at the sampled
    block sizes (exchange decisions and pattern selections).  Returns a merged report; ``report.ok`` is
    the certificate.
    """
    from repro.plan.patterns import PATTERNS, plan_pattern
    from repro.plan.policies import ModelPolicy

    report = CheckReport()
    preset_names = sorted(PRESETS) if presets is None else list(presets)
    verified: dict[tuple[int, tuple[int, ...]], bool] = {}
    schedule_violations: dict[tuple[int, tuple[int, ...]], list[Violation]] = {}

    def verify_once(d: int, parts: tuple[int, ...]) -> list[Violation]:
        key = (d, parts)
        if key not in schedule_violations:
            schedule_violations[key] = verify_schedule(d, parts)
        return list(schedule_violations[key])

    def certify_schedule(d: int, parts: tuple[int, ...]) -> bool:
        key = (d, parts)
        if key not in verified:
            violations = verify_once(d, parts)
            for violation in violations:
                report.add(violation)
            verified[key] = not violations
            if not violations:
                report.certify(_schedule_target(d, parts))
        return verified[key]

    for d in dims:
        check_dimension(d, minimum=1)
        for parts in partitions(d):
            certify_schedule(d, parts)
        for pattern, algorithm in pattern_variants():
            violations = verify_pattern(pattern, algorithm, d)
            program = pattern_program(pattern, algorithm, d)
            if program.contended:
                rounds = pattern_rounds(PATTERN_TABLE[pattern, algorithm], d, 0)
                violations.extend(verify_replay(program, rounds, ipsc860()))
            else:
                violations.extend(verify_program_coefficients(compile_program(program)))
            for violation in violations:
                report.add(violation)
            if not violations:
                report.certify(f"pattern {pattern}/{algorithm} d={d}")

    for name in preset_names:
        params: MachineParams = PRESETS[name]()
        policy = ModelPolicy(params)
        for d in dims:
            for m in block_sizes:
                decision = policy.decide(d, float(m))
                violations = _verify_plan_decision(decision, verify_once)
                for violation in violations:
                    report.add(violation)
                if not violations:
                    report.certify(
                        f"plan {name} d={d} m={m:g} -> {decision.algorithm} "
                        + (format_partition(decision.partition)
                           if decision.partition else "rotation")
                    )
                for pattern in PATTERNS:
                    pattern_decision = plan_pattern(pattern, float(m), d, params)
                    if pattern_decision.algorithm == "exchange":
                        ok = (pattern_decision.partition is not None
                              and certify_schedule(
                                  d, tuple(pattern_decision.partition)))
                    else:
                        pattern_violations = verify_pattern(
                            pattern, pattern_decision.algorithm, d
                        )
                        for violation in pattern_violations:
                            report.add(violation)
                        ok = not pattern_violations
                    if ok:
                        report.certify(
                            f"plan {name} {pattern} d={d} m={m:g} -> "
                            f"{pattern_decision.algorithm}"
                        )
    return report
