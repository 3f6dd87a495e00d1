"""Static schedule verifier: whole-schedule proofs, no simulator.

Lifts the per-step contention oracle of
:mod:`repro.hypercube.contention` to whole-schedule certificates for
every compiled ``(d, partition)`` exchange schedule, §9 pattern
program, and planner-emitted collective — without invoking
:mod:`repro.sim.engine`.  Four invariant families:

* **circuit disjointness** — every step's circuit set is edge-disjoint
  (no two circuits share a directed link under e-cube) *and*
  port-disjoint (no node sources or sinks two circuits at once); a
  failure names the shared resource and the circuits holding it;
* **route legality** — every circuit's e-cube route starts at its
  source, ends at its destination, flips exactly one bit per hop, and
  crosses dimensions in strictly ascending order (the fixed routing
  every contention conclusion rests on);
* **block conservation** — an abstract (tag-only) replay of the step
  stream proves every block departs and arrives exactly once per
  phase-slice and that every node ends holding exactly the blocks
  destined for it: dropped steps surface as undelivered blocks,
  duplicated steps as vacuous transfers, wrong offsets as misrouted
  blocks;
* **coefficient fidelity** — the fast path's compiled per-step
  coefficients (:class:`repro.sim.fastpath.CompiledProgram`, the one
  compiled form of the exchange and of every §9 pattern program) must
  structurally match the program step stream they claim to price, and
  an exchange-backed program's must also match the
  :func:`~repro.core.schedule.multiphase_schedule` step list of its
  partition — the schedule the data engines actually execute.

Every function returns plain :class:`~repro.check.report.Violation`
lists so callers can compose them into one
:class:`~repro.check.report.CheckReport`; :func:`check_schedules` is
the ``repro check --schedules`` driver.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.check.report import CheckReport, Violation
from repro.core.partitions import partitions
from repro.core.programs import (
    PATTERN_TABLE,
    BarrierStep,
    LocalShuffleStep,
    PairStep,
    PatternAlgorithm,
    Round,
    SendStep,
    pattern_program,
    pattern_rounds,
    replay_pattern,
)
from repro.core.schedule import (
    ExchangeStep,
    PhaseStart,
    ShuffleStep,
    Step,
    multiphase_schedule,
    schedule_circuits,
)
from repro.hypercube.contention import analyze_contention
from repro.hypercube.routing import ecube_path_edges
from repro.model.params import PRESETS, MachineParams
from repro.plan.decision import PlanDecision, format_partition
from repro.sim.fastpath import (
    KIND_BARRIER,
    KIND_EXCHANGE,
    KIND_SEND,
    KIND_SHUFFLE,
    CompiledProgram,
    compile_program,
    compile_schedule,
    naive_step_circuits,
)
from repro.util.bitops import popcount
from repro.util.validation import check_dimension, check_node, check_partition

__all__ = [
    "CHECK_DIMS",
    "CHECK_SIZES",
    "check_schedules",
    "pattern_variants",
    "verify_block_conservation",
    "verify_circuit_steps",
    "verify_pattern",
    "verify_plan_decision",
    "verify_program_coefficients",
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
    step_indices: Sequence[int] | None = None,
) -> list[Violation]:
    """Prove every step's circuit set route-legal and edge/port-disjoint.

    ``circuit_steps[i]`` is the set of ``(src, dst)`` circuits held
    simultaneously during step ``i``; ``step_indices`` maps each entry
    back to its position in a larger step stream for provenance.
    Self-circuits (``src == dst``) hold no resources and are ignored,
    matching :func:`~repro.hypercube.contention.analyze_contention`.
    """
    check_dimension(d, minimum=1)
    n = 1 << d
    violations: list[Violation] = []
    for position, raw_circuits in enumerate(circuit_steps):
        index = step_indices[position] if step_indices is not None else position
        circuits = [(src, dst) for src, dst in raw_circuits if src != dst]
        for src, dst in circuits:
            violations.extend(_verify_route(src, dst, n, target, index))
        violations.extend(_verify_ports(circuits, target, index))
        violations.extend(_verify_edges(circuits, target, index))
    return violations


def _verify_route(
    src: int, dst: int, n: int, target: str, index: int
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
    edges = ecube_path_edges(src, dst)
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
    circuits: Sequence[Circuit], target: str, index: int
) -> list[Violation]:
    """Edge disjointness, with the sharing circuits as counterexample."""
    report = analyze_contention(circuits)
    violations: list[Violation] = []
    for link, load in sorted(report.edge_conflicts.items(), key=lambda kv: str(kv[0])):
        holders = [
            circuit for circuit in circuits
            if link in ecube_path_edges(*circuit)
        ]
        violations.append(Violation(
            check="edge-contention",
            target=target,
            message=f"link {link} is held by {load} circuits at once",
            step_index=index,
            counterexample={"link": str(link), "load": load,
                            "circuits": [list(c) for c in holders]},
            fix_hint="simultaneous circuits must use disjoint e-cube links "
                     "(paper §2: edge contention is disastrous)",
        ))
    return violations


# ----------------------------------------------------------------------
# block conservation: abstract tag-only replay of the step stream
# ----------------------------------------------------------------------
def verify_block_conservation(
    steps: Sequence[Step], d: int, *, target: str
) -> list[Violation]:
    """Prove the step stream delivers every block exactly once.

    Replays the schedule on a ``(origin, dest) -> holder`` matrix (the
    functional abstraction of the block buffers: no payload, just
    placement).  Invariants proven:

    * within each phase, every block whose destination's subcube
      coordinate differs from its holder's departs **exactly once**
      (``block-duplicated`` / ``block-undelivered`` otherwise), and
      blocks already home never move;
    * every exchange step moves at least one block somewhere in the
      cube (``vacuous-step`` — the signature of a duplicated step);
    * at each phase end every block sits at its destination coordinate
      within the phase's bit group (``block-misrouted``);
    * after the final step every node holds exactly the blocks destined
      for it (``block-undelivered`` with the block's actual location).

    Because every exchange is a symmetric swap of disjoint slices,
    departures equal arrivals by construction, so proving departures
    exact proves the paper's "each block is transmitted exactly once
    per phase" conservation law.
    """
    check_dimension(d, minimum=1)
    n = 1 << d
    dest = np.broadcast_to(np.arange(n), (n, n))          # dest[o, b] = b
    holder = np.tile(np.arange(n)[:, None], (1, n))       # holder[o, b] = o
    violations: list[Violation] = []

    phase_group = None
    phase_index = -1
    departs: np.ndarray | None = None
    expected: np.ndarray | None = None

    def close_phase() -> None:
        if phase_group is None:
            return
        assert departs is not None and expected is not None
        lo, width = phase_group.lo, phase_group.width
        mask = (1 << width) - 1
        dup = departs > expected
        missing = departs < expected
        stray = ((holder >> lo) & mask) != ((dest >> lo) & mask)
        for kind, where, message, hint in (
            ("block-duplicated", dup,
             "departed more than once within phase {p}",
             "a block must be transmitted exactly once per phase"),
            ("block-undelivered", missing,
             "never departed during phase {p} despite a differing "
             "subcube coordinate",
             "every off-coordinate block must be exchanged during its phase"),
            ("block-misrouted", stray,
             "ended phase {p} at the wrong subcube coordinate",
             "phase exchanges must deliver blocks to their coordinate "
             "in the phase's bit group"),
        ):
            origins, blocks = np.nonzero(where)
            if origins.size:
                origin, block = int(origins[0]), int(blocks[0])
                violations.append(Violation(
                    check=kind,
                    target=target,
                    message=f"block ({origin}->{block}) "
                            + message.format(p=phase_index),
                    counterexample={
                        "origin": origin, "dest": block,
                        "held_by": int(holder[origin, block]),
                        "phase": phase_index,
                        "n_affected_blocks": int(origins.size),
                    },
                    fix_hint=hint,
                ))

    for index, step in enumerate(steps):
        if isinstance(step, PhaseStart):
            close_phase()
            phase_group = step.group
            phase_index = step.phase_index
            if step.group.hi >= d:
                violations.append(Violation(
                    check="step-domain",
                    target=target,
                    message=f"phase bit group {step.group} exceeds the "
                            f"{d}-cube's label bits",
                    step_index=index,
                    counterexample={"lo": step.group.lo, "width": step.group.width},
                    fix_hint="bit groups must stay within 0..d-1",
                ))
                return violations
            lo, width = step.group.lo, step.group.width
            mask = (1 << width) - 1
            expected = (((holder >> lo) & mask) != ((dest >> lo) & mask)).astype(np.int64)
            departs = np.zeros((n, n), dtype=np.int64)
        elif isinstance(step, ExchangeStep):
            if phase_group is None or departs is None:
                violations.append(Violation(
                    check="phase-structure",
                    target=target,
                    message="exchange step before any phase start",
                    step_index=index,
                    fix_hint="every phase must open with a PhaseStart barrier "
                             "(FORCED messages are fatal without it, §7.3)",
                ))
                continue
            lo, width = step.group.lo, step.group.width
            mask = (1 << width) - 1
            shift = step.offset << lo
            if step.group.hi >= d:
                violations.append(Violation(
                    check="step-domain",
                    target=target,
                    message=f"exchange bit group {step.group} exceeds the "
                            f"{d}-cube's label bits",
                    step_index=index,
                    counterexample={"lo": lo, "width": width, "offset": step.offset},
                    fix_hint="bit groups must stay within 0..d-1",
                ))
                continue
            if step.group != phase_group:
                violations.append(Violation(
                    check="phase-structure",
                    target=target,
                    message=f"exchange step uses bit group {step.group} inside "
                            f"a phase on {phase_group}",
                    step_index=index,
                    fix_hint="all exchanges of a phase operate on the phase's bit group",
                ))
                continue
            moving = ((dest >> lo) & mask) == (((holder ^ shift) >> lo) & mask)
            if not moving.any():
                violations.append(Violation(
                    check="vacuous-step",
                    target=target,
                    message=f"exchange step (offset {step.offset}) moves no "
                            f"blocks — its slice was already exchanged",
                    step_index=index,
                    counterexample={"offset": step.offset, "lo": lo, "width": width},
                    fix_hint="duplicated offsets re-run an already-completed "
                             "exchange; each offset appears once per phase",
                ))
                continue
            departs += moving
            holder = np.where(moving, holder ^ shift, holder)
        elif isinstance(step, ShuffleStep):
            continue  # local permutation: no block changes nodes
        else:
            violations.append(Violation(
                check="phase-structure",
                target=target,
                message=f"unknown step type {type(step).__name__}",
                step_index=index,
            ))
    close_phase()

    final_stray = holder != dest
    origins, blocks = np.nonzero(final_stray)
    if origins.size:
        origin, block = int(origins[0]), int(blocks[0])
        violations.append(Violation(
            check="block-undelivered",
            target=target,
            message=f"block ({origin}->{block}) ends at node "
                    f"{int(holder[origin, block])}, not its destination",
            counterexample={
                "origin": origin, "dest": block,
                "held_by": int(holder[origin, block]),
                "n_affected_blocks": int(origins.size),
            },
            fix_hint="the phases must jointly cover every label bit exactly once",
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

    An exchange-backed program (``program.partition`` set: the
    ``exchange`` program and ``allgather/exchange``) must also price
    the schedule the data engines execute: its coefficients are
    recomputed from :func:`~repro.core.schedule.multiphase_schedule`
    on that partition, independently of
    :func:`~repro.core.programs.exchange_steps`, so a program carrying
    another partition's steps is a ``coeff-mismatch``.
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
        steps = multiphase_schedule(d, partition)
    except (TypeError, ValueError) as exc:
        return [Violation(
            check="program-structure",
            target=target,
            message=f"partition {partition!r} is not a partition of d={d}: {exc}",
            counterexample={"partition": list(partition)},
            fix_hint="an exchange-backed program carries a partition of its cube",
        )]
    expected: list[tuple[int, int, int]] = []
    for step in steps:
        if isinstance(step, PhaseStart):
            expected.append((KIND_BARRIER, 0, 0))
        elif isinstance(step, ExchangeStep):
            expected.append(
                (KIND_EXCHANGE, 2 ** (d - step.group.width), popcount(step.offset))
            )
        else:
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


# ----------------------------------------------------------------------
# whole-schedule certificates
# ----------------------------------------------------------------------
def verify_schedule_steps(
    steps: Sequence[Step], d: int, *, target: str
) -> list[Violation]:
    """All step-stream invariants for one schedule: circuits + blocks."""
    exchange_positions = [
        index for index, step in enumerate(steps) if isinstance(step, ExchangeStep)
    ]
    circuit_steps = [
        list(schedule_circuits(steps[index], d)) for index in exchange_positions
    ]
    violations = verify_circuit_steps(
        circuit_steps, d, target=target, step_indices=exchange_positions
    )
    violations.extend(verify_block_conservation(steps, d, target=target))
    return violations


def verify_schedule(d: int, partition: Sequence[int] | None = None) -> list[Violation]:
    """Certify one compiled ``(d, partition)`` exchange schedule.

    ``partition=None`` selects the single-phase ``(d,)`` schedule.
    Covers circuit disjointness, route legality and block conservation
    of the step list the data engines execute, and coefficient fidelity
    of the one compiled form the fast path prices —
    :func:`repro.sim.fastpath.compile_schedule`, the exchange's
    :class:`~repro.core.programs.CommProgram` — against its own steps
    and against that step list; an empty list is a certificate.
    """
    check_dimension(d, minimum=1)
    parts = check_partition(partition if partition is not None else (d,), d)
    steps = multiphase_schedule(d, parts)
    violations = verify_schedule_steps(steps, d, target=_schedule_target(d, parts))
    violations.extend(verify_program_coefficients(compile_schedule(d, parts)))
    return violations


# ----------------------------------------------------------------------
# §9 pattern programs
# ----------------------------------------------------------------------
def pattern_variants() -> list[tuple[str, str]]:
    """Every ``(pattern, algorithm)`` pair the verifier can certify: the
    declared algorithms with a round schedule (the exchange-backed
    allgather is a complete exchange; :func:`verify_schedule` certifies
    it on its partition)."""
    return [key for key, row in PATTERN_TABLE.items() if row.schedule != "exchange"]


def verify_pattern(
    pattern: str, algorithm: str, d: int, *, root: int = 0
) -> list[Violation]:
    """Certify one §9 pattern algorithm's declared schedule.

    Expands the :data:`~repro.core.programs.PATTERN_TABLE` row into the
    rounds the SPMD interpreter runs, proves each round's circuit set
    edge/port-disjoint and route-legal, and proves delivery by
    replaying abstract block holdings: no block reaches a node twice,
    and every node ends holding exactly the blocks its pattern
    delivers (the root's message, its own block, every origin).
    """
    check_dimension(d, minimum=1)
    check_node(root, d)
    row = PATTERN_TABLE.get((pattern, algorithm))
    if row is None or row.schedule == "exchange":
        raise ValueError(
            f"cannot statically verify pattern {pattern!r} algorithm "
            f"{algorithm!r}; have {pattern_variants()}"
        )
    return verify_rounds(
        row, pattern_rounds(row, d, root), d, root,
        target=f"pattern {pattern}/{algorithm} d={d} root={root}",
    )


def verify_rounds(
    row: PatternAlgorithm,
    rounds: Sequence[Round],
    d: int,
    root: int,
    *,
    target: str,
) -> list[Violation]:
    """Circuit and delivery proof for ``rounds`` under ``row``'s block
    semantics (:func:`verify_pattern` on the declared rounds)."""
    n = 1 << d
    violations = verify_circuit_steps(
        [rnd.circuits(root) for rnd in rounds], d, target=target
    )
    held, repeats = replay_pattern(row, rounds, d, root, lambda key: None)
    for index, node, keys in repeats:
        violations.append(Violation(
            check="block-duplicated",
            target=target,
            message=f"blocks {keys[:4]} arrive twice at node {node}",
            step_index=index,
            counterexample={"node": node, "blocks": keys[:8]},
            fix_hint="each block reaches a node at most once",
        ))
    for node in range(n):
        wanted = set(row.semantics.ends(node, root, n))
        if set(held[node]) != wanted:
            violations.append(Violation(
                check="block-undelivered",
                target=target,
                message=f"node {node} ends holding {sorted(held[node])[:4]} "
                        f"instead of {sorted(wanted)[:4]}",
                counterexample={
                    "node": node,
                    "missing": sorted(wanted - set(held[node]))[:8],
                    "stray": sorted(set(held[node]) - wanted)[:8],
                },
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

    A partitioned decision is verified as a full exchange schedule; the
    naive rotation baseline is *sanctioned contended* — for it the
    verifier proves the weaker invariant the baseline does satisfy:
    every rotation step in isolation is link-clean and port-disjoint
    (its slowness comes from drift, not from an illegal schedule).
    """
    target = f"plan d={decision.d} m={decision.m:g} {decision.algorithm}"
    if decision.algorithm == "naive":
        n = 1 << decision.d
        rotation = [naive_step_circuits(decision.d, s) for s in range(1, n)]
        return [
            Violation(
                check=violation.check, target=target,
                message=violation.message, step_index=violation.step_index,
                counterexample=violation.counterexample,
                fix_hint=violation.fix_hint,
            )
            for violation in verify_circuit_steps(
                rotation, decision.d, target=target
            )
        ]
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
    return verify_schedule(decision.d, parts)


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
    conservation, fast-path coefficients), every §9 pattern program,
    and — per machine preset — the collectives the model policy
    actually emits at the sampled block sizes (exchange decisions and
    pattern selections).  Returns a merged report; ``report.ok`` is
    the certificate.
    """
    from repro.plan.patterns import PATTERNS, plan_pattern
    from repro.plan.policies import ModelPolicy

    report = CheckReport()
    preset_names = sorted(PRESETS) if presets is None else list(presets)
    verified: dict[tuple[int, tuple[int, ...]], bool] = {}

    def certify_schedule(d: int, parts: tuple[int, ...]) -> bool:
        key = (d, parts)
        if key not in verified:
            violations = verify_schedule(d, parts)
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
            violations.extend(
                verify_program_coefficients(
                    compile_program(pattern_program(pattern, algorithm, d))
                )
            )
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
                violations = verify_plan_decision(decision)
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
