"""Lockstep communication programs: one step vocabulary for every collective.

The fast path (:mod:`repro.sim.fastpath`) prices a schedule by lowering
it to per-step timing coefficients and summing them in the event
engine's dispatch order.  That trick is not specific to the complete
exchange: *any* collective whose critical path is a fixed chain of
barriers, one-way sends, and pairwise exchanges can be compiled the
same way.  This module is the shared vocabulary those programs are
written in — a :class:`CommProgram` is a named, hashable step stream
that :func:`repro.sim.fastpath.compile_program` lowers to coefficient
arrays, and that :mod:`repro.check.schedule` certifies structurally.

Step vocabulary
---------------
:class:`BarrierStep`
    Global synchronization; the engine releases all nodes ``γ·d`` after
    arrival (paper §7.3 — FORCED messages are fatal without it).
:class:`SendStep`
    One FORCED one-way transmission ``src -> dst`` of
    ``bytes_per_m · m`` bytes, priced with the *plain* constants
    ``λ + τ·nbytes + δ·hops`` (one-way traffic pays no pairwise
    handshake).
:class:`PairStep`
    A synchronized pairwise exchange: every node swaps with
    ``node ^ shift``, priced with the §7.4 effective constants
    ``λ_eff + τ·nbytes + δ_eff·hops``.
:class:`LocalShuffleStep`
    A local permutation pass, ``ρ`` per byte of the node's buffer.

A program's step stream is its **critical-path chain**: the sequence of
step durations whose cumulative sum is the run's makespan on the event
engine.  For lockstep programs (the exchange, allgather doubling) the
chain is literally every node's step list; for rooted trees (broadcast,
scatter) it is the root's chain, which the §9 schedules make the
longest one — every forwarding node's chain accumulates the identical
float suffix, so the root chain's ``cumsum`` equals the engine's
makespan *exactly*, not just asymptotically.

§9 pattern algorithms
---------------------
Every broadcast, scatter and allgather algorithm is declared once, as
one :class:`PatternAlgorithm` row of :data:`PATTERN_TABLE`: the
pattern's :class:`BlockSemantics` (who starts and ends holding which
blocks) paired with a schedule (a tree over single-bit masks, direct
root circuits, pairwise swaps, or the complete exchange).  Everything
else is derived from the row — :func:`pattern_rounds` expands it into
rounds (:class:`Round`), :func:`replay_pattern` moves blocks along them,
:func:`pattern_program` evaluates the root's chain, and the consumers
are the static certificate (:func:`repro.check.schedule.verify_pattern`),
the data-level collectives and the SPMD interpreter of
:mod:`repro.patterns`, so the circuits the certificate proves are the
circuits the engine runs and the chain the fast path prices.

Programs with ``contended=True`` (the naive rotation baseline) have no
lockstep closed form — their cost is link/port serialization — and are
refused by the compiler; :func:`repro.sim.fastpath.batch_program_times`
routes them to the reservation replay instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence, Union

from repro.core.schedule import (
    ExchangeStep,
    PhaseStart,
    ShuffleStep,
    multiphase_schedule,
)
from repro.util.bitops import popcount
from repro.util.validation import check_dimension, check_node, check_partition

__all__ = [
    "BLOCK_SEMANTICS",
    "BarrierStep",
    "BlockSemantics",
    "CommProgram",
    "LocalShuffleStep",
    "PATTERN_TABLE",
    "PairStep",
    "PatternAlgorithm",
    "ProgramStep",
    "Round",
    "SendStep",
    "exchange_steps",
    "naive_rotation_steps",
    "pattern_program",
    "pattern_rounds",
    "replay_pattern",
    "resolve_pattern",
]


@dataclass(frozen=True)
class BarrierStep:
    """Global synchronization: all nodes release ``γ·d`` after arrival."""


@dataclass(frozen=True)
class SendStep:
    """One FORCED one-way send ``src -> dst`` of ``bytes_per_m·m`` bytes.

    Priced with the plain constants (``λ``, ``δ``): one-directional
    traffic needs no pairwise handshake (§7.3).
    """

    src: int
    dst: int
    bytes_per_m: int

    @property
    def hops(self) -> int:
        """Circuit length under e-cube routing."""
        return popcount(self.src ^ self.dst)


@dataclass(frozen=True)
class PairStep:
    """A synchronized pairwise exchange across XOR mask ``shift``.

    Every node swaps ``bytes_per_m·m`` bytes with ``node ^ shift``,
    priced with the §7.4 effective constants (``λ_eff``, ``δ_eff``).
    """

    shift: int
    bytes_per_m: int

    @property
    def hops(self) -> int:
        """Distance between every pair (= popcount of the shift)."""
        return popcount(self.shift)


@dataclass(frozen=True)
class LocalShuffleStep:
    """Local data permutation: ``ρ`` per byte of ``bytes_per_m·m``."""

    bytes_per_m: int


ProgramStep = Union[BarrierStep, SendStep, PairStep, LocalShuffleStep]


@dataclass(frozen=True)
class CommProgram:
    """A named communication program as a hashable step stream.

    ``steps`` is the critical-path chain (see module docstring);
    ``contended`` marks programs whose cost is serialization rather
    than the chain sum (the compiler refuses them); ``partition`` is
    carried for exchange-backed programs so consumers can trace the
    schedule a program prices.
    """

    name: str
    d: int
    steps: tuple[ProgramStep, ...] = field(default=())
    contended: bool = False
    partition: tuple[int, ...] | None = None

    @property
    def n_steps(self) -> int:
        return len(self.steps)


# ----------------------------------------------------------------------
# exchange programs (lowered from the compiled schedules)
# ----------------------------------------------------------------------
def exchange_steps(d: int, partition: Sequence[int] | None = None) -> CommProgram:
    """The multiphase complete exchange as a program step stream.

    Lowers :func:`repro.core.schedule.multiphase_schedule` step for
    step: ``PhaseStart`` → barrier, ``ExchangeStep`` → pairwise swap of
    the effective block ``m·2**(d-d_i)``, ``ShuffleStep`` → one local
    pass over the full ``m·2**d`` buffer.  ``partition=None`` selects
    the single-phase ``(d,)`` schedule, like
    :func:`repro.comm.program.simulate_exchange`.
    """
    check_dimension(d, minimum=1)
    parts = check_partition(partition if partition is not None else (d,), d)
    steps: list[ProgramStep] = []
    for step in multiphase_schedule(d, parts):
        if isinstance(step, PhaseStart):
            steps.append(BarrierStep())
        elif isinstance(step, ExchangeStep):
            steps.append(PairStep(
                shift=step.offset << step.group.lo,
                bytes_per_m=1 << (d - step.group.width),
            ))
        elif isinstance(step, ShuffleStep):
            steps.append(LocalShuffleStep(bytes_per_m=1 << d))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step type {type(step).__name__}")
    return CommProgram(name="exchange", d=d, steps=tuple(steps), partition=parts)


def naive_rotation_steps(d: int) -> CommProgram:
    """The naive rotation baseline, marked contended.

    The step stream records one node's rotation chain (rank 0's — every
    rank's is a relabeling) for structural verification, but the chain
    sum is *not* the program's cost: the schedule's price is link/port
    serialization, so the program carries ``contended=True`` and the
    fast path prices it with the reservation replay.
    """
    check_dimension(d, minimum=1)
    n = 1 << d
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(SendStep(src=0, dst=s % n, bytes_per_m=1) for s in range(1, n))
    return CommProgram(name="naive", d=d, steps=tuple(steps), contended=True)


# ----------------------------------------------------------------------
# §9 pattern algorithms: one declaration each
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BlockSemantics:
    """What a pattern moves, as integer block keys.

    ``starts(node, root, n)`` / ``ends(node, root, n)`` are the keys a
    node holds before the first round and must hold after the last.
    A *personal* block has one owner: it leaves its sender and only
    travels towards the node it is for.  Other blocks are copied.
    ``rooted`` patterns take a ``root``.
    """

    starts: Callable[[int, int, int], Sequence[int]]
    ends: Callable[[int, int, int], Sequence[int]]
    personal: bool = False
    rooted: bool = True


#: pattern -> block semantics
BLOCK_SEMANTICS: Mapping[str, BlockSemantics] = {
    # the root's one message, replicated to every node
    "broadcast": BlockSemantics(
        starts=lambda node, root, n: (root,) if node == root else (),
        ends=lambda node, root, n: (root,),
    ),
    # the root's n personal blocks, block x bound for node x
    "scatter": BlockSemantics(
        starts=lambda node, root, n: range(n) if node == root else (),
        ends=lambda node, root, n: (node,),
        personal=True,
    ),
    # one block per origin, collected by every node
    "allgather": BlockSemantics(
        starts=lambda node, root, n: (node,),
        ends=lambda node, root, n: range(n),
        rooted=False,
    ),
}


@dataclass(frozen=True)
class PatternAlgorithm:
    """One §9 algorithm: a pattern's block semantics plus a schedule.

    ``schedule`` is ``"tree"`` (every holder forwards across one
    single-bit mask per round, ascending, or from the top bit down
    with ``descending``), ``"direct"`` (the root circuits to every node
    in ascending order), ``"pairwise"`` (every node swaps across
    ascending masks) or ``"exchange"`` (the complete exchange at a
    partition, run through ``Communicator.Alltoall``).
    """

    pattern: str
    algorithm: str
    schedule: str
    descending: bool = False

    @property
    def name(self) -> str:
        return f"{self.pattern}/{self.algorithm}"

    @property
    def semantics(self) -> BlockSemantics:
        return BLOCK_SEMANTICS[self.pattern]


#: (pattern, algorithm) -> its one declaration
PATTERN_TABLE: Mapping[tuple[str, str], PatternAlgorithm] = {
    (row.pattern, row.algorithm): row
    for row in (
        PatternAlgorithm("broadcast", "binomial", "tree"),
        PatternAlgorithm("broadcast", "direct", "direct"),
        PatternAlgorithm("scatter", "halving", "tree", descending=True),
        PatternAlgorithm("scatter", "direct", "direct"),
        PatternAlgorithm("allgather", "doubling", "pairwise"),
        PatternAlgorithm("allgather", "exchange", "exchange"),
    )
}


@dataclass(frozen=True)
class Round:
    """One round of a declared schedule, relative to the root.

    The senders are the nodes ``root ^ s`` for every submask ``s`` of
    ``sources``; each sends across ``mask`` to ``sender ^ mask``.  A
    ``pairwise`` round has every node as a sender, so partners swap.
    ``reach`` holds the bits a receiver still forwards across in later
    rounds: its downstream is ``{dst ^ r : r a submask of reach}``.
    ``tag`` labels the round's messages.
    """

    mask: int
    sources: int
    reach: int
    tag: int
    pairwise: bool = False

    def sends(self, relative: int) -> bool:
        """Whether node ``root ^ relative`` sends this round."""
        return relative & ~self.sources == 0

    def receives(self, relative: int) -> bool:
        """Whether node ``root ^ relative`` receives this round."""
        return self.sends(relative ^ self.mask)

    def circuits(self, root: int) -> list[tuple[int, int]]:
        """Every ``(src, dst)`` circuit the round holds, by source."""
        senders: list[int] = []
        sub = self.sources
        while True:
            senders.append(root ^ sub)
            if sub == 0:
                break
            sub = (sub - 1) & self.sources
        return sorted((src, src ^ self.mask) for src in senders)

    def take(self, held: dict[int, Any], dst: int, personal: bool) -> dict[int, Any]:
        """The blocks a sender passes to ``dst``: all it holds, or — for
        personal blocks — those bound for ``dst``'s downstream, which
        then leave the sender."""
        if not personal:
            return dict(held)
        moving = {key: block for key, block in held.items()
                  if (key ^ dst) & ~self.reach == 0}
        for key in moving:
            del held[key]
        return moving


def pattern_rounds(row: PatternAlgorithm, d: int, root: int) -> tuple[Round, ...]:
    """Expand a declared tree, direct or pairwise schedule into rounds."""
    n = 1 << d
    if row.schedule == "direct":
        return tuple(
            Round(mask=root ^ dst, sources=0, reach=0, tag=0)
            for dst in range(n)
            if dst != root
        )
    if row.schedule not in ("tree", "pairwise"):
        raise ValueError(f"{row.name} has no round schedule")
    pairwise = row.schedule == "pairwise"
    rounds: list[Round] = []
    crossed = 0
    for j in range(d - 1, -1, -1) if row.descending else range(d):
        mask = 1 << j
        rounds.append(Round(
            mask=mask,
            sources=n - 1 if pairwise else crossed,
            reach=(n - 1) & ~crossed & ~mask,
            tag=j,
            pairwise=pairwise,
        ))
        crossed |= mask
    return tuple(rounds)


def replay_pattern(
    row: PatternAlgorithm,
    rounds: Sequence[Round],
    d: int,
    root: int,
    block: Callable[[int], Any],
) -> tuple[list[dict[int, Any]], list[tuple[int, int, list[int]]]]:
    """Move blocks along ``rounds`` on every node at once.

    Each node starts with ``{key: block(key)}`` for its starting keys;
    every circuit of a round reads the holdings from before the round.
    Returns each node's final holdings and every repeated arrival as
    ``(round index, node, keys)``.
    """
    n = 1 << d
    semantics = row.semantics
    held = [
        {key: block(key) for key in semantics.starts(node, root, n)}
        for node in range(n)
    ]
    repeats: list[tuple[int, int, list[int]]] = []
    for index, rnd in enumerate(rounds):
        moves = [
            (dst, rnd.take(held[src], dst, semantics.personal))
            for src, dst in rnd.circuits(root)
        ]
        for dst, blocks in moves:
            again = sorted(held[dst].keys() & blocks.keys())
            if again:
                repeats.append((index, dst, again))
            held[dst].update(blocks)
    return held, repeats


def resolve_pattern(
    pattern: str,
    algorithm: str,
    d: int,
    *,
    partition: Sequence[int] | None = None,
    root: int = 0,
) -> tuple[PatternAlgorithm, tuple[int, ...] | None, int]:
    """Validate one algorithm's arguments: ``(row, partition, root)``.

    ``partition`` applies only to an exchange schedule (``None`` means
    the single-phase ``(d,)``), ``root`` only to rooted patterns;
    passing either where it does not apply raises :class:`ValueError`.
    """
    row = PATTERN_TABLE.get((pattern, algorithm))
    if row is None:
        raise ValueError(
            f"no program for pattern {pattern!r} algorithm {algorithm!r}; "
            f"have {sorted(PATTERN_TABLE)}"
        )
    check_dimension(d, minimum=1)
    if row.schedule == "exchange":
        partition = check_partition(partition if partition is not None else (d,), d)
    elif partition is not None:
        raise ValueError(
            f"{row.name} takes no partition, got partition={partition!r}"
        )
    if row.semantics.rooted:
        check_node(root, d)
    elif root != 0:
        raise ValueError(f"{row.name} takes no root, got root={root!r}")
    return row, partition, root


def pattern_program(
    pattern: str,
    algorithm: str,
    d: int,
    *,
    partition: Sequence[int] | None = None,
    root: int = 0,
) -> CommProgram:
    """The :class:`CommProgram` for one §9 pattern algorithm.

    The chain is the root's: a barrier, then one send (or pairwise
    swap) per round, carrying the blocks the declaration says the root
    passes on.  Arguments are checked by :func:`resolve_pattern`.

    Programs are memoized per process: equal arguments (a list or a
    tuple partition alike) return the *same* immutable program, so
    callers share one step stream instead of rebuilding it.

    >>> pattern_program("broadcast", "binomial", 3).n_steps
    4
    >>> pattern_program("allgather", "doubling", 3).name
    'allgather/doubling'
    >>> pattern_program("scatter", "direct", 5) is pattern_program("scatter", "direct", 5)
    True
    """
    _, partition, root = resolve_pattern(
        pattern, algorithm, d, partition=partition, root=root
    )
    return _pattern_program(pattern, algorithm, d, partition, root)


@lru_cache(maxsize=512)
def _pattern_program(
    pattern: str,
    algorithm: str,
    d: int,
    partition: tuple[int, ...] | None,
    root: int,
) -> CommProgram:
    row = PATTERN_TABLE[(pattern, algorithm)]
    if row.schedule == "exchange":
        base = exchange_steps(d, partition)
        return CommProgram(
            name=row.name, d=d, steps=base.steps, partition=base.partition
        )
    semantics = row.semantics
    held = len(semantics.starts(root, root, 1 << d))
    steps: list[ProgramStep] = [BarrierStep()]
    for rnd in pattern_rounds(row, d, root):
        # the root sends every round; personal blocks go only to the
        # receiver's downstream, copied blocks all go
        blocks = 1 << popcount(rnd.reach) if semantics.personal else held
        if rnd.pairwise:
            steps.append(PairStep(shift=rnd.mask, bytes_per_m=blocks))
            held += blocks  # the partner held as many as the root
        else:
            steps.append(SendStep(src=root, dst=root ^ rnd.mask, bytes_per_m=blocks))
    return CommProgram(name=row.name, d=d, steps=tuple(steps))
