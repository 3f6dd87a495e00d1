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

Declared algorithms
-------------------
The paper's complete exchange and every §9 broadcast, scatter and
allgather algorithm is declared once, as one :class:`PatternAlgorithm`
row of :data:`PATTERN_TABLE`: the pattern's :class:`BlockSemantics`
(who starts and ends holding which blocks) paired with a schedule (a
tree over single-bit masks, direct root circuits, pairwise swaps, or
the multiphase exchange's partial exchanges).  Everything else is
derived from the row — :func:`pattern_rounds` expands it into rounds
(:class:`Round`), :func:`replay_pattern`, the one lockstep loop, moves
blocks along them, :func:`pattern_program` evaluates the root's chain,
and the consumers are the static certificate
(:func:`repro.check.schedule.verify_pattern`), the data-level
exchange and collectives and the SPMD interpreter of
:mod:`repro.patterns`, so the circuits the certificate proves are the
circuits the engines run and the chain the fast path prices.

The naive rotation baseline, ``alltoall/rotation``, is ``contended``:
its cost is link/port serialization, not a lockstep chain, so its
program carries its rounds and :mod:`repro.sim.fastpath` replays them
sends-first instead of compiling it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Callable, Mapping, Sequence, Union

from repro.hypercube.subcube import phase_bit_groups
from repro.util.bitops import popcount
from repro.util.validation import check_dimension, check_node, check_partition

__all__ = [
    "BLOCK_SEMANTICS",
    "BarrierStep",
    "BlockSemantics",
    "CommProgram",
    "KeyHoldings",
    "LocalShuffleStep",
    "PATTERN_TABLE",
    "PairStep",
    "PatternAlgorithm",
    "ProgramStep",
    "Round",
    "SendStep",
    "exchange_rounds",
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
    than the chain sum (the compiler refuses them; their price replays
    their ``rounds``); ``partition`` is carried for exchange-backed
    programs so consumers can trace the schedule a program prices.
    The hash is cached on the instance, outside the fields and the
    pickled state (``str`` hashes differ between processes).
    """

    name: str
    d: int
    steps: tuple[ProgramStep, ...] = field(default=())
    contended: bool = False
    partition: tuple[int, ...] | None = None
    rounds: tuple["Round", ...] = ()

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.d, self.steps, self.contended, self.partition, self.rounds))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict[str, Any]:
        return {key: value for key, value in self.__dict__.items() if key != "_hash"}

    @property
    def n_steps(self) -> int:
        return len(self.steps)


# ----------------------------------------------------------------------
# declared algorithms: one PATTERN_TABLE row each
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BlockSemantics:
    """What a pattern moves, as integer block keys.

    ``starts(node, root, n)`` / ``ends(node, root, n)`` are the keys a
    node holds before the first round and must hold after the last.
    A *personal* block has one owner: it leaves its sender and only
    travels towards the node it is for.  Other blocks are copied.
    ``rooted`` patterns take a ``root``.  ``key_fields`` names the
    parts of ``divmod(key, n)`` for counterexamples when a key packs
    two labels.
    """

    starts: Callable[[int, int, int], Sequence[int]]
    ends: Callable[[int, int, int], Sequence[int]]
    personal: bool = False
    rooted: bool = True
    key_fields: tuple[str, ...] = ()


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
    # the complete exchange: block o·n + x travels from origin o to
    # node x, so the low d bits of a key are its destination
    "alltoall": BlockSemantics(
        starts=lambda node, root, n: range(node * n, node * n + n),
        ends=lambda node, root, n: range(node, n * n, n),
        personal=True,
        rooted=False,
        key_fields=("origin", "dest"),
    ),
}


@dataclass(frozen=True)
class PatternAlgorithm:
    """One algorithm: a pattern's block semantics plus a schedule.

    ``schedule`` is ``"tree"`` (every holder forwards across one
    single-bit mask per round, ascending, or from the top bit down
    with ``descending``), ``"direct"`` (the root circuits to every node
    in ascending order), ``"pairwise"`` (every node swaps across
    ascending masks), ``"multiphase"`` (the paper's complete
    exchange at a partition, :func:`exchange_rounds`) or
    ``"rotation"`` (step ``s`` sends to ``(x + s) mod n``).
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
        PatternAlgorithm("allgather", "exchange", "multiphase"),
        PatternAlgorithm("alltoall", "multiphase", "multiphase"),
        PatternAlgorithm("alltoall", "rotation", "rotation"),
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
    ``tag`` labels the round's messages.  ``phase`` numbers the
    round's phase: a phase opens with a barrier (receives posted, then
    a global synchronization: FORCED messages are fatal without it,
    paper §7.3) and, when ``times`` is non-zero, closes with ``times``
    elementary shuffles (every round of a phase records the same
    ``times``).
    A rotation round (``offset`` non-zero) has every node send to
    ``(x + offset) mod n`` instead (``sources`` is ``n - 1``).
    """

    mask: int
    sources: int
    reach: int
    tag: int
    pairwise: bool = False
    phase: int = 0
    times: int = 0
    offset: int = 0

    def sends(self, relative: int) -> bool:
        """Whether node ``root ^ relative`` sends this round."""
        return relative & ~self.sources == 0

    def receives(self, relative: int) -> bool:
        """Whether node ``root ^ relative`` receives this round."""
        return self.sends(relative ^ self.mask)

    def sends_to(self, src: int) -> int:
        """The node a sender ``src`` sends to."""
        return (src + self.offset) & self.sources if self.offset else src ^ self.mask

    def receives_from(self, dst: int) -> int:
        """The node a receiver ``dst`` receives from."""
        return (dst - self.offset) & self.sources if self.offset else dst ^ self.mask

    def circuits(self, root: int) -> list[tuple[int, int]]:
        """Every ``(src, dst)`` circuit the round holds, by source."""
        senders: list[int] = []
        sub = self.sources
        while True:
            senders.append(root ^ sub)
            if sub == 0:
                break
            sub = (sub - 1) & self.sources
        return sorted((src, self.sends_to(src)) for src in senders)

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


def exchange_rounds(d: int, partition: Sequence[int]) -> tuple[Round, ...]:
    """The rounds of the paper's multiphase complete exchange (§5) at
    ``partition`` on a ``d``-cube.

    Phase ``i`` runs the pairwise offsets ``1 .. 2**d_i - 1`` on its
    bit group ``g`` (:func:`~repro.hypercube.subcube.phase_bit_groups`)
    in increasing order — the Schmiermund–Seidel schedule restricted to
    the phase's subcube — one pairwise round across ``offset << g.lo``
    each.  Its ``reach`` is every bit outside ``g``, so
    :meth:`Round.take` moves exactly the blocks whose destination
    matches the partner on the group's bits, the paper's effective
    block of ``m·2**(d - d_i)`` bytes.  With ``k > 1`` phases each one
    closes with ``times = d_i`` elementary shuffles (index-bit
    rotations, one fused pass); a single phase records none, since the
    rotation by ``d`` is the identity (paper §7.4).

    The tags count the phase barriers and closing shuffles as well, so
    a round's tag is its position in the phase-by-phase chain.
    ``(1,) * d`` is the Standard Exchange and ``(d,)`` the Optimal
    Circuit-Switched algorithm (§5.2).

    >>> [(r.mask, r.tag, r.phase, r.times) for r in exchange_rounds(3, (2, 1))]
    [(2, 1, 0, 2), (4, 2, 0, 2), (6, 3, 0, 2), (1, 6, 1, 1)]
    """
    parts = check_partition(partition, d)
    n = 1 << d
    shuffles = len(parts) > 1
    rounds: list[Round] = []
    tag = 0
    for phase, (di, group) in enumerate(zip(parts, phase_bit_groups(parts, d))):
        tag += 1  # the phase's barrier
        for offset in range(1, 1 << di):
            rounds.append(Round(
                mask=offset << group.lo,
                sources=n - 1,
                reach=~group.mask,
                tag=tag,
                pairwise=True,
                phase=phase,
                times=di if shuffles else 0,
            ))
            tag += 1
        tag += shuffles  # the closing shuffle
    return tuple(rounds)


def pattern_rounds(
    row: PatternAlgorithm,
    d: int,
    root: int,
    *,
    partition: Sequence[int] | None = None,
) -> tuple[Round, ...]:
    """Expand a declared schedule into rounds; ``partition`` (default
    ``(d,)``) applies to the multiphase schedule only.  A rotation
    round reaches every key bit above the ``d`` destination bits, so
    :meth:`Round.take` moves exactly the block for ``(x + s) mod n``.
    """
    n = 1 << d
    if row.schedule == "multiphase":
        return exchange_rounds(d, partition if partition is not None else (d,))
    if row.schedule == "rotation":
        return tuple(Round(mask=0, sources=n - 1, reach=-n, tag=s, offset=s) for s in range(1, n))
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


def _closes_phase(rounds: Sequence[Round], index: int) -> bool:
    return index + 1 == len(rounds) or rounds[index + 1].phase != rounds[index].phase


class KeyHoldings(dict):
    """Dict holdings ``{key: block}`` of :func:`replay_pattern` and of
    the SPMD :func:`repro.patterns.execute.pattern_node`, for any row
    and block type, starting with ``node``'s blocks of ``row``,
    ``block(key)`` each."""

    def __init__(
        self, row: PatternAlgorithm, node: int, root: int, d: int,
        block: Callable[[int], Any],
    ) -> None:
        super().__init__(
            (key, block(key)) for key in row.semantics.starts(node, root, 1 << d)
        )
        self.personal = row.semantics.personal

    def send(self, rnd: Round, dst: int) -> dict[int, Any]:
        return rnd.take(self, dst, self.personal)

    def receive(self, blocks: Mapping[int, Any]) -> list[int]:
        again = sorted(self.keys() & blocks.keys())
        self.update(blocks)
        return again

    def shuffle(self, times: int) -> None:
        """Keys are position-free: nothing moves."""


def replay_pattern(
    rounds: Sequence[Round],
    holdings: Sequence[Any],
    root: int = 0,
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, list[int]]]]:
    """Move blocks along ``rounds`` on every node at once: the one
    lockstep loop.

    ``holdings[node]`` (:class:`KeyHoldings`, or the fixed slots of a
    :class:`~repro.core.blocks.BlockBuffer` or runs of a
    :class:`~repro.core.shuffle.LayoutBuffer`) answers ``send(rnd,
    dst)`` with the blocks for ``dst``, ``receive(blocks)`` with the
    keys that arrived twice, and ``shuffle(times)`` when a phase
    closes.  Every circuit reads the holdings from before its round.
    Returns the circuits that carried no block, ``(round index, src,
    dst)``, and the repeated arrivals, ``(round index, node, keys)``.
    """
    empty: list[tuple[int, int, int]] = []
    repeats: list[tuple[int, int, list[int]]] = []
    for index, rnd in enumerate(rounds):
        moves = [
            (src, dst, holdings[src].send(rnd, dst))
            for src, dst in rnd.circuits(root)
        ]
        for src, dst, blocks in moves:
            if not len(blocks):
                empty.append((index, src, dst))
            again = holdings[dst].receive(blocks)
            if again:
                repeats.append((index, dst, again))
        if rnd.times and _closes_phase(rounds, index):
            for held in holdings:
                held.shuffle(rnd.times)
    return empty, repeats


def resolve_pattern(
    pattern: str,
    algorithm: str,
    d: int,
    *,
    partition: Sequence[int] | None = None,
    root: int = 0,
) -> tuple[PatternAlgorithm, tuple[int, ...] | None, int]:
    """Validate one algorithm's arguments: ``(row, partition, root)``.

    ``partition`` applies only to the multiphase schedule (``None``
    means the single-phase ``(d,)``), ``root`` only to rooted
    patterns; passing either where it does not apply raises
    :class:`ValueError`.
    """
    row = PATTERN_TABLE.get((pattern, algorithm))
    if row is None:
        raise ValueError(
            f"no program for pattern {pattern!r} algorithm {algorithm!r}; "
            f"have {sorted(PATTERN_TABLE)}"
        )
    check_dimension(d, minimum=1)
    if row.schedule == "multiphase":
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
    """The :class:`CommProgram` for one declared algorithm.

    The chain is the root's: a barrier, then one send (or pairwise
    swap) per round, carrying the blocks the declaration says the root
    passes on.  A multiphase chain opens every phase with a barrier
    and closes a shuffling phase with one pass over the whole buffer.
    Arguments are checked by :func:`resolve_pattern`.

    Programs are memoized per process: equal arguments (a list or a
    tuple partition alike) return the *same* immutable program, so
    callers share one step stream instead of rebuilding it.

    >>> pattern_program("broadcast", "binomial", 3).n_steps
    4
    >>> pattern_program("allgather", "doubling", 3).name
    'allgather/doubling'
    >>> pattern_program("scatter", "direct", 5) is pattern_program("scatter", "direct", 5)
    True
    >>> pattern_program("alltoall", "multiphase", 3, partition=(2, 1)).n_steps
    8
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
    rounds = pattern_rounds(row, d, root, partition=partition)
    steps: list[ProgramStep] = []
    if row.schedule == "multiphase":
        # every node's chain; a round swaps 2**(d - d_i) blocks
        n = 1 << d
        for index, rnd in enumerate(rounds):
            if index == 0 or rounds[index - 1].phase != rnd.phase:
                steps.append(BarrierStep())
            steps.append(PairStep(
                shift=rnd.mask, bytes_per_m=1 << popcount(rnd.reach & (n - 1))
            ))
            if rnd.times and _closes_phase(rounds, index):
                steps.append(LocalShuffleStep(bytes_per_m=n))
        return CommProgram(name=row.name, d=d, steps=tuple(steps), partition=partition)
    semantics = row.semantics
    n = 1 << d
    held = len(semantics.starts(root, root, n))
    steps.append(BarrierStep())
    for rnd in rounds:
        # the root sends every round; personal blocks go only to the
        # receiver's downstream, copied blocks all go
        blocks = 1 << popcount(rnd.reach & (n - 1)) if semantics.personal else held
        if rnd.pairwise:
            steps.append(PairStep(shift=rnd.mask, bytes_per_m=blocks))
            held += blocks  # the partner held as many as the root
        else:
            steps.append(SendStep(src=root, dst=rnd.sends_to(root), bytes_per_m=blocks))
    if row.schedule == "rotation":  # nodes drift apart: the chain is not the price
        return CommProgram(row.name, d, tuple(steps), contended=True, rounds=rounds)
    return CommProgram(name=row.name, d=d, steps=tuple(steps))
