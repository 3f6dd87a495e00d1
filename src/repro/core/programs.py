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

Programs with ``contended=True`` (the naive rotation baseline) have no
lockstep closed form — their cost is link/port serialization — and are
refused by the compiler; :func:`repro.sim.fastpath.batch_program_times`
routes them to the reservation replay instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Union

from repro.core.schedule import (
    ExchangeStep,
    PhaseStart,
    ShuffleStep,
    multiphase_schedule,
)
from repro.util.bitops import popcount
from repro.util.validation import check_dimension, check_node, check_partition

__all__ = [
    "BarrierStep",
    "CommProgram",
    "LocalShuffleStep",
    "PairStep",
    "ProgramStep",
    "SendStep",
    "allgather_doubling_steps",
    "allgather_exchange_steps",
    "broadcast_binomial_steps",
    "broadcast_direct_steps",
    "exchange_steps",
    "naive_rotation_steps",
    "pattern_program",
    "scatter_direct_steps",
    "scatter_halving_steps",
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
# §9 pattern programs
# ----------------------------------------------------------------------
def broadcast_binomial_steps(d: int, root: int = 0) -> CommProgram:
    """Binomial (subcube-doubling) broadcast: the root's send chain.

    Step ``j`` forwards the whole message across dimension ``j``; every
    reached node's forwarding chain accumulates the same per-step
    duration ``λ + τ·m + δ``, so the root chain is the exact makespan.
    """
    check_dimension(d, minimum=1)
    check_node(root, d)
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(
        SendStep(src=root, dst=root ^ (1 << j), bytes_per_m=1) for j in range(d)
    )
    return CommProgram(name="broadcast/binomial", d=d, steps=tuple(steps))


def broadcast_direct_steps(d: int, root: int = 0) -> CommProgram:
    """Direct-circuit broadcast: the root circuits to every node in
    turn (ascending destination order, as the SPMD program sends),
    serialized at its own port."""
    check_dimension(d, minimum=1)
    check_node(root, d)
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(
        SendStep(src=root, dst=dst, bytes_per_m=1)
        for dst in range(1 << d)
        if dst != root
    )
    return CommProgram(name="broadcast/direct", d=d, steps=tuple(steps))


def scatter_halving_steps(d: int, root: int = 0) -> CommProgram:
    """Recursive-halving scatter: the root's chain, dimensions high to
    low; step over dimension ``j`` forwards the ``2**j`` blocks bound
    for the other subcube."""
    check_dimension(d, minimum=1)
    check_node(root, d)
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(
        SendStep(src=root, dst=root ^ (1 << j), bytes_per_m=1 << j)
        for j in range(d - 1, -1, -1)
    )
    return CommProgram(name="scatter/halving", d=d, steps=tuple(steps))


def scatter_direct_steps(d: int, root: int = 0) -> CommProgram:
    """Direct-circuit scatter: one block to every node in turn — the
    same chain shape as the direct broadcast, one block per circuit."""
    check_dimension(d, minimum=1)
    check_node(root, d)
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(
        SendStep(src=root, dst=dst, bytes_per_m=1)
        for dst in range(1 << d)
        if dst != root
    )
    return CommProgram(name="scatter/direct", d=d, steps=tuple(steps))


def allgather_doubling_steps(d: int) -> CommProgram:
    """Recursive-doubling allgather: ``d`` synchronized neighbour
    exchanges of doubling size ``m·2**j`` — fully lockstep."""
    check_dimension(d, minimum=1)
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(PairStep(shift=1 << j, bytes_per_m=1 << j) for j in range(d))
    return CommProgram(name="allgather/doubling", d=d, steps=tuple(steps))


def allgather_exchange_steps(
    d: int, partition: Sequence[int] | None = None
) -> CommProgram:
    """Allgather realized as a complete exchange at ``partition`` —
    the exchange program under the pattern's name."""
    base = exchange_steps(d, partition)
    return CommProgram(
        name="allgather/exchange", d=d, steps=base.steps, partition=base.partition
    )


#: pattern/algorithm -> builder, the compiler-facing §9 registry
_PATTERN_BUILDERS = {
    ("broadcast", "binomial"): broadcast_binomial_steps,
    ("broadcast", "direct"): broadcast_direct_steps,
    ("scatter", "halving"): scatter_halving_steps,
    ("scatter", "direct"): scatter_direct_steps,
    ("allgather", "doubling"): allgather_doubling_steps,
    ("allgather", "exchange"): allgather_exchange_steps,
}

#: patterns whose builders take a ``root``
_ROOTED_PATTERNS = ("broadcast", "scatter")

#: the one algorithm whose builder takes a ``partition``
_PARTITIONED = ("allgather", "exchange")


def pattern_program(
    pattern: str,
    algorithm: str,
    d: int,
    *,
    partition: Sequence[int] | None = None,
    root: int = 0,
) -> CommProgram:
    """The :class:`CommProgram` for one §9 pattern algorithm.

    ``partition`` applies only to allgather's ``exchange`` algorithm
    (``None`` means the single-phase ``(d,)``); ``root`` only to the
    rooted patterns (broadcast, scatter).  Passing either to an
    algorithm that does not take it raises :class:`ValueError`.

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
    if (pattern, algorithm) not in _PATTERN_BUILDERS:
        raise ValueError(
            f"no program for pattern {pattern!r} algorithm {algorithm!r}; "
            f"have {sorted(_PATTERN_BUILDERS)}"
        )
    check_dimension(d, minimum=1)
    if (pattern, algorithm) == _PARTITIONED:
        partition = check_partition(partition if partition is not None else (d,), d)
    elif partition is not None:
        raise ValueError(
            f"{pattern}/{algorithm} takes no partition, got partition={partition!r}"
        )
    if pattern in _ROOTED_PATTERNS:
        check_node(root, d)
    elif root != 0:
        raise ValueError(f"{pattern}/{algorithm} takes no root, got root={root!r}")
    else:
        root = None
    return _pattern_program(pattern, algorithm, d, partition, root)


@lru_cache(maxsize=512)
def _pattern_program(
    pattern: str,
    algorithm: str,
    d: int,
    partition: tuple[int, ...] | None,
    root: int | None,
) -> CommProgram:
    builder = _PATTERN_BUILDERS[(pattern, algorithm)]
    if partition is not None:
        return builder(d, partition)
    if root is not None:
        return builder(d, root)
    return builder(d)
