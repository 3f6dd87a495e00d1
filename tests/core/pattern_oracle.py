"""Hand-written §9 pattern chains: the test-side oracle.

``repro.core.programs.pattern_program`` derives every pattern chain
from one declaration per algorithm.  These builders spell each chain
out by hand, independently of that table, so the tests can pin the
derived chains step for step.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.programs import (
    BarrierStep,
    CommProgram,
    PairStep,
    ProgramStep,
    SendStep,
    exchange_steps,
)


def broadcast_binomial_steps(d: int, root: int = 0) -> CommProgram:
    """Binomial broadcast: the root forwards the message across every
    dimension, lowest first."""
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(
        SendStep(src=root, dst=root ^ (1 << j), bytes_per_m=1) for j in range(d)
    )
    return CommProgram(name="broadcast/binomial", d=d, steps=tuple(steps))


def broadcast_direct_steps(d: int, root: int = 0) -> CommProgram:
    """Direct broadcast: the root circuits to every node in ascending
    destination order."""
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(
        SendStep(src=root, dst=dst, bytes_per_m=1)
        for dst in range(1 << d)
        if dst != root
    )
    return CommProgram(name="broadcast/direct", d=d, steps=tuple(steps))


def scatter_halving_steps(d: int, root: int = 0) -> CommProgram:
    """Recursive-halving scatter: dimensions high to low; the step over
    dimension ``j`` forwards the ``2**j`` blocks bound for the other
    subcube."""
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(
        SendStep(src=root, dst=root ^ (1 << j), bytes_per_m=1 << j)
        for j in range(d - 1, -1, -1)
    )
    return CommProgram(name="scatter/halving", d=d, steps=tuple(steps))


def scatter_direct_steps(d: int, root: int = 0) -> CommProgram:
    """Direct scatter: one block to every node in turn."""
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(
        SendStep(src=root, dst=dst, bytes_per_m=1)
        for dst in range(1 << d)
        if dst != root
    )
    return CommProgram(name="scatter/direct", d=d, steps=tuple(steps))


def allgather_doubling_steps(d: int) -> CommProgram:
    """Recursive-doubling allgather: ``d`` neighbour exchanges of
    doubling size ``m·2**j``."""
    steps: list[ProgramStep] = [BarrierStep()]
    steps.extend(PairStep(shift=1 << j, bytes_per_m=1 << j) for j in range(d))
    return CommProgram(name="allgather/doubling", d=d, steps=tuple(steps))


def allgather_exchange_steps(
    d: int, partition: Sequence[int] | None = None
) -> CommProgram:
    """Allgather as a complete exchange at ``partition``."""
    base = exchange_steps(d, partition)
    return CommProgram(
        name="allgather/exchange", d=d, steps=base.steps, partition=base.partition
    )


#: rooted (pattern, algorithm) -> oracle builder taking ``(d, root)``
ROOTED_ORACLES = {
    ("broadcast", "binomial"): broadcast_binomial_steps,
    ("broadcast", "direct"): broadcast_direct_steps,
    ("scatter", "halving"): scatter_halving_steps,
    ("scatter", "direct"): scatter_direct_steps,
}


def oracle_program(
    pattern: str,
    algorithm: str,
    d: int,
    *,
    partition: Sequence[int] | None = None,
    root: int = 0,
) -> CommProgram:
    """The hand-written chain for any declared algorithm."""
    if (pattern, algorithm) == ("allgather", "exchange"):
        return allgather_exchange_steps(d, partition)
    if (pattern, algorithm) == ("allgather", "doubling"):
        return allgather_doubling_steps(d)
    return ROOTED_ORACLES[(pattern, algorithm)](d, root)
