"""The exchange's rounds through a step list: the test-side oracle.

``repro.core.programs.exchange_rounds`` builds the multiphase
exchange's rounds straight from the partition, and
``repro.core.variants.ordered_rounds`` permutes each phase's masks.
This module keeps the older two-stage construction beside them: a flat
step list (a barrier opening each phase, one exchange step per offset,
a shuffle closing each phase of a multiphase run), reordered step by
step, then converted to rounds tagged by step position.  The tests pin
the builders to it round for round, tags included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Union

from repro.core.programs import Round
from repro.core.variants import offset_order
from repro.hypercube.subcube import BitGroup, phase_bit_groups
from repro.util.validation import check_partition


@dataclass(frozen=True)
class PhaseStart:
    """Phase boundary: post all receives for the phase, then barrier."""

    phase_index: int
    group: BitGroup


@dataclass(frozen=True)
class ExchangeStep:
    """Every node swaps with ``node ^ (offset << group.lo)``."""

    phase_index: int
    group: BitGroup
    offset: int


@dataclass(frozen=True)
class ShuffleStep:
    """``times`` elementary shuffles closing a phase."""

    phase_index: int
    times: int


Step = Union[PhaseStart, ExchangeStep, ShuffleStep]


def schedule_steps(d: int, partition: Sequence[int], ordering: str = "index") -> list[Step]:
    """The step list of the multiphase exchange at ``partition``, each
    phase's offsets in ``ordering``; a single phase has no shuffle."""
    parts = check_partition(partition, d)
    steps: list[Step] = []
    for i, (di, group) in enumerate(zip(parts, phase_bit_groups(parts, d))):
        steps.append(PhaseStart(phase_index=i, group=group))
        for offset in range(1, 1 << di):
            steps.append(ExchangeStep(phase_index=i, group=group, offset=offset))
        if len(parts) > 1:
            steps.append(ShuffleStep(phase_index=i, times=di))
    if ordering != "index":
        order: list[int] = []
        for index, step in enumerate(steps):
            if isinstance(step, PhaseStart):
                order = offset_order(step.group.width, ordering)
            elif isinstance(step, ExchangeStep):
                steps[index] = replace(step, offset=order[step.offset - 1])
    return steps


def steps_to_rounds(steps: Sequence[Step], d: int) -> tuple[Round, ...]:
    """Exchange step ``i`` of ``steps`` as a pairwise round tagged
    ``i``, reaching every bit outside its phase's group."""
    closing = {step.phase_index: step.times for step in steps if isinstance(step, ShuffleStep)}
    return tuple(
        Round(
            mask=step.offset << step.group.lo,
            sources=(1 << d) - 1,
            reach=~step.group.mask,
            tag=index,
            pairwise=True,
            phase=step.phase_index,
            times=closing.get(step.phase_index, 0),
        )
        for index, step in enumerate(steps)
        if isinstance(step, ExchangeStep)
    )


def oracle_rounds(d: int, partition: Sequence[int], ordering: str = "index") -> tuple[Round, ...]:
    """The rounds the step-list construction gives."""
    return steps_to_rounds(schedule_steps(d, partition, ordering), d)
