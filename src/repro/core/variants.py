"""Alternative pairwise-exchange schedule orderings (paper §4.2, ref. [3]).

The paper uses the Schmiermund–Seidel schedule with offsets in index
order (``1, 2, ..., 2**d_i - 1``) but notes that "other schedules are
possible — some of these have advantages over certain ranges of block
size" (explored in the companion ICASE report 91-4).  The correctness
and total cost of a phase are *order-invariant*: any permutation of
the offsets exchanges the same blocks over the same distances, and
each step remains individually contention-free.  What changes is the
temporal profile — which matters once phases are pipelined with
computation or run without full synchronization.

This module provides the orderings discussed there:

``index``
    The paper's ascending-offset order.
``distance``
    Offsets sorted by path length (nearest partners first): front-loads
    the cheap steps, useful when overlapping the tail with computation.
``distance_desc``
    Farthest first: drains the long circuits early.
``gray``
    Offsets in binary-reflected Gray sequence; consecutive steps differ
    in partner by one dimension, minimizing circuit "teardown churn"
    between steps.

All orderings are validated contention-free and produce byte-identical
exchanges (tests), and :func:`distance_profile` exposes the per-step
hop sequence the orderings differ by.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.schedule import ExchangeStep, PhaseStart, Step, multiphase_schedule
from repro.util.bitops import gray_code, popcount

__all__ = [
    "ORDERINGS",
    "distance_profile",
    "offset_order",
    "multiphase_schedule_ordered",
]

ORDERINGS = ("index", "distance", "distance_desc", "gray")


def offset_order(width: int, ordering: str) -> list[int]:
    """The non-zero offsets of a ``width``-dimensional phase in the
    requested ordering.

    >>> offset_order(3, "index")
    [1, 2, 3, 4, 5, 6, 7]
    >>> offset_order(3, "distance")
    [1, 2, 4, 3, 5, 6, 7]
    >>> offset_order(3, "gray")
    [1, 3, 2, 6, 7, 5, 4]
    """
    if width < 1:
        raise ValueError(f"phase width must be >= 1, got {width}")
    offsets = list(range(1, 1 << width))
    if ordering == "index":
        return offsets
    if ordering == "distance":
        return sorted(offsets, key=lambda o: (popcount(o), o))
    if ordering == "distance_desc":
        return sorted(offsets, key=lambda o: (-popcount(o), o))
    if ordering == "gray":
        return [gray_code(i) for i in range(1, 1 << width)]
    raise ValueError(f"unknown ordering {ordering!r}; have {ORDERINGS}")


def multiphase_schedule_ordered(
    d: int, partition: Sequence[int], ordering: str = "index"
) -> list[Step]:
    """The multiphase schedule with a chosen within-phase offset order.

    Built from :func:`repro.core.schedule.multiphase_schedule` (which
    runs each phase's offsets in index order) by reordering each
    phase's exchange steps, so ``ordering='index'`` reproduces it
    exactly.
    """
    steps = multiphase_schedule(d, partition)
    order: list[int] = []
    for index, step in enumerate(steps):
        if isinstance(step, PhaseStart):
            order = offset_order(step.group.width, ordering)
        elif isinstance(step, ExchangeStep):
            # in index order offset o is the phase's o-th exchange; put
            # the ordering's o-th offset there
            steps[index] = replace(step, offset=order[step.offset - 1])
    return steps


def distance_profile(steps: Sequence[Step]) -> list[int]:
    """Per-exchange-step hop distances, in execution order.

    The multiset is ordering-invariant (total distance is fixed at
    ``Σ d_i·2**(d_i-1)``); the sequence is what the orderings shape.
    """
    return [step.hops for step in steps if isinstance(step, ExchangeStep)]
