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
exchanges (tests), and :func:`distance_profile` exposes the per-round
hop sequence the orderings differ by.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby
from typing import Sequence

from repro.core.programs import Round, exchange_rounds
from repro.util.bitops import gray_code, popcount

__all__ = [
    "ORDERINGS",
    "distance_profile",
    "offset_order",
    "ordered_rounds",
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


def ordered_rounds(
    d: int, partition: Sequence[int], ordering: str = "index"
) -> tuple[Round, ...]:
    """The exchange's rounds with a chosen within-phase offset order.

    Permutes each phase's masks of
    :func:`repro.core.programs.exchange_rounds` (which runs each
    phase's offsets in index order) and leaves every tag at its
    position, so ``ordering='index'`` reproduces it exactly.

    >>> [r.mask for r in ordered_rounds(3, (3,), "gray")]
    [1, 3, 2, 6, 7, 5, 4]
    """
    rounds: list[Round] = []
    for _, phase in groupby(exchange_rounds(d, partition), key=lambda rnd: rnd.phase):
        index_order = list(phase)
        # a width-w phase has 2**w - 1 rounds, and in index order offset
        # o is its o-th round; put the ordering's o-th offset there
        order = offset_order(len(index_order).bit_length(), ordering)
        rounds.extend(
            replace(rnd, mask=index_order[offset - 1].mask)
            for rnd, offset in zip(index_order, order)
        )
    return tuple(rounds)


def distance_profile(rounds: Sequence[Round]) -> list[int]:
    """Per-round hop distances, in execution order.

    The multiset is ordering-invariant (total distance is fixed at
    ``Σ d_i·2**(d_i-1)``); the sequence is what the orderings shape.
    """
    return [popcount(rnd.mask) for rnd in rounds]
