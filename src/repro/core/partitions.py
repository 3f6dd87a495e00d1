"""Integer partitions of the cube dimension (paper §6).

The multiphase algorithm is parameterized by a partition
``D = {d1, ..., dk}`` of the cube dimension ``d``.  The number of
candidate algorithms is therefore ``p(d)``, the partition function —
"an exponential but very slowly growing function" (``p(7) = 15``,
``p(10) = 42``, ``p(20) = 627``), which makes exhaustive enumeration
over partitions entirely practical.

This module provides:

* :func:`partitions` — generation of all partitions of ``d``;
* :func:`partition_count` — ``p(d)`` via Euler's pentagonal-number
  recurrence, the same recurrence quoted in the paper;
* :func:`partition_count_asymptotic` — the Hardy–Ramanujan estimate
  ``p(d) ~ exp(pi*sqrt(2d/3)) / (4*sqrt(3)*d)`` the paper cites;
* :func:`compositions` — ordered variants, used to confirm that phase
  order does not change cost or correctness.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

from repro.util.validation import check_partition

__all__ = [
    "cached_partitions",
    "canonical",
    "compositions",
    "partition_count",
    "partition_count_asymptotic",
    "partition_count_table",
    "partitions",
]


def partitions(d: int, *, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Generate all partitions of ``d`` in decreasing-part canonical form.

    Partitions are emitted in reverse lexicographic order starting from
    ``(d,)`` (the single-phase Optimal Circuit-Switched algorithm) and
    ending with ``(1,) * d`` (the Standard Exchange algorithm).

    Parameters
    ----------
    d:
        The integer (cube dimension) to partition; must be >= 0.  For
        ``d == 0`` the single empty partition ``()`` is produced.
    max_part:
        Optional cap on the largest part, used by the recursion and
        available to callers that want to exclude large subcubes.

    >>> list(partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if d < 0:
        raise ValueError(f"cannot partition a negative integer: {d}")
    cap = d if max_part is None else min(max_part, d)
    if d == 0:
        yield ()
        return
    if cap <= 0:
        return
    for first in range(cap, 0, -1):
        for rest in partitions(d - first, max_part=first):
            yield (first, *rest)


def compositions(d: int) -> Iterator[tuple[int, ...]]:
    """Generate all *ordered* partitions (compositions) of ``d``.

    There are ``2**(d-1)`` of them.  The paper notes the sequence of
    subcube dimensions is unimportant as long as shuffles are carried
    out correctly; the test suite uses compositions to check that every
    ordering of a partition yields a correct exchange with identical
    modelled cost.

    >>> sorted(compositions(3))
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if d < 0:
        raise ValueError(f"cannot compose a negative integer: {d}")
    if d == 0:
        yield ()
        return
    for first in range(1, d + 1):
        for rest in compositions(d - first):
            yield (first, *rest)


@lru_cache(maxsize=None)
def cached_partitions(
    d: int, *, max_part: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Memoized candidate pool: all partitions of ``d`` as a tuple.

    The optimizer and the batched sweeps enumerate the same pool for
    every block size they evaluate; the paper notes the enumeration
    "needs to be done only once", so cache it.  The cache is unbounded
    on purpose: it holds one pool per ``(d, max_part)`` asked for, and
    the library asks only ``max_part=None`` at ``d`` up to
    ``MAX_DIMENSION``, ``p(d)`` tuples each (1575 at d = 24, a few
    thousand objects in all).

    >>> cached_partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    >>> cached_partitions(4) is cached_partitions(4)
    True
    """
    return tuple(partitions(d, max_part=max_part))


def canonical(partition: Sequence[int], d: int | None = None) -> tuple[int, ...]:
    """Canonical (decreasing) form of a partition.

    Used to compare partitions regardless of phase order and as the key
    in optimizer tables.
    """
    parts = tuple(sorted(partition, reverse=True))
    if d is not None:
        check_partition(parts, d)
    return parts


@lru_cache(maxsize=None)
def partition_count(d: int) -> int:
    """The partition function ``p(d)`` by the pentagonal-number recurrence.

    ``p(d) = sum_{j>=1} (-1)^(j+1) * [p(d - j(3j-1)/2) + p(d - j(3j+1)/2)]``

    with ``p(0) = 1`` and ``p(negative) = 0`` — the classical Euler
    recurrence the paper quotes in §6.  The memo is unbounded: it holds
    one int per ``d`` up to the largest asked for, since the recurrence
    fills every smaller one.

    >>> [partition_count(d) for d in (5, 7, 10, 15, 20)]
    [7, 15, 42, 176, 627]
    """
    if d < 0:
        return 0
    if d == 0:
        return 1
    total = 0
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2  # generalized pentagonal number
        g2 = j * (3 * j + 1) // 2
        if g1 > d and g2 > d:
            break
        sign = -1 if j % 2 == 0 else 1
        if g1 <= d:
            total += sign * partition_count(d - g1)
        if g2 <= d:
            total += sign * partition_count(d - g2)
        j += 1
    return total


def partition_count_asymptotic(d: int) -> float:
    """Hardy–Ramanujan asymptotic estimate of ``p(d)`` (paper §6).

    ``p(d) ~ exp(pi * sqrt(2d/3)) / (4 * d * sqrt(3))``.  Within ~15%
    of the exact value already at ``d = 20``... in the sense of the
    classical first-order term; the tests only assert the known
    asymptotic ratio behaviour, not tightness.
    """
    if d <= 0:
        raise ValueError(f"asymptotic estimate requires d > 0, got {d}")
    return math.exp(math.pi * math.sqrt(2.0 * d / 3.0)) / (4.0 * d * math.sqrt(3.0))


def partition_count_table(dims: Sequence[int] = (5, 10, 15, 20)) -> list[tuple[int, int]]:
    """The paper's §6 table of ``(d, p(d))`` pairs.

    Default dimensions match the published table: p(5)=7, p(10)=42,
    p(15)=176, p(20)=627.
    """
    return [(d, partition_count(d)) for d in dims]
