"""Batched query resolution over an optimizer registry.

One key-based core answers ``(preset, d, m)`` cell keys in
:class:`Answers` columns, which the binary wire encodes as they are;
:class:`QueryResult` objects are built from them for callers that want
objects.  In one core call:

1. every key checks the registry's result memo first;
2. the misses are grouped by ``(preset, d)`` and deduplicated by block
   size, so repeats inside one call cost one cell;
3. each group looks up the preset's certified pool envelope
   (:func:`~repro.model.optimizer.pool_envelope`, built once per
   ``(preset, d)``): a block size inside a certified interval has a
   known winner and queues one kernel row at it — exactly the needed
   cell, no cross product.  Any other (near a switch point, at a tie,
   or where an intermediate could underflow or overflow) queues one
   row per partition of the full pool, and its winner is the first
   minimal row in ascending partition order;
4. every queued row of a preset, from every group of the call, is
   priced by one :func:`~repro.model.vectorized.price_rows` call, and
   the answers are memoized in one batch insert, group by group,
   ascending by block size.

The row kernel is bitwise-identical to the scalar model, so each
result's ``time_us`` equals ``multiphase_time(m, d, partition,
params)`` to the last bit, and each partition is
:func:`~repro.model.optimizer.best_partition`'s, for every block size.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import (
    TYPE_CHECKING, Any, Iterable, Literal, NoReturn, Sequence, cast, overload,
)

import numpy as np

from repro.model.vectorized import pool_rows, price_rows
from repro.service.wire import SOURCE_CODES, SOURCE_NAMES
from repro.util.validation import MAX_DIMENSION, check_block_size, check_dimension

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.registry import OptimizerRegistry

__all__ = [
    "Answers",
    "Query",
    "QueryBatch",
    "QueryResult",
    "as_query",
    "check_query_values",
    "queries_from_arrays",
    "resolve_queries",
]


@dataclass(frozen=True)
class Query:
    """One optimal-partition lookup."""

    preset: str
    d: int
    m: float
    #: opaque caller payload echoed on the result (e.g. a request id)
    tag: Any = None


@dataclass(frozen=True)
class QueryResult:
    """The served answer for one :class:`Query`."""

    preset: str
    d: int
    m: float
    partition: tuple[int, ...]
    time_us: float
    #: ``"memo"`` (repeat query), ``"grid"`` (the certified envelope's
    #: winner, priced alone), or ``"pool"`` (exact full-pool scoring)
    source: str
    tag: Any = None


#: one lookup's key, and the unit the core resolves: ``(preset, d, m)``
Cell = tuple[str, int, float]
#: packed partitions: one bytes object per partition, shared by memo
#: entries.  Unbounded over a finite key space: the winners of the
#: canonical pools, so at most p(d) entries per d up to MAX_DIMENSION
_packed = cache(bytes)
_GRID, _POOL = SOURCE_CODES["grid"], SOURCE_CODES["pool"]


@dataclass(slots=True)
class Answers:
    """One answer per key, as columns: ``source`` holds ``SOURCE_NAMES``
    indices, ``parts`` partitions packed a byte per part, ``cells`` the
    cell that answered (for a coalesced miss the group's key, equal up
    to the sign of a zero ``m``)."""

    cells: list[Cell]
    time_us: list[float]
    source: bytearray
    parts: list[bytes]

    def slice(self, start: int, stop: int) -> "Answers":
        return Answers(self.cells[start:stop], self.time_us[start:stop],
                       self.source[start:stop], self.parts[start:stop])

    def results(self, tags: Iterable[Any]) -> list[QueryResult]:
        """One :class:`QueryResult` per entry, echoing ``tags``."""
        rows = zip(self.cells, self.time_us, self.source, self.parts, tags)
        return [QueryResult(p, d, m, tuple(packed), t, SOURCE_NAMES[code], tag)
                for (p, d, m), t, code, packed, tag in rows]


def check_query_values(d: int, m: float) -> None:
    """The admission checks every transport shares: one place to add a
    rule so the stdio loop and the socket server cannot drift apart."""
    check_dimension(d, minimum=1)
    check_block_size(m)


def queries_from_arrays(catalog: Sequence[str], records: np.ndarray) -> list[Cell]:
    """One cell per packed wire record, in record order.

    ``records`` is an array of ``(preset, d, m)`` records (the binary
    transport's :data:`repro.service.wire.QUERY_DTYPE`); ``catalog``
    maps its integer preset indices to preset names.  Repeats stay: a
    frame's cells enter the micro-batch as sent, like a JSON line's,
    and the resolver coalesces repeated misses within its flush.  Each
    record passes the :func:`check_query_values` gate, so the cells are
    ``pre_normalized`` for :func:`resolve_queries`.
    """
    rows = records.tolist()
    for preset, d, m in rows:
        if not (preset < len(catalog) and 1 <= d <= MAX_DIMENSION and 0.0 <= m < math.inf):
            _reject_records(catalog, rows)
    return [(catalog[p], d, m) for p, d, m in rows]


def _reject_records(catalog: Sequence[str], cells: Sequence[tuple]) -> NoReturn:
    """Raise for the first failed check over a frame's records:
    presets, then dimensions, then block sizes, each naming the first
    offender in sorted ``(preset, d, m)`` order (NaN after ``inf``)."""
    bad = [preset for preset, _, _ in cells if preset >= len(catalog)]
    if bad:
        raise ValueError(f"preset index {min(bad)} out of range for a catalog of {len(catalog)}")
    lo, hi = min(d for _, d, _ in cells), max(d for _, d, _ in cells)
    check_dimension(lo if lo < 1 else hi, minimum=1)
    rank = {-math.inf: 0, math.inf: 1}
    nonfinite = [(p, d, rank.get(m, 2), m) for p, d, m in cells if not math.isfinite(m)]
    if nonfinite:
        raise ValueError(f"block size must be finite, got {min(nonfinite)[3]}")
    raise ValueError(f"block size must be >= 0, got {min(c for c in cells if c[2] < 0)[2]}")


def as_query(item: "Query | tuple[str | None, int, float]") -> Query:
    """Normalize and validate one lookup (a :class:`Query` or a bare
    ``(preset, d, m)`` tuple) — the shared admission check for every
    resolution path, including the socket transports."""
    if isinstance(item, Query):
        query = item
    else:
        preset, d, m = item
        query = Query(preset=preset, d=d, m=m)
    check_query_values(query.d, query.m)
    return Query(query.preset, int(query.d), float(query.m), query.tag)


@overload
def resolve_queries(
    registry: "OptimizerRegistry", queries: Iterable[Query | tuple],
    *, pre_normalized: Literal[False] = False,
) -> list[QueryResult]: ...
@overload
def resolve_queries(
    registry: "OptimizerRegistry", queries: list[Cell], *, pre_normalized: Literal[True]
) -> Answers: ...
def resolve_queries(registry, queries, *, pre_normalized=False):
    """Answer every query, coalescing misses into one row-kernel call
    per preset.

    Accepts :class:`Query` objects or bare ``(preset, d, m)`` tuples;
    results come back in input order.  ``pre_normalized=True`` is the
    serving path's call: ``queries`` are :data:`Cell` keys that already
    passed admission, nothing is re-validated, and the answer is the
    core's :class:`Answers` columns, with no object built per query.
    """
    if pre_normalized:
        return _resolve_normalized(registry, queries)
    return _results(registry, [as_query(q) for q in queries])


def _results(registry: "OptimizerRegistry", queries: list[Query]) -> list[QueryResult]:
    keys = [(q.preset, q.d, q.m) for q in queries]
    return _resolve_normalized(registry, keys).results(q.tag for q in queries)


def _resolve_normalized(registry: "OptimizerRegistry", keys: list[Cell]) -> Answers:
    for preset in dict.fromkeys(map(itemgetter(0), keys)):
        registry.params(preset)  # reject unknown presets before any
        # stats/memo mutation, so a failed batch leaves no partial state
    n = len(keys)
    cells, source = list(keys), bytearray(n)  # source 0: SOURCE_NAMES[0] == "memo"
    hits = registry.memo_get_many(keys)
    stats = registry.stats
    stats.queries += n
    if None not in hits:
        stats.memo_hits += n
        entries = cast("list[tuple[bytes, float]]", hits)
        return Answers(cells, [entry[1] for entry in entries], source,
                       [entry[0] for entry in entries])
    times, parts = [0.0] * n, [b""] * n
    misses: list[int] = []
    #: (preset, d) -> block sizes of its misses, repeats included
    pending: defaultdict[tuple[str, int], list[float]] = defaultdict(list)
    for i, hit in enumerate(hits):
        if hit is None:
            misses.append(i)
            key = keys[i]
            pending[key[:2]].append(key[2])
        else:
            parts[i], times[i] = hit
    stats.memo_hits += n - len(misses)
    stats.memo_misses += len(misses)

    # each distinct miss gets a slot in its preset's columns (kernel
    # row, block size, packed partition, source), a group's slots
    # contiguous and ascending.  A pool-scored slot holds a placeholder
    # row and partition until its pool is priced
    slots: dict[str, tuple[list[int], list[float], list[bytes], bytearray]] = {}
    #: per preset: (d, slots, block sizes) of each group's scored pool
    pools: dict[str, list[tuple[int, list[int], list[float]]]] = {}
    #: (preset, d, first slot, end slot)
    groups: list[tuple[str, int, int, int]] = []
    for (preset, d), sizes in pending.items():
        if preset not in slots:
            slots[preset], pools[preset] = ([], [], [], bytearray()), []
        rows, ms, packs, codes = slots[preset]
        first = len(ms)
        # a block size the certified envelope covers is priced at its
        # winner alone; any other (near a switch point, at a tie, or
        # where an intermediate could underflow or overflow) scores the
        # full pool.  A set keeps the first of equal keys: a repeated
        # -0.0 / 0.0 cell answers as the one asked first
        envelope = registry.envelope(preset, d)
        winners: set[int] = set()
        scored: list[int] = []
        for m in sorted(set(sizes)):
            at = envelope.index(m)
            if at >= 0:
                winners.add(at)
                rows.append(envelope.rows[at])
                packs.append(_packed(envelope.winners[at]))
                codes.append(_GRID)
            else:
                scored.append(len(ms))
                rows.append(0)
                packs.append(b"")
                codes.append(_POOL)
            ms.append(m)
        if scored:
            pools[preset].append((d, scored, [ms[j] for j in scored]))
        certified = len(ms) - first - len(scored)
        stats.grid_calls += len(winners) + bool(scored)
        stats.grid_cells += certified + len(pool_rows(d)[0]) * len(scored)
        groups.append((preset, d, first, len(ms)))

    # one kernel call per preset prices every row of every group: the
    # slots, then each scored pool, pool-major
    priced: dict[str, list[float]] = {}
    for preset, (rows, ms, packs, _) in slots.items():
        row_in, m_in = [np.array(rows, dtype=np.intp)], [np.array(ms)]
        for d, _, block in pools[preset]:
            pool_row = pool_rows(d)[1]
            row_in.append(np.repeat(pool_row, len(block)))
            m_in.append(np.tile(block, len(pool_row)))
        times_us = price_rows(np.concatenate(row_in), np.concatenate(m_in),
                              registry.params(preset))
        answer = priced[preset] = times_us[:len(ms)].tolist()
        offset = len(ms)
        for d, scored, block in pools[preset]:
            # the winner is the first minimal row: the smallest tuple
            # among the tied, as best_partition ranks them
            pool = pool_rows(d)[0]
            grid = times_us[offset:offset + len(pool) * len(block)].reshape(len(pool), -1)
            offset += grid.size
            best = grid.argmin(axis=0)
            best_us = grid[best, np.arange(len(block))].tolist()
            for j, row, time_us in zip(scored, best.tolist(), best_us):
                answer[j], packs[j] = time_us, _packed(pool[row])

    # memoize group by group, in the order of the misses, and answer
    # every miss from its cell
    memo: list[tuple[Cell, tuple[bytes, float]]] = []
    answer_of: dict[Cell, tuple[Cell, tuple[bytes, float], int]] = {}
    for preset, d, first, end in groups:
        _, ms, packs, codes = slots[preset]
        answer = priced[preset]
        for j in range(first, end):
            cell, value = (preset, d, ms[j]), (packs[j], answer[j])
            memo.append((cell, value))
            answer_of[cell] = (cell, value, codes[j])
    for i in misses:
        cells[i], (parts[i], times[i]), source[i] = answer_of[keys[i]]
    stats.coalesced += len(misses) - len(memo)
    registry.memo_put_many(memo)
    return Answers(cells, times, source, parts)


class QueryBatch:
    """Accumulate lookups, then :meth:`resolve` them in one pass.

    >>> from repro.service.registry import OptimizerRegistry
    >>> batch = QueryBatch(OptimizerRegistry())
    >>> _ = batch.add("ipsc860", 7, 40.0)
    >>> _ = batch.add("ipsc860", 5, 40.0)
    >>> [r.partition for r in batch.resolve()]
    [(4, 3), (3, 2)]
    """

    def __init__(self, registry: "OptimizerRegistry") -> None:
        self._registry = registry
        self._queries: list[Query] = []

    def add(self, preset: str, d: int, m: float, *, tag: Any = None) -> int:
        """Queue one lookup; returns its index in the result list."""
        self._queries.append(as_query(Query(preset, d, m, tag)))
        return len(self._queries) - 1

    def extend(self, queries: Iterable[Query | tuple]) -> None:
        """Queue many lookups (``Query`` objects or bare tuples)."""
        normalized = [as_query(q) for q in queries]
        # validate everything first so a bad item leaves the batch
        # unchanged instead of half-queued
        self._queries.extend(normalized)

    def __len__(self) -> int:
        return len(self._queries)

    def resolve(self) -> list[QueryResult]:
        """Answer every queued query (and clear the batch)."""
        queries, self._queries = self._queries, []
        # add()/extend() already normalized and validated each query
        return _results(self._registry, queries)
