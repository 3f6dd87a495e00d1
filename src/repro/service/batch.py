"""Batched query resolution over an optimizer registry.

One key-based core answers ``(preset, d, m)`` cell keys in
:class:`Answers` columns, which the binary wire encodes as they are;
:class:`QueryResult` objects are built from them for callers that want
objects.  In one core call:

1. every key checks the registry's result memo first;
2. the misses are grouped by ``(preset, d)`` and deduplicated by block
   size, so repeats inside one call cost one cell;
3. each group does its partition lookups against the preset's stored
   :class:`~repro.model.optimizer.OptimizerTable` (a bisect, no model
   evaluation) and queues one kernel row per cell at its partition —
   exactly the needed cells, no cross product;
4. block sizes beyond the table's recorded sweep bound — where the
   table's last segment would be an unverified extrapolation — queue
   one row per partition of the full candidate pool, and the winner of
   each is the first minimal row in ascending partition order,
   matching :func:`~repro.model.optimizer.best_partition` bit for bit;
5. every queued row of a preset, from every group of the call, is
   priced by one :func:`~repro.model.vectorized.price_rows` call, and
   the answers are memoized group by group in the order above.

The row kernel is bitwise-identical to the scalar model, so each
result's ``time_us`` equals ``multiphase_time(m, d, partition,
params)`` to the last bit; within the sweep bound the partition is the
stored table's answer, whose switch points are located to ~1e-3 bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import (
    TYPE_CHECKING, Any, Iterable, Iterator, Literal, NoReturn, Sequence, overload,
)

import numpy as np

from repro.model.vectorized import partition_row, pool_rows, price_rows
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
    #: ``"memo"`` (repeat query), ``"grid"`` (table partition, priced), or
    #: ``"pool"`` (beyond the table's sweep bound: exact full-pool scoring)
    source: str
    tag: Any = None


#: one lookup's key, and the unit the core resolves: ``(preset, d, m)``
Cell = tuple[str, int, float]
#: packed partitions: one bytes object per partition, shared by memo entries
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


def queries_from_arrays(
    catalog: Sequence[str], records: np.ndarray
) -> tuple[list[Cell], list[int]]:
    """The distinct cells of packed wire records, and the inverse.

    ``records`` is an array of ``(preset, d, m)`` records (the binary
    transport's :data:`repro.service.wire.QUERY_DTYPE`); ``catalog``
    maps its integer preset indices to preset names.  One dict pass over
    ``records.tolist()`` deduplicates them; the cells come back in sorted
    ``(preset, d, m)`` order, ``inverse[i]`` indexing record ``i``'s
    cell.  Each distinct cell passes the :func:`check_query_values`
    gate, so the cells are ``pre_normalized`` for :func:`resolve_queries`.
    """
    rows = records.tolist()
    distinct = dict.fromkeys(rows)
    for preset, d, m in distinct:
        if not (preset < len(catalog) and 1 <= d <= MAX_DIMENSION and 0.0 <= m < math.inf):
            _reject_records(catalog, list(distinct))
    order = sorted(distinct)
    index = {cell: i for i, cell in enumerate(order)}
    return [(catalog[p], d, m) for p, d, m in order], [index[row] for row in rows]


def _reject_records(catalog: Sequence[str], cells: Sequence[tuple]) -> NoReturn:
    """Raise for the first failed check over a frame's distinct cells:
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


class _Group:
    """The memo misses of one ``(preset, d)`` group as kernel rows: a
    row per covered cell, at its table partition, then, pool-major,
    every partition of ``d``'s pool (ascending) at every block size
    beyond the table's sweep bound."""

    def __init__(
        self, preset: str, d: int, by_m: dict[float, list[int]],
        covered: dict[tuple[int, ...], list[float]], beyond: list[float],
    ) -> None:
        self.preset, self.d, self.by_m = preset, d, by_m
        self.covered, self.beyond = covered, beyond
        self.pool, self.pool_rows = pool_rows(d) if beyond else ((), None)
        self.times = np.zeros(0)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The group's ``(rows, ms)`` kernel input."""
        rows: list[int] = []
        ms: list[float] = []
        for partition, block in self.covered.items():
            rows += [partition_row(self.d, partition)] * len(block)
            ms += block
        if self.beyond:
            rows.extend(np.repeat(self.pool_rows, len(self.beyond)).tolist())
            ms.extend(self.beyond * len(self.pool))
        return np.array(rows, dtype=np.intp), np.array(ms)

    def answers(self) -> Iterator[tuple[float, bytes, float, int]]:
        """``(m, packed partition, time_us, source code)`` per cell, from
        the priced ``times``: covered cells partition by partition, then
        each beyond-bound cell's pool winner (the first minimal row, so
        the smallest tuple among the tied)."""
        offset = 0
        for partition, ms in self.covered.items():
            packed = _packed(partition)
            for m, time_us in zip(ms, self.times[offset:offset + len(ms)].tolist()):
                yield m, packed, time_us, _GRID
            offset += len(ms)
        if self.beyond:
            grid = self.times[offset:].reshape(len(self.pool), len(self.beyond))
            best = grid.argmin(axis=0)
            best_us = grid[best, np.arange(len(self.beyond))].tolist()
            for m, row, time_us in zip(self.beyond, best.tolist(), best_us):
                yield m, _packed(self.pool[row]), time_us, _POOL


def _resolve_normalized(registry: "OptimizerRegistry", keys: list[Cell]) -> Answers:
    for preset in dict.fromkeys(key[0] for key in keys):
        registry.params(preset)  # reject unknown presets before any
        # stats/memo mutation, so a failed batch leaves no partial state
    n = len(keys)
    cells, times, source, parts = list(keys), [0.0] * n, bytearray(n), [b""] * n
    stats = registry.stats
    memo_get = registry.memo_get
    #: (preset, d) -> m -> indices awaiting that cell
    pending: dict[tuple[str, int], dict[float, list[int]]] = {}
    misses = 0
    for i, key in enumerate(keys):
        hit = memo_get(key)
        if hit is not None:
            parts[i], times[i] = hit  # source stays 0, SOURCE_NAMES[0] == "memo"
        else:
            misses += 1
            pending.setdefault(key[:2], {}).setdefault(key[2], []).append(i)
    stats.queries += n
    stats.memo_hits += n - misses
    stats.memo_misses += misses

    groups: list[_Group] = []
    for (preset, d), by_m in pending.items():
        bound = registry.coverage(preset, d)
        inside: list[float] = []
        beyond: list[float] = []
        for m in sorted(by_m):
            (inside if m <= bound else beyond).append(m)

        # block sizes the table's sweep covers take their partition from
        # the stored table (a bisect); the table is fetched only here, so
        # an all-beyond group never loads (or sweeps) it.  Beyond the
        # bound the table's last segment is just an extrapolation, so
        # the full pool is scored exactly
        covered: dict[tuple[int, ...], list[float]] = {}
        if inside:
            table = registry.table(preset, d)
            for m in inside:
                covered.setdefault(table.lookup(m), []).append(m)
        group = _Group(preset, d, by_m, covered, beyond)
        stats.grid_calls += len(covered) + bool(beyond)
        stats.grid_cells += len(inside) + len(group.pool) * len(beyond)
        groups.append(group)

    # one kernel call per preset prices every group's rows
    by_preset: dict[str, list[_Group]] = {}
    for group in groups:
        by_preset.setdefault(group.preset, []).append(group)
    for preset, members in by_preset.items():
        rows, ms = zip(*(group.rows() for group in members))
        priced = price_rows(np.concatenate(rows), np.concatenate(ms), registry.params(preset))
        offsets = np.cumsum([len(r) for r in rows])[:-1]
        for group, times_us in zip(members, np.split(priced, offsets)):
            group.times = times_us

    # answer (and memoize) group by group, in the order of the misses
    memo_put = registry.memo_put
    for group in groups:
        preset, d, by_m = group.preset, group.d, group.by_m
        for m, packed, time_us, code in group.answers():
            cell = (preset, d, m)
            memo_put(cell, (packed, time_us))
            waiting = by_m[m]
            stats.coalesced += len(waiting) - 1
            for i in waiting:
                cells[i], times[i], source[i], parts[i] = cell, time_us, code, packed
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
