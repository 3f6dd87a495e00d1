"""Batched query resolution over an optimizer registry.

A :class:`QueryBatch` collects heterogeneous ``(preset, d, m)``
lookups and answers them all in one pass:

1. every query checks the registry's result memo first;
2. the misses are grouped by ``(preset, d)`` and deduplicated by block
   size, so repeats inside one batch cost one cell;
3. each group does its partition lookups against the preset's stored
   :class:`~repro.model.optimizer.OptimizerTable` (a bisect, no model
   evaluation) and prices them with one
   :func:`~repro.model.vectorized.multiphase_time_grid` call per
   winning partition — exactly the needed cells, no cross product;
4. block sizes beyond the table's recorded sweep bound — where the
   table's last segment would be an unverified extrapolation — are
   scored exactly over the full candidate pool in one grid call,
   matching :func:`~repro.model.optimizer.best_partition` bit for bit.

The grid kernel is bitwise-identical to the scalar model, so each
result's ``time_us`` equals ``multiphase_time(m, d, partition,
params)`` to the last bit; within the sweep bound the partition is the
stored table's answer, whose switch points are located to ~1e-3 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.core.partitions import cached_partitions
from repro.model.vectorized import grid_winners, multiphase_time_grid
from repro.util.validation import MAX_DIMENSION, check_block_size, check_dimension

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.registry import OptimizerRegistry

__all__ = [
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
    #: ``"memo"`` (repeat query), ``"grid"`` (table + grid call), or
    #: ``"pool"`` (beyond the table's sweep bound: exact full-pool scoring)
    source: str
    tag: Any = None


def check_query_values(d: int, m: float) -> None:
    """The admission checks every transport shares: one place to add a
    rule so the stdio loop and the socket server cannot drift apart."""
    check_dimension(d, minimum=1)
    check_block_size(m)


def queries_from_arrays(
    catalog: Sequence[str], records: np.ndarray
) -> list[Query]:
    """Normalized :class:`Query` objects for packed wire records.

    ``records`` is an array of ``(preset, d, m)`` records (the binary
    transport's :data:`repro.service.wire.QUERY_DTYPE`); ``catalog``
    maps its integer preset indices to preset names.  Validation is the
    same gate :func:`check_query_values` applies per query — dimension
    in range, block size finite and non-negative — but evaluated over
    whole columns in numpy, so the admission cost of a frame is
    proportional to one pass, not one Python call per query.  The
    returned queries are ``pre_normalized``-grade for
    :func:`resolve_queries`.
    """
    presets = records["preset"]
    dims = records["d"]
    sizes = records["m"]
    if presets.size and int(presets.max()) >= len(catalog):
        bad = int(presets[presets >= len(catalog)][0])
        raise ValueError(
            f"preset index {bad} out of range for a catalog of {len(catalog)}"
        )
    if dims.size:
        lo, hi = int(dims.min()), int(dims.max())
        if lo < 1:
            raise ValueError(f"cube dimension must be >= 1, got {lo}")
        if hi > MAX_DIMENSION:
            raise ValueError(
                f"cube dimension {hi} exceeds the supported maximum "
                f"{MAX_DIMENSION} ({2 ** MAX_DIMENSION} nodes); did you "
                f"pass the node count instead?"
            )
    if sizes.size and not bool(np.isfinite(sizes).all()):
        bad_m = float(sizes[~np.isfinite(sizes)][0])
        raise ValueError(f"block size must be finite, got {bad_m}")
    if sizes.size and bool((sizes < 0).any()):
        raise ValueError(
            f"block size must be >= 0, got {float(sizes[sizes < 0][0])}"
        )
    names = [catalog[int(p)] for p in presets.tolist()]
    return [
        Query(preset=name, d=d, m=m)
        for name, d, m in zip(names, dims.tolist(), sizes.tolist())
    ]


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


def resolve_queries(
    registry: "OptimizerRegistry",
    queries: Iterable[Query | tuple],
    *,
    pre_normalized: bool = False,
) -> list[QueryResult]:
    """Answer every query, coalescing misses into grid-kernel calls.

    Accepts :class:`Query` objects or bare ``(preset, d, m)`` tuples;
    results come back in input order.  ``pre_normalized=True`` skips
    re-validation for callers (like the socket transport's admission
    path) whose queries already passed :func:`as_query`-grade checks —
    on a hot serving path the redundant :class:`Query` reconstruction
    is measurable.
    """
    if pre_normalized:
        return _resolve_normalized(registry, list(queries))
    return _resolve_normalized(registry, [as_query(q) for q in queries])


def _resolve_normalized(
    registry: "OptimizerRegistry", normalized: list[Query]
) -> list[QueryResult]:
    for query in normalized:
        registry.params(query.preset)  # reject unknown presets before any
        # stats/memo mutation, so a failed batch leaves no partial state
    results: list[QueryResult | None] = [None] * len(normalized)
    stats = registry.stats
    #: (preset, d) -> m -> indices awaiting that cell
    pending: dict[tuple[str, int], dict[float, list[int]]] = {}

    for i, query in enumerate(normalized):
        stats.queries += 1
        hit = registry.memo_get((query.preset, query.d, query.m))
        if hit is not None:
            partition, time_us = hit
            stats.memo_hits += 1
            results[i] = QueryResult(
                query.preset, query.d, query.m, partition, time_us, "memo", query.tag
            )
        else:
            stats.memo_misses += 1
            group = pending.setdefault((query.preset, query.d), {})
            group.setdefault(query.m, []).append(i)

    for (preset, d), by_m in pending.items():
        params = registry.params(preset)
        bound = registry.coverage(preset, d)

        def finish(
            m: float, partition: tuple[int, ...], time_us: float, source: str
        ) -> None:
            registry.memo_put((preset, d, m), (partition, time_us))
            waiting = by_m[m]
            stats.coalesced += len(waiting) - 1
            for i in waiting:
                results[i] = QueryResult(
                    preset, d, m, partition, time_us, source, normalized[i].tag
                )

        covered: list[float] = []
        beyond: list[float] = []
        for m in sorted(by_m):
            (covered if m <= bound else beyond).append(m)

        # block sizes the table's sweep covers: partition from the
        # stored table (a bisect), price per winning partition so only
        # the needed cells are evaluated; the table itself is fetched
        # only here so an all-beyond group never loads (or sweeps) it
        if covered:
            table = registry.table(preset, d)
            groups: dict[tuple[int, ...], list[float]] = {}
            for m in covered:
                groups.setdefault(table.lookup(m), []).append(m)
            for partition, ms in groups.items():
                grid = multiphase_time_grid(ms, d, [partition], params)
                stats.grid_calls += 1
                stats.grid_cells += grid.size
                for col, m in enumerate(ms):
                    finish(m, partition, float(grid[0, col]), "grid")

        # beyond the sweep bound the table's last segment is just an
        # extrapolation, so score the full candidate pool exactly
        if beyond:
            pool = cached_partitions(d)
            grid = multiphase_time_grid(beyond, d, pool, params)
            stats.grid_calls += 1
            stats.grid_cells += grid.size
            winners = grid_winners(grid, pool)
            rows = {partition: row for row, partition in enumerate(pool)}
            for col, m in enumerate(beyond):
                finish(m, winners[col], float(grid[rows[winners[col]], col]), "pool")
    return results  # type: ignore[return-value]


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
        return _resolve_normalized(self._registry, queries)
