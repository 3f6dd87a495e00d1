"""Memo warm-up from a JSON-lines query log.

A production serving process should not pay cold-start grid calls for
traffic it has seen in a previous life.  ``repro serve --warm LOG``
(and :func:`warm_registry` directly) replays a query log — one JSON
request per line, exactly what clients send over the wire, so a capped
``tee`` of yesterday's traffic is already a valid log — through the
registry **before** the first connection: every distinct
``(preset, d, m)`` lands in the result memo in one coalesced
:func:`~repro.service.batch.resolve_queries` pass, and the first
client to ask again is served from the memo.

The parser is deliberately forgiving: op requests, malformed lines,
unknown presets, and invalid queries are counted and skipped — a log
is history, not input to validate against today's configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

from repro.service.batch import Query, check_query_values, resolve_queries
from repro.service.registry import OptimizerRegistry
from repro.service.server import extract_queries

__all__ = ["WarmupReport", "load_query_log", "warm_registry"]


@dataclass
class WarmupReport:
    """What one warm-up pass read and resolved."""

    #: non-blank lines examined
    lines: int = 0
    #: individual queries parsed out of query-request lines
    queries: int = 0
    #: distinct (preset, d, m) cells resolved into the memo
    unique: int = 0
    #: lines or queries dropped (ops, bad JSON, unknown presets, ...)
    skipped: int = 0

    def describe(self) -> str:
        return (
            f"warmed {self.unique} unique queries "
            f"({self.queries} seen on {self.lines} log lines, "
            f"{self.skipped} skipped)"
        )


def load_query_log(
    source: str | Path | IO[str] | Iterable[str],
    *,
    default_preset: str | None = None,
    known_presets: tuple[str, ...] | None = None,
) -> tuple[list[Query], WarmupReport]:
    """Parse a JSON-lines query log into deduplicated queries.

    ``source`` is a path or any iterable of lines.  Single-query,
    ``queries``-batch, and bare-array request forms all contribute;
    everything else is skipped and counted.  When ``known_presets`` is
    given, queries for other presets are skipped too (the registry that
    is about to be warmed cannot answer them).
    """
    if isinstance(source, (str, Path)):
        # stream — a production log can be far larger than memory; only
        # the deduplicated query list needs to persist
        with Path(source).open(encoding="utf-8") as handle:
            return _load_from_lines(handle, default_preset, known_presets)
    return _load_from_lines(source, default_preset, known_presets)


def _load_from_lines(
    lines: Iterable[str],
    default_preset: str | None,
    known_presets: tuple[str, ...] | None,
) -> tuple[list[Query], WarmupReport]:
    report = WarmupReport()
    queries: list[Query] = []
    seen: set[tuple[str, int, float]] = set()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        report.lines += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            report.skipped += 1
            continue
        try:
            # no size cap: the log is replayed in one offline pass, not
            # admitted through the per-request serving limit
            extracted = extract_queries(
                obj, default_preset=default_preset, max_queries=1 << 30
            )
        except (TypeError, ValueError, OverflowError):
            report.skipped += 1
            continue
        if extracted is None:  # an op request — nothing to warm
            report.skipped += 1
            continue
        # a malformed query drops its whole line above; a value out of
        # range, or a preset the registry lacks, drops only that query
        for cell in extracted[1]:
            report.queries += 1
            preset, d, m = cell
            try:
                check_query_values(d, m)
            except (TypeError, ValueError):
                report.skipped += 1
                continue
            if known_presets is not None and preset not in known_presets:
                report.skipped += 1
                continue
            if cell in seen:
                continue
            seen.add(cell)
            # drop the tag: warm-up results belong to no request
            queries.append(Query(preset, d, m))
    report.unique = len(queries)
    return queries, report


def warm_registry(
    registry: OptimizerRegistry,
    source: str | Path | IO[str] | Iterable[str],
    *,
    default_preset: str | None = None,
) -> WarmupReport:
    """Replay a query log through ``registry`` to seed its result memo.

    Returns the :class:`WarmupReport`; after it, every logged cell that
    still fits the memo bound answers with ``"source": "memo"``.
    """
    queries, report = load_query_log(
        source,
        default_preset=default_preset,
        known_presets=registry.preset_names,
    )
    if queries:
        resolve_queries(registry, queries)
    return report
