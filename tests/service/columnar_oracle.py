"""The object-per-query serving pipeline, kept as a test oracle.

Before answers travelled as cells and columns, a binary query frame was
validated column-wise with numpy, turned into one
:class:`~repro.service.batch.Query` per record in wire order, resolved
into one :class:`~repro.service.batch.QueryResult` each, and encoded
from numpy arrays built from those objects.  A JSON query line
was decoded into one ``Query`` per query (:func:`query_from_obj`),
checked with one :func:`~repro.service.batch.check_query_values` call
each, and answered with :func:`json.dumps` of one result dict per
query.  This module is those pipelines, verbatim in behaviour, for
``test_columnar_answers.py`` to hold the columnar path to: the same
bytes, the same registry counters and the same memo order.  Nothing
under ``src/`` imports it.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.core.partitions import cached_partitions
from repro.model.vectorized import grid_winners, multiphase_time_grid
from repro.service import wire
from repro.service.batch import (
    Answers,
    Query,
    QueryResult,
    as_query,
    check_query_values,
    resolve_queries,
)
from repro.service.wire import SOURCE_NAMES
from repro.util.validation import MAX_DIMENSION


def query_from_obj(obj: dict, default_preset: str | None) -> Query:
    if not isinstance(obj, dict):
        raise ValueError(f"query must be an object, got {type(obj).__name__}")
    unknown = set(obj) - {"preset", "d", "m", "id"}
    if unknown:
        raise ValueError(f"unknown query fields {sorted(unknown)}")
    try:
        d, m = obj["d"], obj["m"]
    except KeyError as missing:
        raise ValueError(f"query is missing required field {missing}") from None
    preset = obj.get("preset", default_preset)
    if preset is None:
        raise ValueError("query has no machine preset and the server has no default")
    if not isinstance(preset, str):
        raise ValueError(f"preset must be a string, got {preset!r}")
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d must be an integer, got {d!r}")
    if isinstance(m, bool) or not isinstance(m, (int, float)):
        raise ValueError(f"m must be a number, got {m!r}")
    return Query(preset=preset, d=d, m=float(m), tag=obj.get("id"))


def answer_docs(answers: Answers, queries: list[Query]) -> list[dict]:
    """The JSON-ready result document of each query, in order, from the
    resolver's answer columns; ``id`` echoes the query's tag."""
    docs = []
    for (preset, d, m), time_us, code, packed, query in zip(
        answers.cells, answers.time_us, answers.source, answers.parts, queries
    ):
        doc = {"ok": True, "preset": preset, "d": d, "m": m, "partition": list(packed),
               "time_us": time_us, "source": SOURCE_NAMES[code]}
        if query.tag is not None:
            doc["id"] = query.tag
        docs.append(doc)
    return docs


def extract_queries(
    obj: Any,
    *,
    default_preset: str | None = None,
    max_queries: int = 4096,
) -> tuple[str, list[Query]] | None:
    """Classify a decoded request as a query request."""
    if isinstance(obj, dict) and "op" in obj:
        return None
    if isinstance(obj, list) or (isinstance(obj, dict) and "queries" in obj):
        items = obj if isinstance(obj, list) else obj["queries"]
        if not isinstance(items, list):
            raise ValueError("'queries' must be an array")
        if len(items) > max_queries:
            raise ValueError(
                f"batch of {len(items)} queries exceeds the per-request "
                f"limit of {max_queries}"
            )
        return "batch", [query_from_obj(item, default_preset) for item in items]
    if isinstance(obj, dict):
        return "single", [query_from_obj(obj, default_preset)]
    raise ValueError(f"request must be an object or array, got {type(obj).__name__}")


def error_response(exc: BaseException, request_id: Any = None) -> dict:
    response: dict = {"ok": False, "error": str(exc)}
    if request_id is not None:
        response["id"] = request_id
    return response


def handle_request(obj, registry, *, default_preset=None, max_queries=4096) -> dict:
    """The stdio loop's answer to one decoded query request (ops are
    not modelled): every range check runs before any preset check."""
    request_id = obj.get("id") if isinstance(obj, dict) else None
    try:
        kind, queries = extract_queries(
            obj, default_preset=default_preset, max_queries=max_queries
        )
        queries = [as_query(q) for q in queries]
        cells = [(q.preset, q.d, q.m) for q in queries]
        answers = resolve_queries(registry, cells, pre_normalized=True)
        return build_response(kind, answer_docs(answers, queries), request_id)
    except (TypeError, ValueError, OverflowError) as exc:
        return error_response(exc, request_id)


def serve(registry, lines, *, default_preset=None, max_queries=4096) -> bytes:
    """What the stdio loop wrote for request ``lines``."""
    out = []
    for line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            response = {"ok": False, "error": f"invalid JSON: {exc}"}
        else:
            response = handle_request(
                obj, registry, default_preset=default_preset, max_queries=max_queries
            )
        out.append(json.dumps(response) + "\n")
    return "".join(out).encode()


def queries_from_arrays(catalog, records) -> list[Query]:
    """One :class:`Query` per record, in record order, validated
    column-wise; an error names the first offender in sorted record
    order."""
    ordered = np.sort(records)
    presets = ordered["preset"]
    dims = ordered["d"]
    sizes = ordered["m"]
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
    return [Query(preset=catalog[p], d=d, m=m) for p, d, m in records.tolist()]


def resolve(registry, normalized: list[Query]) -> list[QueryResult]:
    """One :class:`QueryResult` per query; memo values are
    ``(partition, time_us)``, so give the oracle its own registry."""
    for query in normalized:
        registry.params(query.preset)
    results: list[QueryResult | None] = [None] * len(normalized)
    stats = registry.stats
    pending: dict[tuple[str, int], dict[float, list[int]]] = {}

    for i, query in enumerate(normalized):
        stats.queries += 1
        [hit] = registry.memo_get_many([(query.preset, query.d, query.m)])
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
        envelope = registry.envelope(preset, d)

        def finish(m, partition, time_us, source):
            registry.memo_put_many([((preset, d, m), (partition, time_us))])
            waiting = by_m[m]
            stats.coalesced += len(waiting) - 1
            for i in waiting:
                results[i] = QueryResult(
                    preset, d, m, partition, time_us, source, normalized[i].tag
                )

        certified: dict[tuple[int, ...], list[float]] = {}
        scored: list[float] = []
        for m in sorted(by_m):
            at = envelope.index(m)
            if at >= 0:
                certified.setdefault(envelope.winners[at], []).append(m)
            else:
                scored.append(m)
        answers = {}
        for partition, ms in certified.items():
            grid = multiphase_time_grid(ms, d, [partition], params)
            stats.grid_calls += 1
            stats.grid_cells += grid.size
            for col, m in enumerate(ms):
                answers[m] = (partition, float(grid[0, col]), "grid")
        if scored:
            pool = cached_partitions(d)
            grid = multiphase_time_grid(scored, d, pool, params)
            stats.grid_calls += 1
            stats.grid_cells += grid.size
            winners = grid_winners(grid, pool)
            rows = {partition: row for row, partition in enumerate(pool)}
            for col, m in enumerate(scored):
                answers[m] = (winners[col], float(grid[rows[winners[col]], col]), "pool")
        for m in sorted(by_m):
            finish(m, *answers[m])
    return results  # type: ignore[return-value]


def encode_results(results) -> bytes:
    """The ``OP_RESULT`` payload, packed from numpy arrays."""
    n = len(results)
    times = np.fromiter((r.time_us for r in results), dtype="<f8", count=n)
    sources = np.fromiter(
        (wire.SOURCE_CODES[r.source] for r in results), dtype=np.uint8, count=n
    )
    nparts = np.fromiter((len(r.partition) for r in results), dtype=np.uint8, count=n)
    total = int(nparts.sum())
    parts = np.fromiter(
        (part for r in results for part in r.partition), dtype=np.uint8, count=total
    )
    return b"".join((
        wire._RESULT_COUNT.pack(len(times)),
        times.tobytes(),
        sources.tobytes(),
        nparts.tobytes(),
        parts.tobytes(),
    ))


def result_to_dict(result: QueryResult) -> dict:
    """The JSON document for one result."""
    doc = {
        "ok": True,
        "preset": result.preset,
        "d": result.d,
        "m": result.m,
        "partition": list(result.partition),
        "time_us": result.time_us,
        "source": result.source,
    }
    if result.tag is not None:
        doc["id"] = result.tag
    return doc


def build_response(kind: str, docs: list[dict], request_id=None) -> dict:
    """The JSON response for one query request."""
    if kind == "single":
        return docs[0]
    response: dict = {"ok": True, "results": docs}
    if request_id is not None:
        response["id"] = request_id
    return response


def flush(registry, catalog, requests, *, default_preset, max_queries) -> list[bytes]:
    """What the socket server wrote for one micro-batch flush.

    ``requests`` are ``("binary", OP_QUERY payload)`` or ``("json",
    request line)`` in admission order; every admitted query of the
    flush is resolved in one call, in that order.  Returns each
    request's answer: a whole frame, or a JSON line.
    """
    out: list[bytes | None] = [None] * len(requests)
    pending = []
    for index, (transport, data) in enumerate(requests):
        if transport == "binary":
            try:
                records = wire.decode_query_payload(data)
            except wire.WireError as exc:
                out[index] = wire.error_frame(str(exc))
                continue
            if len(records) > max_queries:
                out[index] = wire.error_frame(
                    f"batch of {len(records)} queries exceeds the per-request "
                    f"limit of {max_queries}"
                )
                continue
            try:
                queries = queries_from_arrays(catalog, records)
            except (TypeError, ValueError, OverflowError) as exc:
                out[index] = wire.error_frame(str(exc))
                continue
            pending.append((index, transport, queries, None))
            continue
        obj = json.loads(data)
        request_id = obj.get("id") if isinstance(obj, dict) else None
        try:
            kind, queries = extract_queries(
                obj, default_preset=default_preset, max_queries=max_queries
            )
            for query in queries:
                check_query_values(query.d, query.m)
                registry.params(query.preset)
        except (TypeError, ValueError, OverflowError) as exc:
            out[index] = json.dumps(error_response(exc, request_id)).encode() + b"\n"
            continue
        pending.append((index, transport, queries, (kind, request_id)))
    results = resolve(registry, [q for _, _, queries, _ in pending for q in queries])
    offset = 0
    for index, transport, queries, extra in pending:
        chunk = results[offset:offset + len(queries)]
        offset += len(queries)
        if transport == "binary":
            out[index] = wire.pack_frame(wire.OP_RESULT, encode_results(chunk))
        else:
            doc = build_response(extra[0], [result_to_dict(r) for r in chunk], extra[1])
            out[index] = json.dumps(doc).encode() + b"\n"
    return out  # type: ignore[return-value]
