"""JSON-lines request loop for the optimizer query service.

One request per line on the input stream, one JSON response per line
on the output stream — the transport behind ``repro serve``.  The
protocol is deliberately tiny:

* ``{"d": 7, "m": 40, "preset": "ipsc860", "id": 1}``
    one lookup; ``preset`` defaults to the server's default, ``id``
    (any JSON value) is echoed back.
* ``{"queries": [{...}, {...}], "id": 2}`` (or a bare JSON array)
    a batch — resolved in one coalesced pass through
    :func:`repro.service.batch.resolve_queries`; the response carries
    a ``results`` list in input order.
* ``{"op": "stats", "id": 3}``
    the registry's live counters (queries, memo hit rate, grid calls,
    table loads/evictions).

Malformed lines answer ``{"ok": false, "error": ...}`` and the loop
keeps serving; EOF ends the session.  Responses are flushed per line
so pipe-driven clients can interleave requests and replies.

The request/response shaping lives in the public helpers
:func:`query_from_obj`, :func:`extract_queries`, and
:func:`answer_docs` so every transport — this stdio loop and the
socket server of :mod:`repro.service.async_server` — speaks byte-for-
byte the same protocol; :func:`handle_request` is the single source of
truth for request semantics.
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.service.batch import Answers, Query, as_query, resolve_queries
from repro.service.registry import OptimizerRegistry, RegistryStats
from repro.service.wire import SOURCE_NAMES

__all__ = [
    "MAX_BATCH_QUERIES",
    "answer_docs",
    "build_response",
    "error_response",
    "extract_queries",
    "handle_op",
    "handle_request",
    "overload_response",
    "query_from_obj",
    "serve",
]

#: per-request ceiling on batched queries — a malformed or hostile
#: client must not be able to schedule an unbounded grid evaluation
#: with one line; overridable per server for tests and small deployments
MAX_BATCH_QUERIES = 4096


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
    max_queries: int = MAX_BATCH_QUERIES,
) -> tuple[str, list[Query]] | None:
    """Classify a decoded request as a query request.

    Returns ``("single", [query])`` for the one-lookup form,
    ``("batch", queries)`` for the array/``queries`` forms, or ``None``
    when the request is an op (or not a query request at all — the op
    dispatcher owns those).  Raises :class:`ValueError` on malformed
    query requests, including batches larger than ``max_queries``.
    """
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


def handle_op(obj: dict, registry: OptimizerRegistry) -> dict:
    """Answer one ``{"op": ...}`` request (id is attached by the caller)."""
    op = obj["op"]
    if op == "stats":
        return {"ok": True, "op": "stats", "stats": registry.stats.as_dict()}
    if op == "presets":
        return {"ok": True, "op": "presets", "presets": list(registry.preset_names)}
    raise ValueError(f"unknown op {op!r}; use 'stats' or 'presets'")


def build_response(
    kind: str, docs: list[dict], request_id: Any = None
) -> dict:
    """Shape result documents the way :func:`handle_request` does.

    The ``single`` form returns the bare result document (its ``id``
    rides on the query tag); the ``batch`` form wraps the documents in
    ``{"ok": true, "results": [...]}`` with the request id echoed.
    """
    if kind == "single":
        return docs[0]
    response: dict = {"ok": True, "results": docs}
    if request_id is not None:
        response["id"] = request_id
    return response


def error_response(exc: BaseException, request_id: Any = None) -> dict:
    """The canonical in-band error document."""
    response: dict = {"ok": False, "error": str(exc)}
    if request_id is not None:
        response["id"] = request_id
    return response


def overload_response(reason: str, request_id: Any = None) -> dict:
    """The canonical load-shed document — the JSON twin of the binary
    wire's ``OP_RETRY_LATER`` frame.  ``"retry": true`` tells clients
    the request was refused by admission control, not rejected as
    malformed: resend after backoff."""
    response: dict = {
        "ok": False,
        "error": f"server overloaded: {reason}; retry later",
        "retry": True,
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def handle_request(
    obj: Any,
    registry: OptimizerRegistry,
    *,
    default_preset: str | None = None,
    max_queries: int = MAX_BATCH_QUERIES,
) -> dict:
    """Answer one decoded request object (see module docstring)."""
    request_id = obj.get("id") if isinstance(obj, dict) else None
    try:
        extracted = extract_queries(
            obj, default_preset=default_preset, max_queries=max_queries
        )
        if extracted is None:
            response = handle_op(obj, registry)
        else:
            kind, queries = extracted
            queries = [as_query(q) for q in queries]
            cells = [(q.preset, q.d, q.m) for q in queries]
            answers = resolve_queries(registry, cells, pre_normalized=True)
            return build_response(kind, answer_docs(answers, queries), request_id)
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: e.g. an integer m too large for float() —
        # still a malformed request, never a reason to die
        return error_response(exc, request_id)
    if request_id is not None:
        response["id"] = request_id
    return response


def serve(
    registry: OptimizerRegistry,
    in_stream: IO[str],
    out_stream: IO[str],
    *,
    default_preset: str | None = None,
    max_queries: int = MAX_BATCH_QUERIES,
) -> RegistryStats:
    """Run the request loop until EOF; returns the final stats.

    >>> import io
    >>> registry = OptimizerRegistry()
    >>> out = io.StringIO()
    >>> stats = serve(
    ...     registry,
    ...     io.StringIO('{"preset": "ipsc860", "d": 7, "m": 40}\\n'),
    ...     out,
    ... )
    >>> json.loads(out.getvalue())["partition"]
    [4, 3]
    """
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            response = {"ok": False, "error": f"invalid JSON: {exc}"}
        else:
            response = handle_request(
                obj, registry, default_preset=default_preset, max_queries=max_queries
            )
        try:
            out_stream.write(json.dumps(response) + "\n")
            out_stream.flush()
        except BrokenPipeError:
            # the client hung up — a routine end of session, not a crash
            break
    return registry.stats
