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
    the registry's live counters (queries, memo hits and misses, memo
    hit rate, coalesced duplicates, grid calls and cells).

Malformed lines answer ``{"ok": false, "error": ...}`` and the loop
keeps serving; EOF ends the session.  Responses are flushed per line
so pipe-driven clients can interleave requests and replies.

A query line stays cells and columns from :func:`json.loads` to its
response bytes: :func:`extract_queries` turns the decoded request into
``(preset, d, m)`` cell keys plus each query's ``id``,
:func:`check_cells` range-checks them in one loop, the resolver answers
them in :class:`~repro.service.batch.Answers` columns, and
:func:`build_response` writes the response line straight from those
columns.  Every transport — this stdio loop, the socket server of
:mod:`repro.service.async_server` and the fabric's nodes — calls the
same helpers, so all write byte-for-byte the same lines;
:func:`handle_request` is the single source of truth for request
semantics.

A repeated answer's text is not formatted again.  The result memo
already stores the answer; the writer keeps the text of a document's
head (everything before its ``source``) in a process-wide cache of at
most 4096 heads, under 1.3 MB.  Only answers the memo gave are
admitted, since a fresh ``grid`` or ``pool`` answer is written once
anyway, and only when ``m`` and ``time_us`` are both nonzero: the
cache's key compares floats by ``==``, which does not tell ``-0.0``
from ``0.0``, and each zero must keep printing its own sign.  A full
cache admits nothing, so repeated answers beyond its bound cost one
lookup each, not an insert and an eviction; it empties and refills
once its heads have missed 65536 times.  Every head, cached or not,
takes its partition's text from a cache keyed by the packed partition,
which saves about as much per document as that lookup costs.
"""

from __future__ import annotations

import json
import math
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import IO, Any

from repro.service.batch import Answers, Cell, check_query_values, resolve_queries
from repro.service.registry import OptimizerRegistry, RegistryStats
from repro.service.wire import SOURCE_CODES, SOURCE_NAMES
from repro.util.validation import MAX_DIMENSION

__all__ = [
    "MAX_BATCH_QUERIES",
    "build_response",
    "check_cells",
    "error_response",
    "extract_queries",
    "handle_op",
    "handle_request",
    "overload_response",
    "serve",
]

#: per-request ceiling on batched queries — a malformed or hostile
#: client must not be able to schedule an unbounded grid evaluation
#: with one line; overridable per server for tests and small deployments
MAX_BATCH_QUERIES = 4096

#: the fields a query object may carry
QUERY_FIELDS = frozenset(("preset", "d", "m", "id"))


def _checked_cell(obj: Any, default_preset: str | None) -> Cell:
    """One query object's cell, by the full shape checks: the path for
    items the typed pass in :func:`extract_queries` does not cover.  It
    raises the error naming the item's first fault, or returns the cell
    of a valid item of unusual types (a ``str`` or ``int`` subclass)
    with plain types, which print as :func:`json.dumps` prints them."""
    if not isinstance(obj, dict):
        raise ValueError(f"query must be an object, got {type(obj).__name__}")
    unknown = set(obj) - QUERY_FIELDS
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
    return str(preset), int(d), float(m)


def extract_queries(
    obj: Any,
    *,
    default_preset: str | None = None,
    max_queries: int = MAX_BATCH_QUERIES,
) -> tuple[str, list[Cell], list[Any]] | None:
    """Classify a decoded request as a query request.

    Returns ``(kind, cells, tags)``: ``kind`` is ``"single"`` for the
    one-lookup form and ``"batch"`` for the array/``queries`` forms,
    ``cells`` the queries' ``(preset, d, m)`` keys (``m`` a float) and
    ``tags`` their ``id`` values (``None`` when absent).  Returns
    ``None`` when the request is an op (or not a query request at all
    — the op dispatcher owns those).  Raises :class:`ValueError` (or
    :class:`OverflowError` for an integer ``m`` beyond float range) on
    the first malformed query, and on batches larger than
    ``max_queries``; value ranges are :func:`check_cells`' job.
    """
    if isinstance(obj, dict) and "op" in obj:
        return None
    if isinstance(obj, list) or (isinstance(obj, dict) and "queries" in obj):
        kind, items = "batch", obj if isinstance(obj, list) else obj["queries"]
        if not isinstance(items, list):
            raise ValueError("'queries' must be an array")
        if len(items) > max_queries:
            raise ValueError(
                f"batch of {len(items)} queries exceeds the per-request "
                f"limit of {max_queries}"
            )
    elif isinstance(obj, dict):
        kind, items = "single", [obj]
    else:
        raise ValueError(f"request must be an object or array, got {type(obj).__name__}")
    cells: list[Cell] = []
    tags: list[Any] = []
    for item in items:
        # one typed pass covers what json.loads makes of a valid query;
        # anything else takes the full checks, which name its fault
        if type(item) is dict and QUERY_FIELDS.issuperset(item):
            preset, d, m = item.get("preset", default_preset), item.get("d"), item.get("m")
            if type(preset) is str and type(d) is int and (type(m) is float or type(m) is int):
                cells.append((preset, d, float(m)))
                tags.append(item.get("id"))
                continue
        cells.append(_checked_cell(item, default_preset))
        tags.append(item.get("id"))
    return kind, cells, tags


def check_cells(cells: list[Cell], registry: OptimizerRegistry) -> None:
    """Range-check extracted cells in query order: each cell's
    dimension, then its block size, then its preset, raising for the
    first failure.  A cell that passes is ``pre_normalized`` for
    :func:`~repro.service.batch.resolve_queries`.  Each distinct preset
    is looked up once: one already seen passed."""
    params = registry.params
    known: set[str] = set()
    for preset, d, m in cells:
        if not (1 <= d <= MAX_DIMENSION and 0.0 <= m < math.inf):
            check_query_values(d, m)
        if preset not in known:
            params(preset)  # unknown presets raise here
            known.add(preset)


#: each source code's text closing a result document with no ``id``
_SOURCE_TAILS = tuple(f'"{name}"}}' for name in SOURCE_NAMES)
#: ... and the text before its ``id``
_SOURCE_ID_TAILS = tuple(f'"{name}", "id": ' for name in SOURCE_NAMES)
_MEMO = SOURCE_CODES["memo"]


@cache
def _partition_text(packed: bytes) -> str:
    """A packed partition's JSON text, ``[3, 2]``.  Keyed as
    :data:`repro.service.batch._packed` is, and as bounded: the winners
    of the canonical pools, at most p(d) entries per d up to
    ``MAX_DIMENSION``."""
    return repr(list(packed))


def _render_head(preset: str, d: int, m: float, packed: bytes, time_us: float) -> str:
    """A result document's text from ``{"ok": true, "preset": ...`` up
    to and including ``"source": ``, as :func:`json.dumps` writes it.
    A cell's ``m`` is finite (:func:`check_cells` saw to that), so
    ``repr`` prints it as :func:`json.dumps` does, as it prints the
    partition's list of ints; an infinite ``time_us`` prints
    ``Infinity``."""
    time_text = repr(time_us) if math.isfinite(time_us) else json.dumps(time_us)
    return (
        f'{{"ok": true, "preset": {encode_basestring_ascii(preset)}, "d": {d}, '
        f'"m": {m!r}, "partition": {_partition_text(packed)}, '
        f'"time_us": {time_text}, "source": '
    )


#: the most heads :data:`_repeated_heads` holds
_HEADS_MAX = 4096
#: the misses a full :data:`_repeated_heads` takes before it empties
_HEADS_STALE = 16 * _HEADS_MAX


class _HeadCache(dict):
    """The heads of repeated answers, process-wide.  An entry is keyed
    by its ``time_us`` and holds ``(m, d, packed, preset, head)``; a
    lookup hits only when all five fields a head prints match, so two
    registries that share a preset name under different calibrations
    answer with their own ``time_us``.  A float key hashes without a
    tuple being built, which makes a miss about half as dear.

    :func:`build_response` admits heads until the cache holds
    :data:`_HEADS_MAX` and then admits none.  Each entry keeps about
    310 B alive (key, floats, text and table slot: 1.22 MiB for 4096
    distinct cells by tracemalloc), so the cache stays under 1.3 MB.  A
    client that cycles through more distinct repeated answers than the
    bound pays one lookup per document, where an LRU would pay an
    insert and an eviction on top of the render and lose its hits all
    the same.  After :data:`_HEADS_STALE` misses while full the heads
    it holds are taken to be stale: it empties and refills from the
    traffic of the moment, so at most one such miss in seventeen pays
    an insert."""

    __slots__ = ("misses",)

    def __init__(self) -> None:
        super().__init__()
        self.misses = 0

    def missed(self, count: int) -> None:
        """Count misses that found the cache full; empty it once its
        heads have missed more than :data:`_HEADS_STALE` times."""
        self.misses += count
        if self.misses > _HEADS_STALE:
            self.clear()

    def clear(self) -> None:
        super().clear()
        self.misses = 0


_repeated_heads = _HeadCache()


def build_response(
    kind: str, answers: Answers, tags: list[Any], request_id: Any = None
) -> bytes:
    """The response line (newline included) for one query request,
    written straight from the resolver's answer columns.

    The ``single`` form is the bare result document (its ``id`` rides
    on the query tag); the ``batch`` form wraps the documents in
    ``{"ok": true, "results": [...]}`` with the request id echoed.  The
    bytes equal :func:`json.dumps` of the same documents; only ``id``
    values go through it.

    A document's head (:func:`_render_head`) is read from the bounded
    :data:`_repeated_heads` cache when its answer came from the result
    memo and its ``m`` and ``time_us`` are both nonzero; every other
    head is rendered afresh.  A fresh ``grid`` or ``pool`` answer is
    rendered once whatever happens, so caching it would only cost.  A
    zero bypasses the cache because the cache's key compares floats by
    ``==``, which does not tell ``-0.0`` from ``0.0``: each zero keeps
    printing its own sign.
    """
    docs = []
    heads = _repeated_heads
    missed = 0
    for (preset, d, m), time_us, code, packed, tag in zip(
        answers.cells, answers.time_us, answers.source, answers.parts, tags
    ):
        if code == _MEMO and m and time_us:
            entry = heads.get(time_us)
            if (
                entry is not None and entry[0] == m and entry[1] == d
                and entry[2] == packed and entry[3] == preset
            ):
                head = entry[4]
            else:
                head = _render_head(preset, d, m, packed, time_us)
                if len(heads) < _HEADS_MAX:
                    heads[time_us] = (m, d, packed, preset, head)
                else:
                    missed += 1
        else:
            head = _render_head(preset, d, m, packed, time_us)
        if tag is None:
            docs.append(head + _SOURCE_TAILS[code])
        else:
            docs.append(f"{head}{_SOURCE_ID_TAILS[code]}{json.dumps(tag)}}}")
    if missed:
        heads.missed(missed)
    if kind == "single":
        text = docs[0]
    elif request_id is None:
        text = f'{{"ok": true, "results": [{", ".join(docs)}]}}'
    else:
        text = f'{{"ok": true, "results": [{", ".join(docs)}], "id": {json.dumps(request_id)}}}'
    return f"{text}\n".encode()


def handle_op(obj: dict, registry: OptimizerRegistry) -> dict:
    """Answer one ``{"op": ...}`` request (id is attached by the caller)."""
    op = obj["op"]
    if op == "stats":
        return {"ok": True, "op": "stats", "stats": registry.stats.as_dict()}
    if op == "presets":
        return {"ok": True, "op": "presets", "presets": list(registry.preset_names)}
    raise ValueError(f"unknown op {op!r}; use 'stats' or 'presets'")


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
) -> bytes:
    """Answer one decoded request object (see module docstring) with
    its response line, newline included."""
    request_id = obj.get("id") if isinstance(obj, dict) else None
    try:
        extracted = extract_queries(
            obj, default_preset=default_preset, max_queries=max_queries
        )
        if extracted is None:
            response = handle_op(obj, registry)
        else:
            kind, cells, tags = extracted
            check_cells(cells, registry)
            answers = resolve_queries(registry, cells, pre_normalized=True)
            return build_response(kind, answers, tags, request_id)
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: e.g. an integer m too large for float() —
        # still a malformed request, never a reason to die
        response = error_response(exc, request_id)
    else:
        if request_id is not None:
            response["id"] = request_id
    return json.dumps(response).encode() + b"\n"


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
            response = json.dumps({"ok": False, "error": f"invalid JSON: {exc}"}) + "\n"
        else:
            # the line is ASCII: json escapes everything else
            response = handle_request(
                obj, registry, default_preset=default_preset, max_queries=max_queries
            ).decode("ascii")
        try:
            out_stream.write(response)
            out_stream.flush()
        except BrokenPipeError:
            # the client hung up — a routine end of session, not a crash
            break
    return registry.stats
