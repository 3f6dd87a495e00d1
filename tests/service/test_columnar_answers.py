"""The columnar serving path against the object-per-query oracle.

Seeded streams of binary query frames and JSON lines go through the
socket server's own admission, micro-batcher and response writer
(driven in-process, so every flush holds exactly the requests listed)
and through :mod:`tests.service.columnar_oracle`, the pipeline the
columnar path replaced.  Each side has its own registry over the same
shards, with a memo small enough to evict.  After every flush the two
must agree on every written byte, on ``RegistryStats`` and on the
memo's key order.  The stdio loop must write the socket's bytes.
"""

from __future__ import annotations

import asyncio
import io
import itertools
import json
import math

import numpy as np
import pytest

from repro.service import wire
from repro.service.async_server import AsyncOptimizerServer
from repro.service.registry import OptimizerRegistry
from repro.service.server import serve
from tests.service import columnar_oracle

PRESETS = ("hypothetical", "ipsc860")
DIMS = (4, 5, 6, 7, 8)
MEMO_CAPACITY = 48
MAX_QUERIES = 64
FRAME = 32
FLUSHES = 12


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("columnar-shards")
    OptimizerRegistry().save_shards(directory, presets=list(PRESETS))
    return directory


def records(specs) -> bytes:
    return wire.encode_query_records(wire.make_query_records(specs))


def pool_cells(rng, n, *, beyond=False):
    """``n`` seeded ``(preset, d, m)`` records; ``m`` past the shards'
    400 B tables when ``beyond``."""
    low, high = (400.0, 4000.0) if beyond else (1.0, 400.0)
    return [
        (int(p), int(d), float(m))
        for p, d, m in zip(
            rng.integers(0, len(PRESETS), n), rng.choice(DIMS, n), rng.uniform(low, high, n)
        )
    ]


def hot(rng):
    cells = pool_cells(rng, 64)
    return [[("binary", records([cells[i] for i in rng.integers(0, 64, FRAME)]))]
            for _ in range(FLUSHES)]


def cold(rng):
    return [[("binary", records(pool_cells(rng, FRAME // 2) + pool_cells(
        rng, FRAME // 2, beyond=True)))] for _ in range(FLUSHES)]


def distinct_unsorted(rng):
    cells = pool_cells(rng, 400)
    return [[("binary", records([cells[i] for i in rng.permutation(400)[:FRAME]]))]
            for _ in range(FLUSHES)]


def duplicate_heavy(rng):
    cells = pool_cells(rng, 3) + pool_cells(rng, 1, beyond=True)
    return [[("binary", records([cells[i] for i in rng.integers(0, 4, FRAME)]))]
            for _ in range(FLUSHES)]


def signed_zero(rng):
    """Frames holding ``m = -0.0`` and ``m = 0.0`` for the same cells,
    in either order, with other cells around them."""
    flushes = []
    for _ in range(FLUSHES):
        zeros = [(int(rng.integers(0, 2)), int(rng.choice(DIMS)), z)
                 for z in (-0.0, 0.0) for _ in range(3)]
        specs = zeros + pool_cells(rng, 6)
        flushes.append([("binary", records([specs[i] for i in rng.permutation(len(specs))]))])
    return flushes


def wide_flush(rng):
    """Flushes of 80 fresh cells over both presets and d 2..8 (d 2 and
    3 have no shard table, and need none), below and above 400 B, plus
    16 repeats of earlier cells, in
    32-record frames and one JSON batch.  Each flush misses more
    distinct cells than the memo holds, so the memo evicts inside the
    flush, and one resolve call prices every miss of every group."""
    seen: list[tuple[int, int, float]] = []
    flushes = []
    for _ in range(FLUSHES):
        n = 80
        sizes = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 400.0, n),
                         rng.uniform(400.0, 4000.0, n))
        fresh = [(int(p), int(d), float(m)) for p, d, m in
                 zip(rng.integers(0, len(PRESETS), n), rng.integers(2, 9, n), sizes)]
        again = [seen[i] for i in rng.integers(0, len(seen), 16)] if seen else []
        specs = fresh + again
        specs = [specs[i] for i in rng.permutation(len(specs))]
        flush = [("binary", records(specs[i:i + FRAME])) for i in range(0, len(specs), FRAME)]
        flush.insert(1, ("json", json_line(rng, specs[:5])))
        flushes.append(flush)
        seen += fresh
    return flushes


#: bad records, each pair of which is tried in one frame: which one the
#: error names depends on the sorted cell order
BAD = [
    (len(PRESETS) + 3, 5, 8.0), (len(PRESETS), 6, 8.0),
    (0, 0, 8.0), (1, 30, 8.0), (0, 27, 8.0),
    (0, 5, float("inf")), (1, 4, -float("inf")), (0, 5, float("nan")),
    (0, 5, -1.0), (1, 4, -7.5), (0, 5, -0.5),
]


def two_bad(rng):
    flushes = []
    for pair in itertools.combinations(BAD, 2):
        good = pool_cells(rng, 10)
        specs = good + list(pair)
        # the pair alone, among valid cells, and a valid frame in the
        # same flush: an error frame must not disturb its neighbours
        flushes.append([
            ("binary", records(list(pair)[::rng.choice([1, -1])])),
            ("binary", records([specs[i] for i in rng.permutation(len(specs))])),
            ("binary", records(good)),
        ])
    return flushes


def json_line(rng, cells):
    """A JSON request for ``cells``: the single form or a batch, with
    an id, sometimes naming the preset and sometimes not."""
    def doc(p, d, m):
        query = {"d": d, "m": m}
        if PRESETS[p] != "ipsc860" or rng.random() < 0.5:
            query["preset"] = PRESETS[p]
        return query
    request_id = int(rng.integers(0, 1000))
    if len(cells) == 1:
        return json.dumps({**doc(*cells[0]), "id": request_id})
    return json.dumps({"queries": [doc(*c) for c in cells], "id": request_id})


def mixed(rng):
    """Flushes mixing JSON and binary requests over shared cells, so
    one core call coalesces across transports; each opens with a JSON
    batch asking one zero-size cell as ``-0.0`` and ``0.0``, and some
    carry a JSON request that fails admission."""
    cells = pool_cells(rng, 48) + pool_cells(rng, 8, beyond=True)
    flushes = []
    for _ in range(FLUSHES):
        p, d = int(rng.integers(0, len(PRESETS))), int(rng.choice(DIMS))
        zeros = [(p, d, z) for z in ((-0.0, 0.0) if rng.random() < 0.5 else (0.0, -0.0))]
        flush = [("json", json_line(rng, zeros))]
        for _ in range(int(rng.integers(2, 6))):
            pick = [cells[i] for i in rng.integers(0, len(cells), int(rng.integers(1, 12)))]
            if rng.random() < 0.5:
                flush.append(("binary", records(pick)))
            else:
                flush.append(("json", json_line(rng, pick)))
        if rng.random() < 0.3:
            flush.append(("json", json.dumps({"d": 0, "m": 1.0, "id": "bad"})))
        flushes.append(flush)
    return flushes


#: an ``id`` of every JSON type; ``None`` sends none (or, now and
#: then, ``null``)
IDS = [
    None, "naïve ☃ \"quoted\"\n", 7, -0, 2.5, 1e300, None, True, False,
    [1, [2, "x"], {"k": None}], {"nested": {"é": [1.5, True, None]}},
]

#: lines whose error the socket server and the object-per-query stdio
#: loop (``columnar_oracle.serve``) name differently: an unknown preset
#: ahead of a later query's range error.  The socket server checks each
#: query's preset with its values, in query order; that loop checked
#: every value first.  Both transports now name the preset
PRESET_FIRST = [
    '[{"preset": "cray", "d": 5, "m": 8}, {"d": 5, "m": 8}, {"d": 0, "m": 8}]',
]

#: fixed JSON lines: integer, huge and signed-zero ``m``, a null preset,
#: the forms' empty and id-carrying edges, and lines carrying two
#: errors, which pin their precedence (shapes before ranges, ranges in
#: query order)
EDGE_LINES = [
    '{"d": 5, "m": 40}',
    '{"d": 6, "m": 40, "preset": "hypothetical", "id": "int m"}',
    json.dumps({"d": 6, "m": 2 ** 60, "id": "2**60"}),
    json.dumps([{"d": 5, "m": 8}, {"d": 5, "m": 10 ** 400}]),
    json.dumps({"queries": [{"d": 5, "m": 10 ** 400, "preset": 3}]}),
    '{"d": 5, "m": 8, "preset": null, "id": 1}',
    '[{"d": 5, "m": 8, "preset": "ipsc860"}, {"d": 5, "m": 8, "preset": null}]',
    "[]",
    '{"queries": [], "id": [1, {"a": null}]}',
    '[{"d": 7, "m": -0.0, "id": -0.0}, {"d": 7, "m": 0.0, "id": 0.0}, {"d": 7, "m": 0}]',
    '{"d": 8, "m": -0.0, "preset": "hypothetical"}',
    '{"d": 8, "m": 0.0, "preset": "hypothetical", "id": false}',
    '{"queries": [{"d": 5, "m": 8, "id": "q\u00e9"}], "id": {"r": [1.5]}}',
    '[{"d": 0, "m": 8}, {"d": 5, "m": 8}, {"d": 5, "m": "wide"}]',
    '[{"d": 5, "m": "wide"}, {"d": 5, "m": 8}, {"d": 0, "m": 8}]',
    '[{"d": 5, "m": -1}, {"d": 5, "m": 8}, {"d": 99, "m": 8}]',
    '[{"d": 5, "m": 8}, {"d": 5, "m": NaN}, {"d": 5, "m": -Infinity}]',
    '[{"d": 5, "m": Infinity, "id": 1}, {"preset": "cray", "d": 5, "m": 8}]',
    '[{"d": 5, "m": 8}, {"d": true, "m": 8}, {"d": 0, "m": 8}]',
    '[{"d": 5, "m": 8}, {"d": 5, "m": false}]',
    '[{"d": 5, "m": 8}, 7]',
    '[{"d": 5, "m": 8, "x": 1}, {"m": 8}]',
    '{"d": 5, "id": "no m"}',
    '{"queries": {"d": 5, "m": 8}}',
    *PRESET_FIRST,
]


def json_edges(rng):
    """JSON lines only: seeded queries with ids of every JSON type on
    queries and requests, in the single, bare-array and ``queries``
    forms, with :data:`EDGE_LINES` spread over the flushes."""
    cells = pool_cells(rng, 24) + pool_cells(rng, 4, beyond=True)

    def query(p, d, m):
        doc = {"d": d, "m": int(m) if rng.random() < 0.3 else m}
        if PRESETS[p] != "ipsc860" or rng.random() < 0.5:
            doc["preset"] = PRESETS[p]
        tag = IDS[int(rng.integers(0, len(IDS)))]
        if tag is not None or rng.random() < 0.2:
            doc["id"] = tag
        return doc

    flushes = []
    for number in range(FLUSHES):
        flush = []
        for _ in range(int(rng.integers(2, 6))):
            pick = [cells[i] for i in rng.integers(0, len(cells), int(rng.integers(1, 8)))]
            queries = [query(*cell) for cell in pick]
            form = rng.random()
            if form < 0.3:
                obj = queries[0]
            elif form < 0.6:
                obj = queries
            else:
                obj = {"queries": queries}
                tag = IDS[int(rng.integers(0, len(IDS)))]
                if tag is not None:
                    obj["id"] = tag
            flush.append(("json", json.dumps(obj)))
        flush[1:1] = [("json", line) for line in EDGE_LINES[number::FLUSHES]]
        flushes.append(flush)
    return flushes


STREAMS = {
    "hot": hot,
    "cold": cold,
    "distinct_unsorted": distinct_unsorted,
    "duplicate_heavy": duplicate_heavy,
    "signed_zero": signed_zero,
    "two_bad": two_bad,
    "wide_flush": wide_flush,
    "mixed": mixed,
    "json_edges": json_edges,
}


class _Written:
    """A stream writer that keeps what the server writes."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.chunks.append(data)

    async def drain(self) -> None:
        pass


async def columnar_flush(server, catalog, requests) -> list[bytes]:
    """Admit ``requests`` in order, flush the batcher once, and return
    what the response writer writes for each."""
    responses: asyncio.Queue = asyncio.Queue()
    for transport, data in requests:
        if transport == "binary":
            server._admit_query_frame(data, catalog, responses.put_nowait, 0.0, 0)
        else:
            server._admit_line(data, responses.put_nowait, 0.0, 0)
    server._batcher.flush()
    responses.put_nowait(None)
    written = _Written()
    await server._write_responses(responses, written, asyncio.Semaphore(0))
    return written.chunks


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_columnar_path_matches_the_object_pipeline(shard_dir, stream, seed):
    flushes = STREAMS[stream](np.random.default_rng([seed, sorted(STREAMS).index(stream)]))
    columnar = OptimizerRegistry.from_shards(shard_dir, memo_capacity=MEMO_CAPACITY)
    oracle = OptimizerRegistry.from_shards(shard_dir, memo_capacity=MEMO_CAPACITY)
    catalog = list(columnar.preset_names)
    server = AsyncOptimizerServer(
        columnar, default_preset="ipsc860", max_queries=MAX_QUERIES, max_batch=4096
    )

    async def scenario():
        server._loop = asyncio.get_running_loop()
        sources = set()
        for number, requests in enumerate(flushes):
            got = await columnar_flush(server, catalog, requests)
            want = columnar_oracle.flush(
                oracle, catalog, requests,
                default_preset="ipsc860", max_queries=MAX_QUERIES,
            )
            assert got == want, f"flush {number}"
            assert columnar.stats.as_dict() == oracle.stats.as_dict(), f"flush {number}"
            assert list(columnar._memo) == list(oracle._memo), f"flush {number}"
            for chunk in got:
                if chunk[5] == wire.OP_RESULT:
                    sources.update(wire.decode_result_payload(chunk[wire.HEADER_BYTES:])[1])
        return sources

    sources = asyncio.run(scenario())
    assert len(columnar._memo) <= MEMO_CAPACITY
    if stream != "duplicate_heavy":
        assert columnar.stats.memo_misses > MEMO_CAPACITY  # the memo evicted
    if stream in ("hot", "duplicate_heavy"):
        assert "memo" in sources
    if stream in ("cold", "duplicate_heavy"):
        assert "grid" in sources
    if stream == "signed_zero":
        assert "pool" in sources  # m = 0 is never certified
    if stream == "wide_flush":
        assert {"memo", "grid"} <= sources


def test_stdio_loop_writes_the_socket_bytes(shard_dir):
    """The stdio loop answers every JSON edge line with the bytes the
    socket server writes for it alone, and with the object-per-query
    stdio loop's bytes except on the :data:`PRESET_FIRST` lines."""
    lines = [data for flush in json_edges(np.random.default_rng(3)) for _, data in flush]
    assert set(EDGE_LINES) <= set(lines)
    stdio, socket, parent = (
        OptimizerRegistry.from_shards(shard_dir, memo_capacity=MEMO_CAPACITY)
        for _ in range(3)
    )
    out = io.StringIO()
    serve(stdio, io.StringIO("\n".join(lines)), out,
          default_preset="ipsc860", max_queries=MAX_QUERIES)
    server = AsyncOptimizerServer(
        socket, default_preset="ipsc860", max_queries=MAX_QUERIES, max_batch=4096
    )

    async def one_line_per_flush():
        server._loop = asyncio.get_running_loop()
        catalog = list(socket.preset_names)
        return [
            b"".join(await columnar_flush(server, catalog, [("json", line)]))
            for line in lines
        ]

    written = out.getvalue().encode()
    assert written == b"".join(asyncio.run(one_line_per_flush()))
    assert stdio.stats.as_dict() == socket.stats.as_dict()
    assert list(stdio._memo) == list(socket._memo)

    old = columnar_oracle.serve(
        parent, lines, default_preset="ipsc860", max_queries=MAX_QUERIES
    )
    assert stdio.stats.as_dict() == parent.stats.as_dict()
    assert list(stdio._memo) == list(parent._memo)
    changed = [
        (line, json.loads(new)["error"], json.loads(was)["error"])
        for line, new, was in zip(lines, written.splitlines(), old.splitlines())
        if new != was
    ]
    assert [line for line, _, _ in changed] == [
        line for line in lines if line in PRESET_FIRST
    ]
    for _, new, was in changed:
        assert "unknown machine preset" in new and "dimension" in was


def envelope_edges(registry, rng):
    """Flushes at the certified envelopes' interval ends (and one ulp
    either side) of both presets, from 0, with seeded sizes between them
    and past them, and repeats of earlier cells."""
    edges = []
    for p, preset in enumerate(PRESETS):
        for d in DIMS:
            envelope = registry.envelope(preset, d)
            for end in envelope.lows + envelope.highs:
                edges += [(p, d, end), (p, d, math.nextafter(end, math.inf)),
                          (p, d, math.nextafter(end, 0.0))]
    edges = [cell for cell in edges if cell[2] < 1e6]  # the float-range ends are tested in tests/model
    seen: list[tuple[int, int, float]] = []
    flushes = []
    for number in range(FLUSHES):
        n = 24
        fresh = [(int(p), int(d), float(m)) for p, d, m in zip(
            rng.integers(0, len(PRESETS), n), rng.choice(DIMS, n),
            np.where(rng.random(n) < 0.8, rng.uniform(0.0, 200.0, n), rng.uniform(200.0, 4e4, n)))]
        specs = edges[number::FLUSHES] + fresh
        specs += [seen[i] for i in rng.integers(0, len(seen), 8)] if seen else [(0, 8, 0.0)]
        specs = [specs[i] for i in rng.permutation(len(specs))]
        flush = [("binary", records(specs[i:i + FRAME])) for i in range(0, len(specs), FRAME)]
        flush.append(("json", json_line(rng, specs[:3])))
        flushes.append(flush)
        seen += fresh
    return flushes


@pytest.mark.parametrize("seed", [1, 2])
def test_multi_segment_envelope_matches_the_object_pipeline(shard_dir, seed):
    """The §4.3 machine's envelope at d = 8 has five segments, and both
    presets' envelopes leave slivers around each switch point to the
    pool: every byte, counter and memo key still matches the full-pool
    oracle."""
    columnar = OptimizerRegistry.from_shards(shard_dir, memo_capacity=MEMO_CAPACITY)
    oracle = OptimizerRegistry.from_shards(shard_dir, memo_capacity=MEMO_CAPACITY)
    assert len(columnar.envelope("hypothetical", 8).winners) == 5
    flushes = envelope_edges(columnar, np.random.default_rng([seed, 99]))
    sizes = [(PRESETS[p], int(d), m) for flush in flushes for transport, data in flush
             if transport == "binary" for p, d, m in wire.decode_query_payload(data).tolist()]
    certified = [columnar.envelope(p, d).index(m) >= 0 for p, d, m in sizes if m > 0]
    assert any(certified) and not all(certified)  # both branches run
    catalog = list(columnar.preset_names)
    server = AsyncOptimizerServer(
        columnar, default_preset="ipsc860", max_queries=MAX_QUERIES, max_batch=4096
    )

    async def scenario():
        server._loop = asyncio.get_running_loop()
        sources = set()
        for number, requests in enumerate(flushes):
            got = await columnar_flush(server, catalog, requests)
            want = columnar_oracle.flush(
                oracle, catalog, requests,
                default_preset="ipsc860", max_queries=MAX_QUERIES,
            )
            assert got == want, f"flush {number}"
            assert columnar.stats.as_dict() == oracle.stats.as_dict(), f"flush {number}"
            assert list(columnar._memo) == list(oracle._memo), f"flush {number}"
            for chunk in got:
                if chunk[5] == wire.OP_RESULT:
                    sources.update(wire.decode_result_payload(chunk[wire.HEADER_BYTES:])[1])
        return sources

    assert {"memo", "pool"} <= asyncio.run(scenario())
    assert columnar.stats.memo_misses > MEMO_CAPACITY  # the memo evicted
