"""Binary frames and JSON lines touch the registry alike.

A binary query frame enters the micro-batch one cell per record, in
wire order, as a JSON line's queries do, so the same stream sent over
either transport must get the same answers and leave the registry in
the same state.  Hypothesis draws streams with in-frame repeats,
``0.0``/``-0.0`` pairs, cells beyond the shards' 400 B sweep bound and a
memo small enough to evict; one server gets them as binary frames,
another as JSON lines, each over its own registry on the same shards,
and every flush holds the same requests on both sides.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import wire
from repro.service.async_server import AsyncOptimizerServer
from repro.service.registry import OptimizerRegistry
from tests.service.test_columnar_answers import columnar_flush

PRESETS = ("hypothetical", "ipsc860")
DIMS = (4, 5, 6)


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("parity-shards")
    OptimizerRegistry().save_shards(directory, presets=list(PRESETS), dims=DIMS)
    return directory


block_sizes = st.one_of(
    st.floats(0.0, 400.0),
    st.floats(400.0, 1e4),
    st.sampled_from([1e250, 1.7e308]),
)
cells = st.tuples(st.integers(0, len(PRESETS) - 1), st.sampled_from(DIMS), block_sizes)


@st.composite
def streams(draw):
    """Flushes of frames; each frame a list of ``(preset, d, m)``
    records drawn from one small pool, so repeats are common, with
    every zero-size cell in the pool as both ``0.0`` and ``-0.0``."""
    pool = draw(st.lists(cells, min_size=1, max_size=10))
    for preset, d in draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(DIMS)),
                                   max_size=2)):
        pool += [(preset, d, 0.0), (preset, d, -0.0)]
    frame = st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    return draw(st.lists(st.lists(frame, min_size=1, max_size=3), min_size=1, max_size=6))


def json_line(frame) -> str:
    return json.dumps({"queries": [{"preset": PRESETS[p], "d": d, "m": m} for p, d, m in frame]})


def binary_answers(chunk: bytes) -> list[tuple]:
    assert chunk[5] == wire.OP_RESULT, chunk
    times, sources, partitions = wire.decode_result_payload(chunk[wire.HEADER_BYTES:])
    return [(list(part), t.hex(), source)
            for part, t, source in zip(partitions, times.tolist(), sources)]


def json_answers(line: bytes) -> list[tuple]:
    doc = json.loads(line)
    assert doc["ok"], doc
    return [(r["partition"], r["time_us"].hex(), r["source"]) for r in doc["results"]]


def memo_keys(registry) -> list[tuple]:
    return [(preset, d, m.hex()) for preset, d, m in registry._memo]


@settings(max_examples=60, deadline=None)
@given(stream=streams(), capacity=st.integers(1, 8))
def test_binary_frames_and_json_lines_answer_and_count_alike(shard_dir, stream, capacity):
    binary = OptimizerRegistry.from_shards(shard_dir, memo_capacity=capacity)
    text = OptimizerRegistry.from_shards(shard_dir, memo_capacity=capacity)
    catalog = list(binary.preset_names)
    assert catalog == list(PRESETS)
    servers = [AsyncOptimizerServer(registry, max_batch=4096) for registry in (binary, text)]

    async def scenario():
        for server in servers:
            server._loop = asyncio.get_running_loop()
        for number, frames in enumerate(stream):
            frame_out = await columnar_flush(servers[0], catalog, [
                ("binary", wire.encode_query_records(wire.make_query_records(frame)))
                for frame in frames
            ])
            line_out = await columnar_flush(servers[1], catalog, [
                ("json", json_line(frame)) for frame in frames
            ])
            got = [answer for chunk in frame_out for answer in binary_answers(chunk)]
            want = [answer for line in line_out for answer in json_answers(line)]
            assert got == want, f"flush {number}"
            assert binary.stats.as_dict() == text.stats.as_dict(), f"flush {number}"
            assert memo_keys(binary) == memo_keys(text), f"flush {number}"

    asyncio.run(scenario())
    sent = sum(len(frame) for frames in stream for frame in frames)
    assert [server.stats.batched_queries for server in servers] == [sent, sent]
    assert binary.stats.queries == sent
