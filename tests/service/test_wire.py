"""Tests for the binary wire protocol: codec, transport, SLO features.

The transport cases drive a live :class:`AsyncOptimizerServer` through
raw asyncio streams (the client library is exercised separately via
the equivalence tests here and ``test_async_server.py``), so a
malformed byte sequence cannot be masked by client-side validation.
"""

from __future__ import annotations

import asyncio
import json
import math
import random

import pytest

from repro.service import OptimizerRegistry, wire
from repro.service.async_server import LatencyHistogram
from repro.service.batch import Answers, QueryResult, queries_from_arrays
from repro.service.client import AsyncServerClient
from tests.service.protocol_cases import (
    BINARY_CASE_IDS,
    BINARY_ERROR_CASES,
    CASE_MAX_QUERIES,
    VALID_FRAME,
    query_frame,
)
from tests.service import wire_workload
from tests.service.test_async_server import started_server


# ----------------------------------------------------------------------
# codec units (no sockets)
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_header_roundtrip(self):
        frame = wire.pack_frame(wire.OP_QUERY, b"abc")
        assert len(frame) == wire.HEADER_BYTES + 3
        version, opcode, length = wire.parse_header(frame[: wire.HEADER_BYTES])
        assert (version, opcode, length) == (wire.WIRE_VERSION, wire.OP_QUERY, 3)

    def test_bad_magic_is_fatal(self):
        with pytest.raises(wire.WireError) as excinfo:
            wire.parse_header(b"XXXX" + bytes(8))
        assert excinfo.value.fatal
        assert "bad frame magic" in str(excinfo.value)

    def test_oversized_length_is_fatal(self):
        header = wire.HEADER.pack(
            wire.WIRE_MAGIC, wire.WIRE_VERSION, wire.OP_QUERY, 0,
            wire.MAX_FRAME_BYTES + 1,
        )
        with pytest.raises(wire.WireError) as excinfo:
            wire.parse_header(header)
        assert excinfo.value.fatal

    def test_pack_refuses_oversized_payload(self):
        with pytest.raises(wire.WireError):
            wire.pack_frame(wire.OP_QUERY, bytes(wire.MAX_FRAME_BYTES + 1))

    def test_query_records_roundtrip(self):
        specs = [(0, 7, 40.0), (1, 5, 12.5), (0, 7, 40.0)]
        payload = wire.encode_query_records(wire.make_query_records(specs))
        records = wire.decode_query_payload(payload)
        assert records.dtype == wire.QUERY_DTYPE
        assert [
            (int(r["preset"]), int(r["d"]), float(r["m"])) for r in records
        ] == specs

    def test_ragged_query_payload_rejected(self):
        with pytest.raises(wire.WireError, match="whole number"):
            wire.decode_query_payload(b"\x01\x02\x03")

    def test_results_roundtrip(self):
        results = [
            QueryResult("ipsc860", 7, 40.0, (4, 3), 16097.32, "grid"),
            QueryResult("ipsc860", 5, 10.0, (5,), 123.0, "memo"),
            QueryResult("ipsc860", 6, 999.0, (3, 2, 1), 7.5, "pool"),
        ]
        times, sources, partitions = wire.decode_result_payload(
            wire.encode_results(results)
        )
        assert times.tolist() == [16097.32, 123.0, 7.5]
        assert sources == ["grid", "memo", "pool"]
        assert partitions == [(4, 3), (5,), (3, 2, 1)]

    def test_repeated_results_encode_in_query_order(self):
        """Each query's answer is packed where it stands, repeats and
        all: nothing is gathered or reordered."""
        five, seven = (
            QueryResult("ipsc860", 5, 40.0, (3, 2), 1.5, "grid"),
            QueryResult("ipsc860", 7, 40.0, (4, 3), 2.5, "memo"),
        )
        times, sources, partitions = wire.decode_result_payload(
            wire.encode_results((seven, five, seven, seven, five))
        )
        assert times.tolist() == [2.5, 1.5, 2.5, 2.5, 1.5]
        assert partitions == [(4, 3), (3, 2), (4, 3), (4, 3), (3, 2)]
        assert sources == ["memo", "grid", "memo", "memo", "grid"]

    def test_empty_results(self):
        times, sources, partitions = wire.decode_result_payload(
            wire.encode_results([])
        )
        assert times.size == 0 and sources == [] and partitions == []

    def test_truncated_result_payload_rejected(self):
        payload = wire.encode_results(
            [QueryResult("ipsc860", 7, 40.0, (4, 3), 1.0, "grid")]
        )
        with pytest.raises(wire.WireError):
            wire.decode_result_payload(payload[:-1])
        with pytest.raises(wire.WireError):
            wire.decode_result_payload(payload[:3])

    def test_trailing_result_bytes_rejected(self):
        """A payload longer than its partition counts imply is as
        malformed as a short one."""
        payload = wire.encode_results(
            [QueryResult("ipsc860", 7, 40.0, (4, 3), 1.0, "grid")]
        )
        with pytest.raises(wire.WireError, match="partition counts"):
            wire.decode_result_payload(payload + b"\x00")

    def test_answer_columns_and_results_encode_alike(self):
        """The resolver's columns and the QueryResult objects built
        from them encode to the same bytes, whole and in any slice."""
        answers = Answers(
            [("ipsc860", 7, 40.0), ("ipsc860", 5, 40.0), ("ipsc860", 7, 40.0)],
            [2.5, 1.5, 2.5], bytearray([0, 1, 0]),
            [bytes((4, 3)), bytes((3, 2)), bytes((4, 3))],
        )
        for start, stop in ((0, 3), (1, 3), (0, 1), (2, 2)):
            part = answers.slice(start, stop)
            results = part.results([None] * (stop - start))
            assert wire.encode_results(part) == wire.encode_results(results)

    def test_hello_payloads_roundtrip(self):
        assert wire.parse_hello(wire.hello_payload("tok")) == "tok"
        assert wire.parse_hello(wire.hello_payload(None)) == ""
        info = wire.parse_hello_ok(
            wire.hello_ok_payload(["a", "b"], "a", 4096)
        )
        assert info["presets"] == ["a", "b"]
        assert info["default_preset"] == "a"
        assert info["max_queries"] == 4096

    def test_malformed_hello_payloads_rejected(self):
        for payload in (b"\xff\xfe", b"[1]", b'{"token": 5}'):
            with pytest.raises(wire.WireError):
                wire.parse_hello(payload)
        with pytest.raises(wire.WireError):
            wire.parse_hello_ok(b'{"no": "catalog"}')


class TestQueriesFromArrays:
    def test_catalog_indices_map_to_preset_names(self):
        records = wire.make_query_records([(1, 7, 40.0), (0, 5, 0.0)])
        cells = queries_from_arrays(["hypothetical", "ipsc860"], records)
        assert cells == [("ipsc860", 7, 40.0), ("hypothetical", 5, 0.0)]

    def test_one_cell_per_record_in_wire_order(self):
        """Repeats and both signed zeros stay, each where it was sent:
        the resolver, not admission, coalesces a frame's repeats."""
        specs = [(0, 7, 40.0), (0, 5, 40.0), (0, 7, 40.0), (0, 5, 0.0), (0, 5, -0.0)]
        cells = queries_from_arrays(["ipsc860"], wire.make_query_records(specs))
        assert cells == [("ipsc860", d, m) for _, d, m in specs]
        assert [math.copysign(1.0, m) for _, _, m in cells[3:]] == [1.0, -1.0]
        assert all(type(d) is int and type(m) is float for _, d, m in cells)

    def test_empty_frame_has_no_cells(self):
        assert queries_from_arrays(["ipsc860"], wire.make_query_records([])) == []

    def test_first_bad_record_in_sorted_order_is_named(self):
        """With several bad records the error names the one sorted
        ``(preset, d, m)`` order puts first, wherever it stands in the
        frame: the smallest preset index, the lowest or highest
        dimension, then -inf < inf < nan, then the most negative block
        size."""
        cases = [
            ([(7, 7, 40.0), (3, 7, 40.0)], "preset index 3 out of range"),
            ([(0, 30, 1.0), (0, 26, 1.0)], "cube dimension 30 exceeds"),
            ([(0, 0, 1.0), (0, 30, 1.0)], "must be >= 1, got 0"),
            ([(0, 7, float("nan")), (0, 7, float("inf"))], "finite, got inf$"),
            ([(0, 7, float("inf")), (0, 7, -float("inf"))], "finite, got -inf"),
            ([(0, 7, float("nan")), (0, 6, float("nan"))], "finite, got nan"),
            ([(0, 7, -1.0), (0, 7, -2.0), (0, 8, -9.0)], ">= 0, got -2.0"),
        ]
        for specs, needle in cases:
            with pytest.raises(ValueError, match=needle):
                queries_from_arrays(["ipsc860"], wire.make_query_records(specs))

    @pytest.mark.parametrize(
        ("spec", "needle"),
        [
            ((5, 7, 40.0), "preset index 5 out of range"),
            ((0, 0, 40.0), "dimension must be >= 1"),
            ((0, 25, 40.0), "exceeds the supported maximum"),
            ((0, 7, float("inf")), "block size must be finite"),
            ((0, 7, float("nan")), "block size must be finite"),
        ],
    )
    def test_rejections(self, spec, needle):
        records = wire.make_query_records([(0, 7, 40.0), spec])
        with pytest.raises(ValueError, match=needle):
            queries_from_arrays(["ipsc860"], records)


class TestLatencyHistogram:
    def test_percentiles_bracket_recorded_values(self):
        hist = LatencyHistogram()
        for us in (10.0, 20.0, 30.0, 40.0, 1000.0):
            hist.record(us)
        assert hist.count == 5
        assert hist.max_us == 1000.0
        assert 0.0 < hist.percentile(50.0) <= 64.0
        assert hist.percentile(99.0) <= 1024.0
        assert hist.percentile(99.0) >= hist.percentile(50.0)

    def test_overflow_bucket_reports_observed_max(self):
        hist = LatencyHistogram()
        huge = float(1 << 30)  # past the largest finite bucket bound
        hist.record(huge)
        assert hist.percentile(100.0) == huge
        assert hist.percentile(50.0) > hist.BOUNDS[-1]
        assert hist.as_dict()["buckets"][-1][0] is None

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(50.0) == 0.0
        assert hist.mean_us == 0.0
        assert hist.as_dict()["buckets"] == []

    def test_as_dict_counts_sum(self):
        hist = LatencyHistogram()
        for us in (1.0, 2.0, 3.0, 5000.0):
            hist.record(us)
        doc = hist.as_dict()
        assert sum(count for _, count in doc["buckets"]) == doc["count"] == 4


# ----------------------------------------------------------------------
# live transport
# ----------------------------------------------------------------------
async def open_stream(address):
    """A raw reader/writer pair to a bound server address."""
    if address.kind == "unix":
        return await asyncio.open_unix_connection(address.path)
    return await asyncio.open_connection(address.host, address.port)


async def do_hello(reader, writer, token=None):
    writer.write(wire.pack_frame(wire.OP_HELLO, wire.hello_payload(token)))
    await writer.drain()
    _, opcode, payload = await wire.read_frame(reader)
    return opcode, payload


class TestBinaryNegotiation:
    def test_hello_ok_carries_catalog_and_limits(self, tmp_path):
        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860", max_queries=CASE_MAX_QUERIES
            )
            reader, writer = await open_stream(server.address)
            opcode, payload = await do_hello(reader, writer)
            writer.close()
            await server.aclose()
            return opcode, payload

        opcode, payload = asyncio.run(scenario())
        assert opcode == wire.OP_HELLO_OK
        info = wire.parse_hello_ok(payload)
        assert "ipsc860" in info["presets"]
        assert info["default_preset"] == "ipsc860"
        assert info["max_queries"] == CASE_MAX_QUERIES
        assert info["version"] == wire.WIRE_VERSION

    def test_query_before_hello_is_refused_in_band(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            reader, writer = await open_stream(server.address)
            writer.write(VALID_FRAME)
            await writer.drain()
            _, opcode, payload = await wire.read_frame(reader)
            # the session survives: a HELLO afterwards still negotiates
            ok_opcode, _ = await do_hello(reader, writer)
            writer.close()
            await server.aclose()
            return opcode, payload, ok_opcode

        opcode, payload, ok_opcode = asyncio.run(scenario())
        assert opcode == wire.OP_ERROR
        assert b"HELLO" in payload
        assert ok_opcode == wire.OP_HELLO_OK

    def test_malformed_hello_payload_survives(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            reader, writer = await open_stream(server.address)
            writer.write(wire.pack_frame(wire.OP_HELLO, b"\xff\xfe"))
            await writer.drain()
            _, opcode, _ = await wire.read_frame(reader)
            ok_opcode, _ = await do_hello(reader, writer)
            writer.close()
            await server.aclose()
            return opcode, ok_opcode

        opcode, ok_opcode = asyncio.run(scenario())
        assert opcode == wire.OP_ERROR
        assert ok_opcode == wire.OP_HELLO_OK


class TestBinaryErrorCases:
    @pytest.mark.parametrize(
        ("case_id", "raw", "needle", "survives"),
        BINARY_ERROR_CASES,
        ids=BINARY_CASE_IDS,
    )
    def test_in_band_error_never_connection_death(
        self, tmp_path, case_id, raw, needle, survives
    ):
        """Every malformed byte sequence answers with a clean OP_ERROR
        frame; only framing-lost cases may close the session after."""

        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860", max_queries=CASE_MAX_QUERIES
            )
            reader, writer = await open_stream(server.address)
            opcode, _ = await do_hello(reader, writer)
            assert opcode == wire.OP_HELLO_OK
            writer.write(raw)
            if not survives:
                # truncation cases hand the server EOF mid-frame
                writer.write_eof()
            await writer.drain()
            _, err_opcode, err_payload = await wire.read_frame(reader)
            chase = None
            if survives:
                writer.write(VALID_FRAME)
                await writer.drain()
                chase = await wire.read_frame(reader)
            else:
                assert await reader.read(1) == b""  # server closed
            writer.close()
            await server.aclose()
            return err_opcode, err_payload, chase, server.stats

        err_opcode, err_payload, chase, stats = asyncio.run(scenario())
        assert err_opcode == wire.OP_ERROR
        assert needle.encode() in err_payload
        assert stats.errors >= 1
        if survives:
            _, chase_opcode, chase_payload = chase
            assert chase_opcode == wire.OP_RESULT
            _, _, partitions = wire.decode_result_payload(chase_payload)
            assert partitions == [(4, 3)]


class TestFuzzRandomBytes:
    def test_random_connection_prefixes_never_kill_the_server(self, tmp_path):
        """Garbage opening bytes — whatever the transport sniff makes
        of them — must leave the server serving fresh connections."""

        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            rng = random.Random(0xB0C4)
            for _ in range(25):
                blob = bytes(
                    rng.randrange(256) for _ in range(rng.randrange(0, 64))
                )
                reader, writer = await open_stream(server.address)
                writer.write(blob)
                writer.write_eof()
                # the server answers in-band (JSON error lines) or just
                # closes; it must never hang or die
                await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
            # the proof: a fresh, well-formed session still works
            async with await AsyncServerClient.connect(
                server.address, wire="binary"
            ) as client:
                response = await client.query(7, 40.0)
            await server.aclose()
            return response

        response = asyncio.run(scenario())
        assert response["partition"] == [4, 3]

    def test_random_frames_after_hello_answer_in_band(self, tmp_path):
        """Random (but well-framed) opcodes and payloads after HELLO
        get in-band answers on a surviving session."""

        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860", max_queries=CASE_MAX_QUERIES
            )
            rng = random.Random(0x51ED)
            reader, writer = await open_stream(server.address)
            opcode, _ = await do_hello(reader, writer)
            assert opcode == wire.OP_HELLO_OK
            for _ in range(25):
                op = rng.randrange(0, 256)
                payload = bytes(
                    rng.randrange(256) for _ in range(rng.randrange(0, 48))
                )
                writer.write(wire.pack_frame(op, payload))
                await writer.drain()
                _, answer, _ = await asyncio.wait_for(
                    wire.read_frame(reader), timeout=5
                )
                # an empty OP_QUERY payload is a legal 0-query frame,
                # so OP_RESULT is a valid answer alongside the errors
                assert answer in (
                    wire.OP_ERROR, wire.OP_RESULT, wire.OP_HELLO_OK,
                    wire.OP_RETRY_LATER,
                )
            writer.write(VALID_FRAME)
            await writer.drain()
            _, chase, payload = await wire.read_frame(reader)
            writer.close()
            await server.aclose()
            return chase, payload

        chase, payload = asyncio.run(scenario())
        assert chase == wire.OP_RESULT
        assert wire.decode_result_payload(payload)[2] == [(4, 3)]


class TestBinaryAnswersMatchJson:
    def test_same_queries_same_answers_on_both_wires(self, tmp_path):
        """Binary results equal the JSON wire's, including provenance,
        for a mix of covered, repeated, and edge-block-size queries."""
        specs = [
            (7, 40.0), (5, 40.0), (7, 40.0), (6, 500.0), (7, 0.0), (5, 40.0),
        ]

        async def run_wire(kind):
            server = await started_server(tmp_path, default_preset="ipsc860")
            async with await AsyncServerClient.connect(
                server.address, wire=kind
            ) as client:
                responses = await client.query_many(specs)
            await server.aclose()
            return responses

        json_docs = asyncio.run(run_wire("json"))
        binary_docs = asyncio.run(run_wire("binary"))
        assert len(json_docs) == len(binary_docs) == len(specs)
        for j, b in zip(json_docs, binary_docs):
            assert b["ok"] and j["ok"]
            assert b["partition"] == j["partition"]
            assert b["time_us"] == j["time_us"]
            assert b["source"] == j["source"]
            assert b["preset"] == j["preset"]

    def test_distinct_unsorted_queries_keep_request_order(self, tmp_path):
        """Answers come back in request order, not in the order of
        dimensions or cells."""

        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            async with await AsyncServerClient.connect(
                server.address, wire="binary"
            ) as client:
                responses = await client.query_many(
                    [(7, 40.0), (5, 40.0), (6, 40.0)]
                )
            await server.aclose()
            return responses

        responses = asyncio.run(scenario())
        assert [(r["d"], r["partition"]) for r in responses] == [
            (7, [4, 3]), (5, [3, 2]), (6, [3, 3]),
        ]

    def test_repeats_reach_the_batcher_and_coalesce_in_the_resolver(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            async with await AsyncServerClient.connect(
                server.address, wire="binary"
            ) as client:
                responses = await client.query_many(
                    [(7, 40.0)] * 9 + [(5, 40.0)] * 7
                )
            await server.aclose()
            return responses, server.stats, server.registry.stats

        responses, stats, registry_stats = asyncio.run(scenario())
        assert [r["partition"] for r in responses] == [[4, 3]] * 9 + [[3, 2]] * 7
        # 16 queries on the wire and through the batcher, as a JSON line
        # counts them; the resolver prices 2 distinct cells
        assert stats.batched_queries == 16
        assert registry_stats.queries == registry_stats.memo_misses == 16
        assert registry_stats.coalesced == 14


class TestAuthToken:
    def test_binary_token_accepted_and_rejected(self, tmp_path):
        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860", auth_token="hunter2"
            )
            async with await AsyncServerClient.connect(
                server.address, wire="binary", auth_token="hunter2"
            ) as good:
                response = await good.query(7, 40.0)
            reader, writer = await open_stream(server.address)
            opcode, payload = await do_hello(reader, writer, token="wrong")
            at_eof = await reader.read(1) == b""
            writer.close()
            await server.aclose()
            return response, opcode, payload, at_eof, server.stats

        response, opcode, payload, at_eof, stats = asyncio.run(scenario())
        assert response["partition"] == [4, 3]
        assert opcode == wire.OP_ERROR and b"invalid auth token" in payload
        assert at_eof  # wrong token closes after the in-band answer
        assert stats.auth_failures == 1

    def test_json_requires_auth_op_first(self, tmp_path):
        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860", auth_token="hunter2"
            )
            reader, writer = await open_stream(server.address)
            writer.write(b'{"d": 7, "m": 40}\n')
            await writer.drain()
            refused = json.loads(await reader.readline())
            writer.write(b'{"op": "auth", "token": "hunter2", "id": 1}\n')
            await writer.drain()
            authed = json.loads(await reader.readline())
            writer.write(b'{"d": 7, "m": 40}\n')
            await writer.drain()
            answered = json.loads(await reader.readline())
            writer.close()
            await server.aclose()
            return refused, authed, answered

        refused, authed, answered = asyncio.run(scenario())
        assert not refused["ok"] and "authentication required" in refused["error"]
        assert authed == {"ok": True, "op": "auth", "id": 1}
        assert answered["ok"] and answered["partition"] == [4, 3]

    def test_json_wrong_token_closes_after_answer(self, tmp_path):
        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860", auth_token="hunter2"
            )
            reader, writer = await open_stream(server.address)
            writer.write(b'{"op": "auth", "token": "nope"}\n')
            await writer.drain()
            refused = json.loads(await reader.readline())
            at_eof = await reader.readline() == b""
            writer.close()
            await server.aclose()
            return refused, at_eof, server.stats

        refused, at_eof, stats = asyncio.run(scenario())
        assert not refused["ok"] and "invalid auth token" in refused["error"]
        assert at_eof
        assert stats.auth_failures == 1


class TestLoadShedding:
    def test_batcher_depth_sheds_with_retry_later(self, tmp_path):
        """Past the shed_queries high-water mark, query frames answer
        OP_RETRY_LATER; admitted ones still resolve."""

        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860",
                hold_us=200_000.0, shed_queries=2,
            )
            reader, writer = await open_stream(server.address)
            opcode, _ = await do_hello(reader, writer)
            assert opcode == wire.OP_HELLO_OK
            for i in range(6):
                writer.write(query_frame((0, 7, 40.0 + i)))
            await writer.drain()
            answers = [await wire.read_frame(reader) for _ in range(6)]
            writer.close()
            await server.aclose()
            return answers, server.stats

        answers, stats = asyncio.run(scenario())
        opcodes = [opcode for _, opcode, _ in answers]
        assert opcodes.count(wire.OP_RESULT) == 2  # admitted before the mark
        assert opcodes.count(wire.OP_RETRY_LATER) == 4
        retry_payloads = [
            payload for _, opcode, payload in answers
            if opcode == wire.OP_RETRY_LATER
        ]
        assert all(b"retry later" in p for p in retry_payloads)
        assert stats.shed == 4

    def test_json_shed_doc_carries_retry_flag(self, tmp_path):
        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860",
                hold_us=200_000.0, shed_queries=1,
            )
            async with await AsyncServerClient.connect(server.address) as client:
                responses = await client.query_many(
                    [{"d": 7, "m": 40.0 + i, "id": i} for i in range(4)]
                )
            await server.aclose()
            return responses

        responses = asyncio.run(scenario())
        shed = [r for r in responses if r.get("retry")]
        assert shed and all("server overloaded" in r["error"] for r in shed)
        assert all("id" in r for r in shed)  # request ids echo through
        assert any(r.get("ok") for r in responses)

    def test_inflight_bytes_high_water_sheds(self, tmp_path):
        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860", shed_bytes=1,
            )
            reader, writer = await open_stream(server.address)
            opcode, _ = await do_hello(reader, writer)
            assert opcode == wire.OP_HELLO_OK
            # with a 1-byte mark, every query frame's own admitted
            # bytes trip the gate
            writer.write(query_frame((0, 7, 40.0)))
            writer.write(query_frame((0, 7, 41.0)))
            await writer.drain()
            answers = [await wire.read_frame(reader) for _ in range(2)]
            writer.close()
            await server.aclose()
            return answers

        answers = asyncio.run(scenario())
        assert [opcode for _, opcode, _ in answers] == [wire.OP_RETRY_LATER] * 2


class TestStatsOp:
    def test_stats_report_latency_histogram_and_shed_counters(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            async with await AsyncServerClient.connect(
                server.address, wire="binary"
            ) as binary_client:
                await binary_client.query_many([(7, 40.0), (5, 40.0)])
            async with await AsyncServerClient.connect(server.address) as client:
                stats = await client.stats()
            await server.aclose()
            return stats

        stats = asyncio.run(scenario())
        server_section = stats["server"]
        for key in (
            "p50_us", "p99_us", "latency", "shed", "dropped",
            "auth_failures", "binary_connections", "inflight_bytes",
            "peak_inflight_bytes",
        ):
            assert key in server_section, key
        latency = server_section["latency"]
        assert latency["count"] >= 2  # the HELLO and the query frame
        assert latency["buckets"]
        assert sum(c for _, c in latency["buckets"]) == latency["count"]
        assert server_section["p99_us"] >= server_section["p50_us"] >= 0.0
        assert server_section["binary_connections"] == 1
        assert math.isfinite(latency["mean_us"])


class TestTinyJsonFallback:
    def test_lines_shorter_than_the_sniff_still_serve_json(self, tmp_path):
        """A 3-byte first line ("[]\\n") is shorter than the 4-byte
        magic sniff; the prefix replay must hand it to the JSON loop
        intact — including a second line split across the sniff."""

        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            reader, writer = await open_stream(server.address)
            writer.write(b"[]\n[]\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await server.aclose()
            return first, second

        first, second = asyncio.run(scenario())
        assert first == {"ok": True, "results": []}
        assert second == {"ok": True, "results": []}

    def test_tiny_line_then_eof(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            reader, writer = await open_stream(server.address)
            writer.write(b"[]\n")
            writer.write_eof()
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await server.aclose()
            return response

        response = asyncio.run(scenario())
        assert response == {"ok": True, "results": []}


class TestPipelinedClientsAgree:
    """64 pipelined clients over each wire (:mod:`tests.service.wire_workload`,
    the workload of ``benchmarks/test_bench_wire.py``)."""

    @pytest.fixture(scope="class")
    def shard_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("bench-wire-shards")
        wire_workload.save_shards(directory)
        return directory

    @pytest.fixture(scope="class")
    def binary_blobs(self, shard_dir):
        return wire_workload.binary_blobs(shard_dir)

    def test_bench_wire_answers_match_json_and_ground_truth(
        self, shard_dir, binary_blobs, tmp_path_factory
    ):
        """Both wires return the exact resolver answers, cell by cell."""
        raw_json, _ = asyncio.run(
            wire_workload.with_cold_server(
                shard_dir, wire_workload.server_address(tmp_path_factory),
                wire_workload.json_load,
            )
        )
        raw_binary, server = asyncio.run(
            wire_workload.with_cold_server(
                shard_dir, wire_workload.server_address(tmp_path_factory),
                wire_workload.binary_load(binary_blobs),
            )
        )
        json_answers = wire_workload.json_answers(raw_json)
        binary_answers = wire_workload.binary_answers(raw_binary)
        for k, queries in enumerate(wire_workload.WORKLOAD):
            expected = OptimizerRegistry.from_shards(shard_dir).resolve(
                [("ipsc860", d, m) for d, m in queries]
            )
            assert json_answers[k][0] == [e.partition for e in expected]
            assert binary_answers[k][0] == [e.partition for e in expected]
            assert json_answers[k][1] == [e.time_us for e in expected]
            assert binary_answers[k][1] == [e.time_us for e in expected]
        stats = server.stats
        assert stats.binary_connections == wire_workload.N_CLIENTS
        # the latency histogram saw every admitted frame
        assert stats.latency.count == stats.requests
        assert stats.p99_us > 0.0
