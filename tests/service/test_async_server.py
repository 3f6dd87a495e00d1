"""Tests for the asyncio socket transport and its micro-batcher."""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.service.async_server import AsyncOptimizerServer
from repro.service.client import AsyncServiceClient
from repro.service.registry import OptimizerRegistry
from repro.service.server import handle_request
from tests.service.protocol_cases import CASE_IDS, CASE_MAX_QUERIES, ERROR_CASES, VALID_LINE

HAS_UNIX = hasattr(socket, "AF_UNIX")


def sock_address(tmp_path):
    """A unix path where available (deterministic loopback), else TCP."""
    if HAS_UNIX:
        return f"unix:{tmp_path / 'server.sock'}"
    return "127.0.0.1:0"


async def started_server(tmp_path, registry=None, **kwargs):
    server = AsyncOptimizerServer(
        registry if registry is not None else OptimizerRegistry(), **kwargs
    )
    await server.start(sock_address(tmp_path))
    return server


class TestSingleClient:
    def test_roundtrip_matches_stdio_semantics(self, tmp_path):
        """The socket answer is the stdio answer, field for field."""

        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            async with await AsyncServiceClient.connect(server.address) as client:
                response = await client.request({"d": 7, "m": 40, "id": 9})
            await server.aclose()
            return response

        response = asyncio.run(scenario())
        expected = json.loads(handle_request(
            {"d": 7, "m": 40, "id": 9}, OptimizerRegistry(), default_preset="ipsc860"
        ))
        assert response == expected
        assert response["partition"] == [4, 3] and response["id"] == 9

    def test_pipelined_responses_come_back_in_request_order(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            async with await AsyncServiceClient.connect(server.address) as client:
                responses = await client.query_many(
                    [{"d": 5 + (i % 3), "m": 1.0 + i, "id": i} for i in range(30)]
                )
            await server.aclose()
            return responses, server

        responses, server = asyncio.run(scenario())
        assert [r["id"] for r in responses] == list(range(30))
        assert all(r["ok"] for r in responses)
        assert server.stats.requests == 30 and server.stats.responses == 30

    def test_batch_and_bare_array_forms(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            async with await AsyncServiceClient.connect(server.address) as client:
                wrapped = await client.request(
                    {"queries": [{"d": 7, "m": 40}, {"d": 5, "m": 40}], "id": 3}
                )
                bare_line = json.dumps([{"d": 7, "m": 40}])
                client._writer.write(bare_line.encode() + b"\n")
                await client._writer.drain()
                bare = await client._read_response()
            await server.aclose()
            return wrapped, bare

        wrapped, bare = asyncio.run(scenario())
        assert wrapped["ok"] and wrapped["id"] == 3
        assert [r["partition"] for r in wrapped["results"]] == [[4, 3], [3, 2]]
        assert bare["ok"] and bare["results"][0]["source"] == "memo"


class TestCrossClientBatching:
    def test_one_write_two_queries_coalesce_into_one_flush(self, tmp_path):
        """Two pipelined queries arrive in one segment, so both are
        admitted in the same event-loop turn — exactly one batch."""

        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            async with await AsyncServiceClient.connect(server.address) as client:
                responses = await client.query_many([(7, 40.0), (7, 80.0)])
            await server.aclose()
            return responses, server

        responses, server = asyncio.run(scenario())
        assert all(r["ok"] for r in responses)
        assert server.stats.batches == 1
        assert server.stats.peak_batch_queries == 2
        # the flush fired at the end of the admission turn, not because
        # a hold window expired
        assert server.stats.flushes_drain == 1
        assert server.stats.flushes_timer == 0

    def test_hold_window_gathers_occupancy_across_turns(self, tmp_path):
        """With ``hold_us > 0`` the batch waits out the window, so two
        *separate* round-trip-spaced writes still share one flush."""

        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860", hold_us=100_000.0
            )
            async with await AsyncServiceClient.connect(server.address) as client:
                client._writer.write(b'{"d": 7, "m": 40, "id": 1}\n')
                await client._writer.drain()
                await asyncio.sleep(0.01)  # a later turn, well inside the hold
                client._writer.write(b'{"d": 7, "m": 80, "id": 2}\n')
                await client._writer.drain()
                first = await client._read_response()
                second = await client._read_response()
            await server.aclose()
            return first, second, server

        first, second, server = asyncio.run(scenario())
        assert first["ok"] and second["ok"]
        assert server.stats.batches == 1
        assert server.stats.peak_batch_queries == 2
        assert server.stats.flushes_timer == 1

    def test_eight_concurrent_clients_share_batches(self, tmp_path):
        n_clients, per_client = 8, 10

        async def scenario():
            registry = OptimizerRegistry()
            server = await started_server(tmp_path, registry=registry)

            async def one_client(k):
                async with await AsyncServiceClient.connect(server.address) as client:
                    return await client.query_many(
                        [("ipsc860", 7, 1.0 + k * per_client + i) for i in range(per_client)]
                    )

            answers = await asyncio.gather(*[one_client(k) for k in range(n_clients)])
            await server.aclose()
            return answers, server

        answers, server = asyncio.run(scenario())
        flat = [r for per in answers for r in per]
        assert len(flat) == n_clients * per_client and all(r["ok"] for r in flat)
        # ground truth from a fresh registry
        expected = OptimizerRegistry().resolve(
            [("ipsc860", r["d"], r["m"]) for r in flat]
        )
        assert [r["partition"] for r in flat] == [list(e.partition) for e in expected]
        assert [r["time_us"] for r in flat] == [e.time_us for e in expected]
        # cross-client coalescing actually happened
        stats = server.stats
        assert stats.batched_queries == n_clients * per_client
        assert stats.batches <= (n_clients * per_client) // 2
        assert stats.peak_batch_queries > 1

    def test_pipelined_clients_answer_like_serial_requests(self, tmp_path):
        """Cross-client batching changes how many flushes price the
        cells, not the answers: 8 pipelined clients on a cold
        shard-backed server get the partitions, times and sources one
        strictly serial client gets from another cold server.  Half the
        block sizes are beyond the shards' 400 B sweep bound."""
        shard_dir = tmp_path / "shards"
        OptimizerRegistry().save_shards(shard_dir, presets=["ipsc860"], dims=(5, 6, 7))
        n_clients, per_client = 8, 10
        lines = [
            json.dumps({"d": 5 + i % 3, "m": (400.97 if i % 2 else 0.97) + 0.97 * i})
            .encode() + b"\n"
            for i in range(n_clients * per_client)
        ]

        async def cold(name, drive):
            server = AsyncOptimizerServer(
                OptimizerRegistry.from_shards(shard_dir), default_preset="ipsc860"
            )
            await server.start(sock_address(tmp_path / name))
            try:
                return await drive(server), server
            finally:
                await server.aclose()

        async def send(server, requests):
            """Write ``requests`` (lists of lines) one list at a time,
            each after the previous list's answers are read."""
            address = server.address
            if address.kind == "unix":
                reader, writer = await asyncio.open_unix_connection(address.path)
            else:
                reader, writer = await asyncio.open_connection(address.host, address.port)
            answers = []
            for chunk in requests:
                writer.write(b"".join(chunk))
                await writer.drain()
                answers += [json.loads(await reader.readline()) for _ in chunk]
            writer.close()
            await writer.wait_closed()
            return answers

        async def serial(server):
            return await send(server, [[line] for line in lines])

        async def pipelined(server):
            per = await asyncio.gather(*[
                send(server, [lines[k * per_client:(k + 1) * per_client]])
                for k in range(n_clients)
            ])
            return [r for answers in per for r in answers]

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        one_by_one, serial_server = asyncio.run(cold("a", serial))
        batched, batched_server = asyncio.run(cold("b", pipelined))
        assert all(r["ok"] for r in one_by_one)
        assert batched == one_by_one
        assert {r["source"] for r in batched} == {"grid", "pool"}
        assert serial_server.stats.batches == len(lines)
        assert batched_server.stats.batches < len(lines) // 2

    def test_max_batch_triggers_size_flush(self, tmp_path):
        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860", max_batch=4
            )
            async with await AsyncServiceClient.connect(server.address) as client:
                await client.query_many([(5, 1.0 + i) for i in range(8)])
            await server.aclose()
            return server

        server = asyncio.run(scenario())
        assert server.stats.flushes_size >= 1
        assert server.stats.peak_batch_queries <= 8


class TestOps:
    def test_stats_op_reports_registry_and_server(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            async with await AsyncServiceClient.connect(server.address) as client:
                await client.query(7, 40)
                stats = await client.stats()
                presets = await client.presets()
            await server.aclose()
            return stats, presets

        stats, presets = asyncio.run(scenario())
        assert stats["ok"] and stats["op"] == "stats"
        assert stats["stats"]["queries"] == 1  # the registry section
        server_section = stats["server"]  # socket transport addition
        assert server_section["connections_active"] == 1
        assert server_section["batches"] == 1
        assert presets == ["hypothetical", "ipsc860"]


class TestShutdownAndDrain:
    def test_shutdown_op_acks_then_drains(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, default_preset="ipsc860")
            client = await AsyncServiceClient.connect(server.address)
            # pipelined work and the shutdown on one connection: every
            # response precedes the ack, strictly in order
            docs = [{"d": 7, "m": 40, "id": 1}, {"d": 5, "m": 8, "id": 2}, {"op": "shutdown"}]
            await client._write_lines(docs)
            responses = [await client._read_response() for _ in docs]
            await asyncio.wait_for(server.wait_closed(), timeout=10)
            refused = None
            try:
                await AsyncServiceClient.connect(server.address)
            except OSError as exc:
                refused = exc
            await client.aclose()
            return responses, refused, server

        responses, refused, server = asyncio.run(scenario())
        assert [r.get("id") for r in responses[:2]] == [1, 2]
        assert all(r["ok"] for r in responses)
        assert responses[2]["op"] == "shutdown" and responses[2]["draining"]
        assert refused is not None  # nothing listens after the drain
        assert server.stats.connections_closed == server.stats.connections_opened
        assert server.stats.in_flight == 0

    def test_drain_answers_admitted_requests_after_client_half_close(self, tmp_path):
        """A connection whose read loop already ended (client EOF) still
        gets every admitted response during aclose(): the drain cancel
        must not tear down the response writer mid-queue."""

        async def scenario():
            # a long hold window parks the admitted queries un-resolved,
            # so aclose() arrives while the writer is still waiting
            server = await started_server(
                tmp_path, default_preset="ipsc860", hold_us=250_000.0
            )
            client = await AsyncServiceClient.connect(server.address)
            client._writer.write(
                b'{"d": 7, "m": 40, "id": 1}\n{"d": 5, "m": 8, "id": 2}\n'
            )
            await client._writer.drain()
            client._writer.write_eof()  # half-close: no more requests
            await asyncio.sleep(0.05)  # server admits both, then parks
            await asyncio.wait_for(server.aclose(), timeout=10)
            responses = [await client._read_response() for _ in range(2)]
            eof = await client._reader.readline()
            await client.aclose()
            return responses, eof, server

        responses, eof, server = asyncio.run(scenario())
        assert [r["id"] for r in responses] == [1, 2]
        assert all(r["ok"] for r in responses)
        assert eof == b""
        assert server.stats.responses == 2 and server.stats.in_flight == 0

    def test_aclose_terminates_when_client_never_reads(self, tmp_path):
        """A client that pipelines forever and reads nothing fills the
        socket buffers; shutdown must still finish — the drain waits
        ``drain_timeout`` for that connection, then drops its backlog
        (and the pipelining window keeps the backlog bounded)."""

        async def scenario():
            server = await started_server(
                tmp_path,
                default_preset="ipsc860",
                max_pipeline=64,
                drain_timeout=0.2,
            )
            client = await AsyncServiceClient.connect(server.address)
            # several MB of eventual responses, far beyond socket and
            # transport buffers, written without ever reading one
            line = json.dumps({"queries": [{"d": 7, "m": 40.0}] * 200}).encode() + b"\n"
            client._writer.write(line * 100)
            await asyncio.sleep(0.2)  # let the server admit and stall
            await asyncio.wait_for(server.aclose(), timeout=10)
            await client.aclose()
            return server

        server = asyncio.run(scenario())
        assert server.stats.connections_closed == server.stats.connections_opened
        # the gauge reconciles even for responses that were dropped
        assert server.stats.in_flight == 0
        # backpressure really kicked in: the pipelining window stopped
        # admission well before the 100 requests the client wrote
        assert server.stats.requests < 100

    def test_aclose_is_idempotent(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            await server.aclose()
            await server.aclose()
            return server

        server = asyncio.run(scenario())
        assert server.stats.connections_opened == 0

    def test_unix_socket_file_removed_on_close(self, tmp_path):
        if not HAS_UNIX:
            pytest.skip("no unix sockets on this platform")
        path = tmp_path / "server.sock"

        async def scenario():
            server = await started_server(tmp_path)
            assert path.exists()
            await server.aclose()

        asyncio.run(scenario())
        assert not path.exists()


class TestSharedErrorPaths:
    """The transport-independent error table, over a socket.

    Mirrors ``TestSharedErrorPaths`` in ``test_server.py`` — the stdio
    loop and this transport must answer malformed traffic identically.
    """

    @pytest.mark.parametrize("case_id,line,needle", ERROR_CASES, ids=CASE_IDS)
    def test_error_then_keep_serving(self, tmp_path, case_id, line, needle):
        async def scenario():
            server = await started_server(
                tmp_path, max_queries=CASE_MAX_QUERIES
            )
            async with await AsyncServiceClient.connect(server.address) as client:
                client._writer.write(line.encode() + b"\n" + VALID_LINE.encode() + b"\n")
                await client._writer.drain()
                first = await client._read_response()
                second = await client._read_response()
            await server.aclose()
            return first, second

        first, second = asyncio.run(scenario())
        assert not first["ok"], case_id
        assert needle in first["error"], first["error"]
        # the connection survives every malformed request
        assert second["ok"] and second["partition"] == [4, 3]

    def test_error_text_identical_to_stdio(self, tmp_path):
        """Not just 'an error': the same error documents, byte for byte."""

        async def scenario():
            server = await started_server(tmp_path, max_queries=CASE_MAX_QUERIES)
            async with await AsyncServiceClient.connect(server.address) as client:
                responses = []
                for _, line, _ in ERROR_CASES:
                    client._writer.write(line.encode() + b"\n")
                    await client._writer.drain()
                    responses.append(await client._read_response())
            await server.aclose()
            return responses

        socket_responses = asyncio.run(scenario())
        registry = OptimizerRegistry()
        for (case_id, line, _), got in zip(ERROR_CASES, socket_responses):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                expected = {"ok": False, "error": f"invalid JSON: {exc}"}
            else:
                expected = json.loads(handle_request(
                    obj, registry, max_queries=CASE_MAX_QUERIES
                ))
            assert got == expected, case_id


class TestTransportLimits:
    def test_overlong_line_answers_in_band_then_closes(self, tmp_path):
        async def scenario():
            server = await started_server(
                tmp_path, default_preset="ipsc860", max_line_bytes=1024
            )
            async with await AsyncServiceClient.connect(server.address) as client:
                client._writer.write(b'{"d": 7, "m": ' + b"1" * 4096 + b"}\n")
                await client._writer.drain()
                response = await client._read_response()
                eof = await client._reader.readline()
            await server.aclose()
            return response, eof

        response, eof = asyncio.run(scenario())
        assert not response["ok"] and "exceeds" in response["error"]
        assert eof == b""  # framing is gone, so the server hung up
