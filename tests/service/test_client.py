"""Tests for the sync/async client library and address parsing."""

from __future__ import annotations

import asyncio
import contextlib
import gc
import socket
import threading

import pytest

from repro.fabric import fetch_status
from repro.service import OptimizerRegistry
from repro.service.async_server import run_server
from repro.service.client import (
    Address,
    AsyncServerClient,
    ServerClient,
    ServiceError,
    parse_address,
)

# a leaked client socket or a returning deprecation fails the module
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.filterwarnings("error::DeprecationWarning"),
]


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.1.2.3:7831") == Address("tcp", host="10.1.2.3", port=7831)

    def test_bare_port_binds_loopback(self):
        assert parse_address(":7831") == Address("tcp", host="127.0.0.1", port=7831)

    def test_unix_prefix(self):
        addr = parse_address("unix:/tmp/x.sock")
        assert addr.kind == "unix" and addr.path == "/tmp/x.sock"
        assert str(addr) == "unix:/tmp/x.sock"

    def test_bare_path_is_unix(self):
        assert parse_address("/var/run/repro.sock").kind == "unix"

    def test_address_passthrough(self):
        addr = Address("tcp", host="h", port=1)
        assert parse_address(addr) is addr

    @pytest.mark.parametrize(
        "bad",
        ["", "localhost", "host:notaport", "host:70000", "unix:"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_tcp_str_roundtrips(self):
        assert str(parse_address("127.0.0.1:7831")) == "127.0.0.1:7831"


@contextlib.contextmanager
def serving(auth_token=None):
    """One socket server on a background thread for the sync client."""
    holder: dict = {}
    started = threading.Event()

    def runner():
        registry = OptimizerRegistry()

        def ready(server):
            holder["address"] = str(server.address)
            started.set()

        holder["stats"] = run_server(
            registry,
            "127.0.0.1:0",
            default_preset="ipsc860",
            auth_token=auth_token,
            install_signal_handlers=False,
            ready=ready,
        )

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(10), "server never came up"
    yield holder["address"]
    if thread.is_alive():
        with contextlib.suppress(Exception):
            with ServerClient(holder["address"], auth_token=auth_token) as client:
                client.shutdown()
        thread.join(10)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def live_server():
    with serving() as address:
        yield address


@pytest.fixture(scope="module")
def guarded_server():
    """A server that requires the token ``s3cret``."""
    with serving(auth_token="s3cret") as address:
        yield address


@pytest.fixture
def silent_server():
    """A TCP listener that never accepts: connects complete in the
    kernel's backlog, and nothing is ever read or answered."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        host, port = listener.getsockname()
        yield f"{host}:{port}"


class TestServerClient:
    def test_query(self, live_server):
        with ServerClient(live_server) as client:
            response = client.query(7, 40)
        assert response["partition"] == [4, 3]
        assert response["preset"] == "ipsc860"

    def test_query_preset_override(self, live_server):
        with ServerClient(live_server) as client:
            response = client.query(6, 24, preset="hypothetical")
        assert response["partition"] == [3, 3]

    def test_query_error_raises(self, live_server):
        with ServerClient(live_server) as client:
            with pytest.raises(ServiceError, match="unknown machine preset"):
                client.query(7, 40, preset="cray")

    def test_query_many_pipelines_in_order(self, live_server):
        queries = [(5, 10.0 * i + 1) for i in range(20)]
        with ServerClient(live_server) as client:
            responses = client.query_many(queries)
        assert len(responses) == 20
        assert all(r["ok"] for r in responses)
        assert [r["m"] for r in responses] == [m for _, m in queries]

    def test_query_many_accepts_triples_and_dicts(self, live_server):
        with ServerClient(live_server) as client:
            responses = client.query_many(
                [("hypothetical", 6, 24.0), {"d": 7, "m": 40, "id": "x"}],
            )
        assert responses[0]["preset"] == "hypothetical"
        assert responses[1]["id"] == "x"

    def test_query_many_empty_is_noop(self, live_server):
        with ServerClient(live_server) as client:
            assert client.query_many([]) == []

    def test_binary_query_many_empty_is_noop(self, live_server):
        with ServerClient(live_server, wire="binary") as client:
            assert client.query_many([]) == []

    def test_query_many_rejects_garbage_shape(self, live_server):
        with ServerClient(live_server) as client:
            with pytest.raises(ValueError, match="query must be"):
                client.query_many([(1, 2, 3, 4)])

    def test_stats_and_presets(self, live_server):
        with ServerClient(live_server) as client:
            client.query(7, 40)
            stats = client.stats()
            presets = client.presets()
        assert stats["stats"]["queries"] >= 1
        assert stats["server"]["connections_opened"] >= 1
        assert "ipsc860" in presets

    def test_works_inside_a_running_event_loop(self, live_server):
        async def scenario():
            with ServerClient(live_server) as client:
                return client.query(7, 40)

        assert asyncio.run(scenario())["partition"] == [4, 3]

    def test_connection_refused_is_an_oserror(self):
        with pytest.raises(OSError):
            ServerClient("127.0.0.1:1", timeout=0.5)

    def test_json_wire_rejects_frame_queries(self, live_server):
        with ServerClient(live_server) as client:
            with pytest.raises(ValueError, match="binary wire only"):
                client.query_many([(7, 40)], frame_queries=1)


def run_bounded(coro, bound_s=5.0):
    """Run ``coro``; its exception or result, or a note that it was
    still waiting after ``bound_s`` (the coroutine is cancelled)."""

    async def scenario():
        task = asyncio.ensure_future(coro)
        await asyncio.wait({task}, timeout=bound_s)
        if not task.done():
            task.cancel()
            return f"still waiting after {bound_s} s"
        return task.exception() or task.result()

    return asyncio.run(scenario())


@pytest.mark.parametrize("wire", ["json", "binary"])
class TestReadTimeout:
    """``timeout`` bounds every read, not only the connect: a server
    that accepts and then goes silent fails the call within it."""

    def test_sync_client(self, silent_server, wire):
        with pytest.raises(TimeoutError):
            with ServerClient(silent_server, timeout=0.3, wire=wire) as client:
                client.query(7, 40)

    def test_async_client(self, silent_server, wire):
        async def ask():
            async with await AsyncServerClient.connect(
                silent_server, timeout=0.3, wire=wire
            ) as client:
                return await client.query(7, 40)

        outcome = run_bounded(ask())
        assert isinstance(outcome, TimeoutError), outcome


class TestFailedConnectCloses:
    """A client that fails to connect or negotiate closes its socket;
    the module's warning filters turn a leaked one into a failure."""

    def test_refused_unix_path(self, tmp_path):
        with pytest.raises(OSError):
            ServerClient(f"unix:{tmp_path / 'nope.sock'}")
        gc.collect()

    def test_refused_control_request(self, tmp_path):
        with pytest.raises(OSError):
            fetch_status(f"unix:{tmp_path / 'nope.sock'}")
        gc.collect()

    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_rejected_token_sync(self, guarded_server, wire):
        with pytest.raises(ServiceError, match="invalid auth token"):
            ServerClient(guarded_server, wire=wire, auth_token="wrong")
        gc.collect()

    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_rejected_token_async(self, guarded_server, wire):
        outcome = run_bounded(AsyncServerClient.connect(
            guarded_server, wire=wire, auth_token="wrong"
        ))
        assert isinstance(outcome, ServiceError), outcome
        assert "invalid auth token" in str(outcome)
        del outcome
        gc.collect()

    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_accepted_token_answers(self, guarded_server, wire):
        with ServerClient(guarded_server, wire=wire, auth_token="s3cret") as client:
            assert client.query(7, 40)["partition"] == [4, 3]
