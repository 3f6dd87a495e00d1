"""Cluster-client failover tests against scripted flaky servers.

The servers here speak the JSON data plane but follow a per-connection
*script* — answer, shed, cut the connection mid-pipeline, go silent,
or refuse outright — so every failover path is driven
deterministically, on both drivers of the route/commit/retry loop
(:class:`ClusterClient` and :class:`AsyncClusterClient`).  The
invariant under test throughout: **exactly one answer per query**,
whatever the replicas do — a cut pipeline re-runs its whole group on
the next replica, shed queries stay pending, and nothing is duplicated
or lost.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import Counter, deque

import pytest

from repro.fabric import (
    AsyncClusterClient,
    ClusterClient,
    RetryPolicy,
    RouteError,
    RoutingTable,
    StaticRoutes,
)

# a leaked client socket or a returning deprecation fails the module
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.filterwarnings("error::DeprecationWarning"),
]

#: twelve queries over distinct shard keys so both replicas get groups
QUERIES = [(d, 100.0 + d) for d in range(1, 13)]
EXPECTED_MS = sorted(m for _, m in QUERIES)


class ScriptedServer:
    """A JSON-lines optimizer server whose behavior per *connection* is
    scripted: ``ok`` answers everything, ``shed_all`` answers
    ``{"retry": true}``, ``drop_mid`` cuts the socket after one answer
    (mid-pipeline), ``silent`` reads everything and answers nothing,
    ``refuse`` closes before reading anything."""

    def __init__(self, name: str, script: list[str]) -> None:
        self.name = name
        self.script: deque[str] = deque(script)
        self.address = ""
        self.answered: list[float] = []  # every ok answer written (by m)
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        host, port = self._server.sockets[0].getsockname()[:2]
        self.address = f"{host}:{port}"

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        behavior = self.script.popleft() if self.script else "ok"
        answered = 0
        try:
            if behavior == "refuse":
                return
            if behavior == "silent":
                while await reader.read(65536):
                    pass
                return
            while True:
                line = await reader.readline()
                if not line:
                    return
                doc = json.loads(line)
                if behavior == "drop_mid" and answered >= 1:
                    return  # cut with answers still owed: mid-pipeline drop
                if behavior == "shed_all":
                    answer = {"ok": False, "retry": True, "error": "overloaded"}
                else:
                    answer = {
                        "ok": True, "d": doc["d"], "m": doc["m"],
                        "server": self.name,
                    }
                    self.answered.append(doc["m"])
                writer.write(json.dumps(answer).encode() + b"\n")
                await writer.drain()
                answered += 1
        finally:
            writer.close()


class ScriptedCluster:
    """Two scripted servers on a background event loop, plus the
    :class:`StaticRoutes` table that makes them a 2-replica cluster."""

    def __init__(self, script_a: list[str], script_b: list[str]) -> None:
        self.a = ScriptedServer("A", script_a)
        self.b = ScriptedServer("B", script_b)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)

    def __enter__(self) -> "ScriptedCluster":
        self._thread.start()
        for server in (self.a, self.b):
            asyncio.run_coroutine_threadsafe(server.start(), self._loop).result(5)
        return self

    def __exit__(self, *exc_info) -> None:
        for server in (self.a, self.b):
            asyncio.run_coroutine_threadsafe(server.stop(), self._loop).result(5)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(5)
        self._loop.close()

    def routes(self) -> StaticRoutes:
        return StaticRoutes(RoutingTable(
            epoch=1, replication=2,
            nodes=(("A", self.a.address), ("B", self.b.address)),
            presets=("ipsc860",), default_preset="ipsc860",
        ))


FAST_RETRY = RetryPolicy(attempts=4, base_delay_s=0.001, max_delay_s=0.01)


def assert_exactly_once(results: list[dict]) -> None:
    assert sorted(r["m"] for r in results) == EXPECTED_MS
    assert all(r["ok"] for r in results)


#: a scenario still running after this long has hung (a test failure)
SCENARIO_BOUND_S = 10.0


class AsyncDriven:
    """An :class:`AsyncClusterClient` behind the blocking surface, each
    call run to completion on a private event loop, so one scenario
    reads the same on both drivers."""

    def __init__(self, routes: StaticRoutes, **kwargs) -> None:
        self._loop = asyncio.new_event_loop()
        self._client = AsyncClusterClient(routes, **kwargs)

    def _call(self, coro):
        return self._loop.run_until_complete(
            asyncio.wait_for(coro, SCENARIO_BOUND_S)
        )

    @property
    def table(self) -> RoutingTable:
        return self._call(self._client.refresh())

    def query(self, d, m, **kwargs) -> dict:
        return self._call(self._client.query(d, m, **kwargs))

    def query_many(self, queries, **kwargs) -> list[dict]:
        return self._call(self._client.query_many(queries, **kwargs))

    def stats(self) -> dict:
        return self._call(self._client.stats())

    def presets(self) -> list[str]:
        return self._call(self._client.presets())

    def close(self) -> None:
        self._call(self._client.aclose())
        self._loop.close()

    def __enter__(self) -> "AsyncDriven":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@pytest.fixture(params=["sync", "async"])
def cluster_client(request):
    """``cluster_client(routes, **kwargs)`` builds the cluster client
    on the parametrized driver."""
    if request.param == "sync":
        return ClusterClient
    return AsyncDriven


class TestFailover:
    def test_happy_path_spreads_over_both_replicas(self, cluster_client):
        with ScriptedCluster(["ok"], ["ok"]) as cluster:
            with cluster_client(cluster.routes(), retry=FAST_RETRY) as client:
                results = client.query_many(QUERIES)
            assert_exactly_once(results)
            by_server = Counter(r["server"] for r in results)
            assert set(by_server) == {"A", "B"}  # both primaries used
            # the cluster served each query exactly once in total
            assert sorted(cluster.a.answered + cluster.b.answered) == EXPECTED_MS

    def test_mid_pipeline_drop_rolls_whole_group_to_replica(self, cluster_client):
        with ScriptedCluster(["drop_mid", "ok"], ["ok"]) as cluster:
            with cluster_client(cluster.routes(), retry=FAST_RETRY) as client:
                results = client.query_many(QUERIES)
            assert_exactly_once(results)
            # A answered one query before the cut; the client must have
            # discarded it and re-run the *whole* group elsewhere, so the
            # one orphan is the only double-serve — and no client-visible
            # answer is duplicated or lost (assert_exactly_once above).
            orphans = [m for m in cluster.a.answered if m not in
                       [r["m"] for r in results if r["server"] == "A"]]
            assert len(orphans) <= 1

    def test_shed_queries_retry_on_next_replica(self, cluster_client):
        with ScriptedCluster(["shed_all", "ok"], ["ok"]) as cluster:
            with cluster_client(cluster.routes(), retry=FAST_RETRY) as client:
                results = client.query_many(QUERIES)
            assert_exactly_once(results)
            # everything A shed was answered exactly once, by someone
            assert sorted(cluster.a.answered + cluster.b.answered) == EXPECTED_MS

    def test_silent_replica_times_out_and_fails_over(self, cluster_client):
        with ScriptedCluster(["silent", "ok"], ["ok"]) as cluster:
            with cluster_client(
                cluster.routes(), retry=FAST_RETRY, timeout=0.3
            ) as client:
                results = client.query_many(QUERIES)
            assert_exactly_once(results)
            assert sorted(cluster.a.answered + cluster.b.answered) == EXPECTED_MS

    def test_total_refusal_exhausts_retry_budget(self, cluster_client):
        script = ["refuse"] * 10
        with ScriptedCluster(list(script), list(script)) as cluster:
            client = cluster_client(
                cluster.routes(),
                retry=RetryPolicy(attempts=2, base_delay_s=0.001, max_delay_s=0.01),
            )
            with pytest.raises(RouteError, match="unanswered after 2 attempts"):
                client.query_many(QUERIES)
            client.close()

    def test_stale_routes_refresh_after_failure(self, cluster_client):
        """First table points at a dead port; the post-failure forced
        refresh must pick up the new epoch and succeed."""
        with ScriptedCluster(["ok", "ok"], ["ok", "ok"]) as cluster:
            routes = cluster.routes()
            live = routes.table(None)
            dead = RoutingTable(
                epoch=1, replication=2,
                nodes=(("A", "127.0.0.1:1"), ("B", "127.0.0.1:1")),
                presets=("ipsc860",), default_preset="ipsc860",
            )
            routes.set(dead)
            client = cluster_client(routes, retry=FAST_RETRY)
            assert client.table.epoch == 1
            routes.set(RoutingTable(
                epoch=2, replication=2, nodes=live.nodes,
                presets=live.presets, default_preset=live.default_preset,
            ))
            results = client.query_many(QUERIES)
            assert_exactly_once(results)
            assert client.table.epoch == 2
            client.close()

    def test_empty_query_list(self, cluster_client):
        with ScriptedCluster(["ok"], ["ok"]) as cluster:
            with cluster_client(cluster.routes(), retry=FAST_RETRY) as client:
                assert client.query_many([]) == []

    def test_single_query_and_presets(self, cluster_client):
        with ScriptedCluster(["ok"], ["ok"]) as cluster:
            with cluster_client(cluster.routes(), retry=FAST_RETRY) as client:
                answer = client.query(7, 40.0)
                assert answer["ok"] and answer["m"] == 40.0
                assert client.presets() == ["ipsc860"]
                assert client.stats()["cluster"]["epoch"] == 1

    @pytest.mark.parametrize("frame_queries", [0, 4])
    def test_json_wire_rejects_frame_queries(self, cluster_client, frame_queries):
        with ScriptedCluster(["ok"], ["ok"]) as cluster:
            with cluster_client(cluster.routes(), retry=FAST_RETRY) as client:
                with pytest.raises(ValueError, match="binary wire only"):
                    client.query_many(QUERIES, frame_queries=frame_queries)
            assert cluster.a.answered == cluster.b.answered == []


class TestRetryPolicy:
    def test_deterministic_capped_backoff(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.05, max_delay_s=0.3)
        assert [policy.delay_s(i) for i in range(4)] == [0.05, 0.1, 0.2, 0.3]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay_s": -0.1},
            {"base_delay_s": 1.0, "max_delay_s": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)
