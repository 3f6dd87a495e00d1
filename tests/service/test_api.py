"""Tests for the unified client API: connect/aconnect, the
OptimizerClient protocol, and ServerConfig."""

from __future__ import annotations

import argparse
import asyncio

import pytest

from repro.service import (
    AsyncOptimizerClient,
    AsyncOptimizerServer,
    AsyncServerClient,
    OptimizerClient,
    OptimizerRegistry,
    ServerClient,
    ServerConfig,
    aconnect,
    connect,
)
from repro.service.api import CLUSTER_SCHEME

# a leaked client socket or a returning deprecation fails the module
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.filterwarnings("error::DeprecationWarning"),
]


@pytest.fixture(scope="module")
def registry():
    return OptimizerRegistry()


class TestConnect:
    def test_connect_returns_server_client(self, registry):
        async def scenario():
            server = await AsyncOptimizerServer(
                registry, ServerConfig(default_preset="ipsc860")
            ).start("127.0.0.1:0")
            try:
                loop = asyncio.get_running_loop()
                addr = str(server.address)

                def blocking():
                    with connect(addr) as client:
                        assert isinstance(client, ServerClient)
                        assert isinstance(client, OptimizerClient)
                        return client.query(7, 40.0)

                return await loop.run_in_executor(None, blocking)
            finally:
                await server.aclose()

        answer = asyncio.run(scenario())
        assert answer["ok"] and answer["partition"] == [4, 3]

    def test_aconnect_returns_async_client(self, registry):
        async def scenario():
            server = await AsyncOptimizerServer(
                registry, ServerConfig(default_preset="ipsc860")
            ).start("127.0.0.1:0")
            try:
                client = await aconnect(str(server.address))
                assert isinstance(client, AsyncServerClient)
                assert isinstance(client, AsyncOptimizerClient)
                try:
                    return await client.query(7, 40.0)
                finally:
                    await client.aclose()
            finally:
                await server.aclose()

        answer = asyncio.run(scenario())
        assert answer["ok"] and answer["partition"] == [4, 3]

    def test_cluster_scheme_selects_cluster_client(self):
        from repro.fabric import ClusterClient

        client = connect(f"{CLUSTER_SCHEME}127.0.0.1:1")
        assert isinstance(client, ClusterClient)
        assert isinstance(client, OptimizerClient)
        client.close()

    def test_retry_rejected_for_single_server_targets(self):
        from repro.fabric import RetryPolicy

        with pytest.raises(ValueError, match="cluster targets only"):
            connect("127.0.0.1:1", retry=RetryPolicy())
        with pytest.raises(ValueError, match="cluster targets only"):
            asyncio.run(aconnect("127.0.0.1:1", retry=RetryPolicy()))

    def test_cluster_clients_satisfy_protocols(self):
        from repro.fabric import AsyncClusterClient, ClusterClient

        # structural protocol checks need no live coordinator
        assert issubclass(ClusterClient, OptimizerClient)
        assert issubclass(AsyncClusterClient, AsyncOptimizerClient)


class TestServerConfig:
    def test_defaults_match_server(self, registry):
        async def scenario():
            return AsyncOptimizerServer(registry).config

        assert asyncio.run(scenario()) == ServerConfig()

    def test_kwargs_build_an_equivalent_config(self, registry):
        async def scenario():
            by_config = AsyncOptimizerServer(
                registry, ServerConfig(max_batch=8, shed_queries=16)
            )
            by_kwargs = AsyncOptimizerServer(registry, max_batch=8, shed_queries=16)
            return by_config.config, by_kwargs.config

        a, b = asyncio.run(scenario())
        assert a == b

    def test_config_and_kwargs_conflict(self, registry):
        async def scenario():
            with pytest.raises(ValueError, match="not both .*max_batch"):
                AsyncOptimizerServer(registry, ServerConfig(), max_batch=8)

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("max_batch", 0),
            ("hold_us", -1.0),
            ("max_queries", 0),
            ("max_line_bytes", 0),
            ("max_pipeline", 0),
            ("drain_timeout", -0.1),
            ("shed_queries", 0),
            ("shed_bytes", 0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServerConfig(**{field: value})

    def test_as_kwargs_round_trips(self):
        config = ServerConfig(max_batch=8, auth_token="s3cret", shed_bytes=1024)
        assert ServerConfig(**config.as_kwargs()) == config

    def test_from_flags(self):
        args = argparse.Namespace(
            max_batch=16, hold_us=None, auth_token="tok",
            shed_queries=None, shed_bytes=2048,
        )
        config = ServerConfig.from_flags(args, default_preset="ipsc860")
        assert config == ServerConfig(
            default_preset="ipsc860", max_batch=16, auth_token="tok",
            shed_bytes=2048,
        )

    def test_from_flags_empty_namespace_is_defaults(self):
        assert ServerConfig.from_flags(argparse.Namespace()) == ServerConfig()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServerConfig().max_batch = 1  # type: ignore[misc]
