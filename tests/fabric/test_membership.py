"""Membership/liveness tests against a fake clock.

:class:`~repro.fabric.membership.Membership` takes its clock by
injection, so every liveness transition — miss-K death, resurrection,
drain, clean leave — is tested here without sleeping.
"""

from __future__ import annotations

import pytest

from repro.fabric.membership import Membership, NodeInfo


class FakeClock:
    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def membership(clock):
    return Membership(replication=2, heartbeat_s=1.0, miss_limit=3, now=clock)


class TestLifecycle:
    def test_join_bumps_epoch_and_routes(self, membership):
        assert membership.epoch == 0
        membership.join("n0", "127.0.0.1:1", presets=["ipsc860"], default_preset="ipsc860")
        assert membership.epoch == 1
        table = membership.routing_table()
        assert table.epoch == 1
        assert table.nodes == (("n0", "127.0.0.1:1"),)
        assert table.default_preset == "ipsc860"

    def test_join_validates_identity(self, membership):
        with pytest.raises(ValueError):
            membership.join("", "127.0.0.1:1")
        with pytest.raises(ValueError):
            membership.join("n0", "")

    def test_routing_table_cached_per_epoch(self, membership):
        membership.join("n0", "127.0.0.1:1")
        assert membership.routing_table() is membership.routing_table()
        membership.join("n1", "127.0.0.1:2")
        assert membership.routing_table().epoch == 2

    def test_heartbeat_unknown_node_raises(self, membership):
        with pytest.raises(KeyError):
            membership.heartbeat("ghost")

    def test_sweep_declares_silent_nodes_dead(self, membership, clock):
        membership.join("n0", "127.0.0.1:1")
        membership.join("n1", "127.0.0.1:2")
        epoch = membership.epoch
        clock.advance(2.9)  # inside the 3 * 1.0 s window
        membership.heartbeat("n1")
        assert membership.sweep() == []
        clock.advance(0.2)  # n0 is now 3.1 s silent, n1 only 0.2 s
        assert membership.sweep() == ["n0"]
        assert membership.get("n0").state == "dead"
        assert membership.get("n1").state == "alive"
        assert membership.epoch == epoch + 1
        assert membership.routing_table().nodes == (("n1", "127.0.0.1:2"),)

    def test_heartbeat_resurrects_a_dead_node(self, membership, clock):
        membership.join("n0", "127.0.0.1:1")
        clock.advance(10.0)
        membership.sweep()
        assert membership.get("n0").state == "dead"
        epoch = membership.epoch
        membership.heartbeat("n0")
        assert membership.get("n0").state == "alive"
        assert membership.epoch == epoch + 1

    def test_drain_then_disconnect_is_a_clean_leave(self, membership):
        membership.join("n0", "127.0.0.1:1")
        membership.join("n1", "127.0.0.1:2")
        info = membership.drain("n0")
        assert info.state == "draining"
        # draining nodes are unroutable immediately
        assert membership.routing_table().nodes == (("n1", "127.0.0.1:2"),)
        epoch = membership.epoch
        membership.drain("n0")  # idempotent: no second bump
        assert membership.epoch == epoch
        membership.connection_lost("n0")
        assert membership.get("n0").state == "left"

    def test_disconnect_without_drain_is_death(self, membership):
        membership.join("n0", "127.0.0.1:1")
        membership.connection_lost("n0")
        assert membership.get("n0").state == "dead"

    def test_disconnect_of_unknown_or_settled_node_is_ignored(self, membership):
        membership.connection_lost("ghost")  # no crash, no epoch bump
        assert membership.epoch == 0
        membership.join("n0", "127.0.0.1:1")
        membership.connection_lost("n0")
        epoch = membership.epoch
        membership.connection_lost("n0")  # already dead
        assert membership.epoch == epoch

    def test_rejoin_after_death_is_routable_again(self, membership, clock):
        membership.join("n0", "127.0.0.1:1")
        membership.connection_lost("n0")
        membership.join("n0", "127.0.0.1:9", presets=["ipsc860"])
        info = membership.get("n0")
        assert info.state == "alive"
        assert info.address == "127.0.0.1:9"
        assert membership.routing_table().nodes == (("n0", "127.0.0.1:9"),)

    def test_draining_node_still_sweeps_to_dead(self, membership, clock):
        """A drained node that stops heartbeating without disconnecting
        is dead, not left: it never confirmed the clean exit."""
        membership.join("n0", "127.0.0.1:1")
        membership.drain("n0")
        clock.advance(10.0)
        assert membership.sweep() == ["n0"]
        assert membership.get("n0").state == "dead"


class TestStatus:
    def test_status_document(self, membership, clock):
        membership.join(
            "n0", "127.0.0.1:1", presets=["ipsc860"], stats={"shed": 2},
        )
        clock.advance(0.5)
        doc = membership.status()
        assert doc["epoch"] == 1
        assert doc["replication"] == 2
        assert doc["heartbeat_s"] == 1.0
        assert doc["miss_limit"] == 3
        (node,) = doc["nodes"]
        assert node["node"] == "n0"
        assert node["state"] == "alive"
        assert node["age_s"] == pytest.approx(0.5)
        assert list(node) == [
            "node", "address", "state", "age_s", "presets", "default_preset", "stats"
        ]
        assert node["stats"] == {"shed": 2}

    def test_node_info_age_never_negative(self):
        info = NodeInfo(node_id="n", address="a", last_seen=50.0)
        assert info.as_dict(now=40.0)["age_s"] == 0.0

    def test_validates_construction(self, clock):
        with pytest.raises(ValueError):
            Membership(replication=0, now=clock)
        with pytest.raises(ValueError):
            Membership(heartbeat_s=0.0, now=clock)
        with pytest.raises(ValueError):
            Membership(miss_limit=0, now=clock)
