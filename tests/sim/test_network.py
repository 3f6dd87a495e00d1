"""Tests for link reservation, contention serialization, and timing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hypercube.routing import ecube_path_edges
from repro.hypercube.topology import Hypercube, Link
from repro.model.params import ipsc860
from repro.sim.network import Network
from repro.sim.trace import Trace


@pytest.fixture()
def net():
    return Network(Hypercube(5), ipsc860(), Trace())


class TestReservation:
    def test_free_links_start_immediately(self, net):
        grant = net.reserve(10.0, {Link(0, 1)}, 5.0)
        assert grant.t_start == 10.0
        assert grant.t_end == 15.0

    def test_shared_link_serializes(self, net):
        first = net.reserve(0.0, {Link(0, 1)}, 100.0)
        second = net.reserve(0.0, {Link(0, 1)}, 100.0)
        assert first.t_start == 0.0
        assert second.t_start == 100.0
        assert second.t_end == 200.0

    def test_disjoint_links_concurrent(self, net):
        a = net.reserve(0.0, {Link(0, 1)}, 100.0)
        b = net.reserve(0.0, {Link(2, 3)}, 100.0)
        assert a.t_start == b.t_start == 0.0

    def test_start_bound_by_latest_link(self, net):
        net.reserve(0.0, {Link(0, 1)}, 50.0)
        net.reserve(0.0, {Link(1, 3)}, 80.0)
        grant = net.reserve(0.0, {Link(0, 1), Link(1, 3)}, 10.0)
        assert grant.t_start == 80.0


class TestPaths:
    def test_circuit_links_follow_ecube(self, net):
        links = net.circuit_links(2, 23)
        assert links == {Link(2, 3), Link(3, 7), Link(7, 23)}

    def test_exchange_links_cover_both_directions(self, net):
        links = net.exchange_links(0, 3)
        assert Link(0, 1) in links and Link(1, 3) in links  # 0 -> 3
        assert Link(3, 2) in links and Link(2, 0) in links  # 3 -> 0

    def test_validates_nodes(self, net):
        with pytest.raises(ValueError):
            net.circuit_links(0, 99)
        with pytest.raises(ValueError):
            net.exchange_links(99, 0)
        with pytest.raises(TypeError):
            net.exchange_links(0, True)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_link_table_walk_equals_ecube_path_edges(self, d):
        """The walk over the link-id table yields exactly the e-cube
        route's links, for every ordered pair (self-pairs included)."""
        net = Network(Hypercube(d), ipsc860(), Trace())
        for a in range(1 << d):
            for b in range(1 << d):
                forward = set(ecube_path_edges(a, b))
                assert net.circuit_links(a, b) == forward
                assert net.exchange_links(a, b) == forward | set(ecube_path_edges(b, a))

    def test_numpy_labels_route_like_ints(self, net):
        assert net.circuit_links(np.int64(2), np.uint8(23)) == net.circuit_links(2, 23)
        assert net.exchange_links(np.int32(0), np.int64(3)) == net.exchange_links(0, 3)


class TestTiming:
    def test_forced_message_duration(self, net):
        # λ + τ m + δ h
        assert net.message_duration(100, 2, forced=True) == pytest.approx(
            95.0 + 39.4 + 20.6
        )

    def test_unforced_small_is_eager(self, net):
        assert net.message_duration(100, 2, forced=False) == net.message_duration(
            100, 2, forced=True
        )

    def test_unforced_large_pays_handshake(self, net):
        base = net.message_duration(101, 2, forced=True)
        rendezvous = net.message_duration(101, 2, forced=False)
        assert rendezvous == pytest.approx(base + 2 * (82.5 + 2 * 10.3))

    def test_exchange_duration_uses_effective_constants(self, net):
        assert net.exchange_duration(40, 3) == pytest.approx(
            177.5 + 0.394 * 40 + 20.6 * 3
        )


class TestTransfers:
    def test_start_message_records_trace(self, net):
        grant = net.start_message(5.0, 0, 3, 64, tag=9, forced=True)
        (rec,) = net.trace.transmissions
        assert (rec.src, rec.dst, rec.nbytes, rec.tag) == (0, 3, 64, 9)
        assert rec.hops == 2
        assert rec.t_start == grant.t_start
        assert rec.kind == "forced"
        assert rec.wait == 0.0

    def test_start_exchange_records_both_directions(self, net):
        net.start_exchange(0.0, 0, 7, 16, 16, tag=1)
        records = net.trace.transmissions
        assert len(records) == 2
        assert {(r.src, r.dst) for r in records} == {(0, 7), (7, 0)}
        assert all(r.kind == "exchange" for r in records)

    def test_start_exchange_rejects_a_self_exchange(self, net):
        """A node cannot exchange with itself: the call raises before it
        reserves or records anything."""
        with pytest.raises(ValueError, match="node 6 cannot exchange with itself"):
            net.start_exchange(0.0, 6, 6, 16, 16, tag=0)
        with pytest.raises(ValueError, match="node 6 cannot exchange with itself"):
            net.start_exchange(0.0, np.int64(6), 6, 16, 16, tag=0)
        assert net.trace.transmissions == []
        assert net.link_free_at(Link(6, 7)) == 0.0

    def test_start_exchange_grant_matches_its_records(self, net):
        net.start_exchange(0.0, 0, 3, 1000, 8, tag=0)
        grant = net.start_exchange(0.0, 1, 3, 8, 16, tag=1)  # shares 1->3 with 0->3
        assert grant.t_start > 0.0
        for record in net.trace.transmissions[-2:]:
            assert (record.t_request, record.t_start, record.t_end) == (
                0.0, grant.t_start, grant.t_end)
            assert record.hops == 1

    def test_exchange_duration_driven_by_larger_payload(self, net):
        grant = net.start_exchange(0.0, 0, 1, 10, 500, tag=0)
        assert grant.t_end - grant.t_start == pytest.approx(net.exchange_duration(500, 1))

    def test_port_serialization_for_messages(self, net):
        """Two unsynchronized messages from the same node serialize even
        on disjoint paths (§7.2 endpoint model)."""
        a = net.start_message(0.0, 0, 1, 0, tag=0, forced=True)
        b = net.start_message(0.0, 0, 2, 0, tag=0, forced=True)
        assert b.t_start == a.t_end

    def test_exchanges_bypass_ports(self, net):
        """A synchronized exchange is not delayed by a port held
        earlier, only by its links."""
        net.start_message(0.0, 0, 1, 0, tag=0, forced=True)  # holds port 0
        grant = net.start_exchange(0.0, 0, 2, 8, 8, tag=0)
        assert grant.t_start == 0.0

    def test_message_and_exchange_share_one_table(self, net):
        """A one-way message and a pairwise exchange over a common link
        serialize in either order."""
        message = net.start_message(0.0, 0, 3, 1000, tag=0, forced=True)  # 0->1->3
        exchange = net.start_exchange(0.0, 1, 3, 8, 8, tag=1)  # needs 1->3
        assert exchange.t_start == message.t_end
        first = net.start_exchange(0.0, 4, 5, 500, 500, tag=2)
        second = net.start_message(0.0, 5, 4, 0, tag=3, forced=True)  # needs 5->4
        assert second.t_start == first.t_end

    def test_reserve_accepts_links_and_ports(self, net):
        net.reserve(0.0, {Link(0, 1), net.port(7)}, 30.0)
        assert net.link_free_at(Link(0, 1)) == 30.0
        assert net.link_free_at(Link(1, 0)) == 0.0
        grant = net.start_message(0.0, 7, 6, 0, tag=0, forced=True)  # port 7 busy
        assert grant.t_start == 30.0

    def test_reserve_rejects_foreign_resources(self, net):
        with pytest.raises(ValueError, match="5-cube"):
            net.reserve(0.0, {Link(32, 33)}, 1.0)
        with pytest.raises(ValueError):
            net.reserve(0.0, {net.port(32)}, 1.0)
        with pytest.raises(TypeError, match="reservable"):
            net.reserve(0.0, {("wire", 0)}, 1.0)

    def test_contention_wait_recorded(self, net):
        net.start_message(0.0, 0, 1, 1000, tag=0, forced=True)
        net.start_message(0.0, 2, 0, 10, tag=0, forced=True)  # port 0 busy
        second = net.trace.transmissions[1]
        assert second.wait > 0.0
