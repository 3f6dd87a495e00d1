"""Cluster membership: node registry, liveness, and epochs.

The coordinator's bookkeeping core, deliberately free of any I/O so it
tests with a fake clock.  :class:`Membership` tracks every node that
ever joined, advances a monotonically increasing **epoch** whenever
the routable set changes (join, death, drain, clean leave), and
derives the published :class:`~repro.fabric.routing.RoutingTable` from
the nodes that are currently ``alive``.

Liveness is heartbeat-driven: a node that has not been heard from for
``heartbeat_s * miss_limit`` seconds is declared ``dead`` by
:meth:`Membership.sweep` (miss-K ⇒ dead), and a registration
connection dropping declares its node dead immediately — unless the
node was ``draining``, in which case the disconnect is the expected
clean exit and the node is marked ``left``.

Time is injected as a ``now`` callable (the coordinator passes the
event loop's clock) so the module never reads a wall clock itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.fabric.routing import RoutingTable

__all__ = ["Membership", "NodeInfo", "STATES"]

#: the node lifecycle: alive -> draining -> left, or alive -> dead
STATES = ("alive", "draining", "dead", "left")


@dataclass
class NodeInfo:
    """Everything the coordinator knows about one registered node."""

    node_id: str
    address: str
    presets: tuple[str, ...] = ()
    default_preset: str | None = None
    state: str = "alive"
    last_seen: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def routable(self) -> bool:
        return self.state == "alive"

    def as_dict(self, now: float) -> dict:
        return {
            "node": self.node_id,
            "address": self.address,
            "state": self.state,
            "age_s": max(0.0, now - self.last_seen),
            "presets": list(self.presets),
            "default_preset": self.default_preset,
            "stats": dict(self.stats),
        }


class Membership:
    """The epoch-versioned node registry behind one coordinator."""

    def __init__(
        self,
        *,
        replication: int = 2,
        heartbeat_s: float = 2.0,
        miss_limit: int = 3,
        now: Callable[[], float],
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        if miss_limit < 1:
            raise ValueError(f"miss_limit must be >= 1, got {miss_limit}")
        self.replication = replication
        self.heartbeat_s = heartbeat_s
        self.miss_limit = miss_limit
        self._now = now
        self._nodes: dict[str, NodeInfo] = {}
        self._epoch = 0
        self._table: RoutingTable | None = None

    # ------------------------------------------------------------------
    # epoch + routing table
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    def _bump(self) -> None:
        self._epoch += 1
        self._table = None

    def routing_table(self) -> RoutingTable:
        """The current epoch's table (cached until the epoch moves)."""
        if self._table is None or self._table.epoch != self._epoch:
            routable = [n for n in self._nodes.values() if n.routable]
            presets = sorted({p for n in routable for p in n.presets})
            default = next(
                (n.default_preset for n in routable if n.default_preset), None
            )
            self._table = RoutingTable(
                epoch=self._epoch,
                replication=self.replication,
                nodes=tuple(sorted((n.node_id, n.address) for n in routable)),
                presets=tuple(presets),
                default_preset=default,
            )
        return self._table

    # ------------------------------------------------------------------
    # lifecycle events
    # ------------------------------------------------------------------
    def join(
        self,
        node_id: str,
        address: str,
        *,
        presets: Sequence[str] = (),
        default_preset: str | None = None,
        stats: dict | None = None,
    ) -> NodeInfo:
        """Register (or re-register) a node and make it routable."""
        if not node_id:
            raise ValueError("node id must be non-empty")
        if not address:
            raise ValueError("node address must be non-empty")
        info = NodeInfo(
            node_id=node_id,
            address=address,
            presets=tuple(presets),
            default_preset=default_preset,
            state="alive",
            last_seen=self._now(),
            stats=dict(stats or {}),
        )
        self._nodes[node_id] = info
        self._bump()
        return info

    def heartbeat(self, node_id: str, stats: dict | None = None) -> NodeInfo:
        """Record a heartbeat; raises :exc:`KeyError` for a node the
        coordinator does not know (it must re-join)."""
        info = self._nodes[node_id]
        info.last_seen = self._now()
        if stats is not None:
            info.stats = dict(stats)
        if info.state == "dead":
            # the node outlived a miss-K verdict — it is alive after all
            info.state = "alive"
            self._bump()
        return info

    def drain(self, node_id: str) -> NodeInfo:
        """Administratively drain a node: it leaves the routing table
        now and is told to shut down on its next heartbeat."""
        info = self._nodes[node_id]
        if info.state == "alive":
            info.state = "draining"
            self._bump()
        return info

    def connection_lost(self, node_id: str) -> None:
        """The node's registration connection dropped: a draining node
        finished cleanly (``left``), anything else is ``dead`` now."""
        info = self._nodes.get(node_id)
        if info is None or info.state in ("dead", "left"):
            return
        info.state = "left" if info.state == "draining" else "dead"
        self._bump()

    def sweep(self) -> list[str]:
        """Declare every silent node dead (miss-K) and return their
        ids; the caller logs them and republished routes follow from
        the epoch bump."""
        deadline = self.heartbeat_s * self.miss_limit
        now = self._now()
        died = [
            node_id
            for node_id, info in self._nodes.items()
            if info.state in ("alive", "draining")
            and now - info.last_seen > deadline
        ]
        for node_id in died:
            self._nodes[node_id].state = "dead"
        if died:
            self._bump()
        return died

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def get(self, node_id: str) -> NodeInfo | None:
        return self._nodes.get(node_id)

    @property
    def nodes(self) -> tuple[NodeInfo, ...]:
        return tuple(self._nodes.values())

    def status(self) -> dict:
        """The full membership document behind ``repro cluster status``."""
        now = self._now()
        return {
            "epoch": self._epoch,
            "replication": self.replication,
            "heartbeat_s": self.heartbeat_s,
            "miss_limit": self.miss_limit,
            "nodes": [
                info.as_dict(now)
                for info in sorted(self._nodes.values(), key=lambda n: n.node_id)
            ],
        }
