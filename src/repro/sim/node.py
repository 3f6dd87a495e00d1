"""Simulated processors: message endpoints and the node-program API.

Each node runs one SPMD *program* — a generator yielding requests —
against a :class:`NodeContext`.  The context builds the request
objects; the machine (:mod:`repro.sim.machine`) wires them to the
network, rendezvous, and barrier services.

Message semantics follow the iPSC-860 (paper §7.1):

* **FORCED** messages are delivered only into a *posted* receive; a
  FORCED arrival with no matching posted receive is *discarded* (the
  trace records the drop; under ``strict_forced`` the simulation
  raises, mirroring the paper's observation that omitting the global
  synchronization "is fatal").
* **UNFORCED** messages are buffered by the system if no receive is
  posted, and pay a reserve–acknowledge handshake above the eager
  limit.
* **Pairwise exchange** is the §7.2 primitive: the two partners
  rendezvous (modelling the zero-byte synchronization messages) and
  the bidirectional transfer proceeds concurrently.
"""

from __future__ import annotations

import numbers
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.sim.engine import Delay, Engine, Process, Request

__all__ = [
    "BarrierReq",
    "ExchangeReq",
    "NodeContext",
    "NodeState",
    "PostRecvReq",
    "RecvReq",
    "SendReq",
    "ShuffleReq",
]


@dataclass
class _Envelope:
    """A message in flight or buffered at the destination."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int


class NodeState:
    """Receive bookkeeping of one processor."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        #: receives posted and not yet consumed: (src, tag) keys; src
        #: of None matches any source (wildcard, for convenience APIs)
        self.posted: deque[tuple[int | None, int]] = deque()
        #: system-buffered UNFORCED messages awaiting a receive
        self.buffered: deque[_Envelope] = deque()
        #: blocked RecvReq requests awaiting a message, with the
        #: wait token snapshotted at registration (stale entries — the
        #: process was failed or moved on — are discarded on match)
        self.blocked_recvs: deque[tuple["RecvReq", Process, int]] = deque()

    def post(self, src: int | None, tag: int) -> None:
        self.posted.append((src, tag))

    def consume_posted(self, src: int, tag: int) -> bool:
        """Consume a matching posted receive if one exists."""
        for key in list(self.posted):
            psrc, ptag = key
            if (psrc is None or psrc == src) and ptag == tag:
                self.posted.remove(key)
                return True
        return False

    def has_buffered(self, src: int | None, tag: int) -> bool:
        """Whether a matching buffered message exists (non-destructive;
        the consumer pops with :meth:`match_buffered` when it actually
        delivers, so an abandoned delivery leaves the message queued)."""
        return any(
            (src is None or env.src == src) and env.tag == tag for env in self.buffered
        )

    def match_buffered(self, src: int | None, tag: int) -> _Envelope | None:
        for env in list(self.buffered):
            if (src is None or env.src == src) and env.tag == tag:
                self.buffered.remove(env)
                return env
        return None

    def match_blocked(self, src: int, tag: int) -> tuple["RecvReq", Process] | None:
        for item in list(self.blocked_recvs):
            req, proc, token = item
            if (req.src is None or req.src == src) and req.tag == tag:
                self.blocked_recvs.remove(item)
                if not proc.wait_is_current(token):
                    continue  # the waiter was failed while parked
                return req, proc
        return None


# ----------------------------------------------------------------------
# requests (activated by the machine through the context's services)
# ----------------------------------------------------------------------
class _MachineRequest(Request):
    """A request resolved by the owning machine's services."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: "NodeContext") -> None:
        self.ctx = ctx

    def activate(self, engine: Engine, process: Process) -> None:
        self.ctx.machine._activate(self, process)  # noqa: SLF001 - deliberate service hook


class SendReq(_MachineRequest):
    __slots__ = ("dst", "payload", "nbytes", "tag", "forced")

    def __init__(self, ctx: "NodeContext", dst: int, payload: Any, nbytes: int,
                 tag: int, forced: bool) -> None:
        super().__init__(ctx)
        self.dst = dst
        self.payload = payload
        self.nbytes = nbytes
        self.tag = tag
        self.forced = forced


class RecvReq(_MachineRequest):
    __slots__ = ("src", "tag")

    def __init__(self, ctx: "NodeContext", src: int | None, tag: int) -> None:
        super().__init__(ctx)
        self.src = src
        self.tag = tag


class PostRecvReq(_MachineRequest):
    __slots__ = ("src", "tag")

    def __init__(self, ctx: "NodeContext", src: int | None, tag: int) -> None:
        super().__init__(ctx)
        self.src = src
        self.tag = tag


class ExchangeReq(_MachineRequest):
    __slots__ = ("partner", "payload", "nbytes", "tag")

    def __init__(self, ctx: "NodeContext", partner: int, payload: Any, nbytes: int,
                 tag: int) -> None:
        super().__init__(ctx)
        self.partner = partner
        self.payload = payload
        self.nbytes = nbytes
        self.tag = tag


class BarrierReq(_MachineRequest):
    __slots__ = ()


class ShuffleReq(_MachineRequest):
    __slots__ = ("nbytes",)

    def __init__(self, ctx: "NodeContext", nbytes: int) -> None:
        super().__init__(ctx)
        self.nbytes = nbytes


class NodeContext:
    """The API surface a node program codes against.

    Each method but :meth:`mark_phase` builds a request to ``yield``;
    the value of the yield expression is the request's result (received
    payload for ``recv``/``exchange``, ``None`` otherwise).
    """

    def __init__(self, machine, rank: int) -> None:
        #: the owning machine, held weakly for the reason
        #: :attr:`Process.engine <repro.sim.engine.Process>` is: the
        #: machine keeps its contexts, so a finished run is freed by
        #: reference counting, trace and buffers included
        self.machine = weakref.proxy(machine)
        self.rank = rank
        self.state = NodeState(rank)
        #: the cube holds no link back: no reference cycle
        self._validate_node = machine.cube.validate_node

    # -- structure ------------------------------------------------------
    @property
    def d(self) -> int:
        """Cube dimension."""
        return self.machine.cube.dimension

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.machine.cube.n_nodes

    @property
    def now(self) -> float:
        """Current virtual time (µs)."""
        return self.machine.engine.now

    # -- request builders -------------------------------------------------
    def delay(self, duration_us: float) -> Delay:
        """Local computation for ``duration_us`` microseconds (a
        straggler node runs it ``compute_scale`` times slower)."""
        return Delay(duration_us * self.machine.compute_scale(self.rank))

    def send(self, dst: int, payload: Any, nbytes: int, *, tag: int = 0,
             forced: bool = True) -> SendReq:
        """Blocking one-way send (``csend``); completes when the
        message has left the wire."""
        dst = self._validate_node(dst)
        if dst == self.rank:
            raise ValueError(f"node {self.rank}: cannot send to self")
        if type(nbytes) is not int or nbytes < 0:
            nbytes = self._byte_count(nbytes)
        return SendReq(self, dst, payload, nbytes, tag, forced)

    def recv(self, src: int | None = None, *, tag: int = 0) -> RecvReq:
        """Blocking receive; yields the matching payload."""
        if src is not None:
            src = self._validate_node(src)
        return RecvReq(self, src, tag)

    def post_recv(self, src: int | None = None, *, tag: int = 0) -> PostRecvReq:
        """Post a receive without blocking (required before FORCED
        traffic arrives, §7.3)."""
        if src is not None:
            src = self._validate_node(src)
        return PostRecvReq(self, src, tag)

    def exchange(self, partner: int, payload: Any, nbytes: int, *, tag: int = 0) -> ExchangeReq:
        """Pairwise synchronized exchange (§7.2); yields the partner's
        payload when the concurrent bidirectional transfer completes."""
        partner = self._validate_node(partner)
        if partner == self.rank:
            raise ValueError(f"node {self.rank}: cannot exchange with self")
        if type(nbytes) is not int or nbytes < 0:
            nbytes = self._byte_count(nbytes)
        return ExchangeReq(self, partner, payload, nbytes, tag)

    def barrier(self) -> BarrierReq:
        """Global synchronization (cost γ·d, §7.3/§7.4)."""
        return BarrierReq(self)

    def shuffle(self, nbytes: int) -> ShuffleReq:
        """Local permutation pass over ``nbytes`` at ρ per byte; the
        caller performs the actual numpy permutation itself."""
        if type(nbytes) is not int or nbytes < 0:
            nbytes = self._byte_count(nbytes)
        return ShuffleReq(self, nbytes)

    def _byte_count(self, nbytes: Any) -> int:
        """``nbytes`` as a plain int; a bool, fraction or negative raises."""
        if isinstance(nbytes, bool) or not isinstance(nbytes, numbers.Integral) or nbytes < 0:
            raise ValueError(
                f"node {self.rank}: nbytes must be a non-negative int, got {nbytes!r}"
            )
        return int(nbytes)

    def mark_phase(self, phase_index: int) -> None:
        """Record a phase boundary in the trace at the current instant.

        Called, not yielded: the mark costs no virtual time, so it takes
        no event either — the program goes straight on to its next
        request.  The first node to reach a phase marks it."""
        self.machine.mark_phase(phase_index)

