"""Circuit-switched network: link reservation and transfer timing.

A transmission on a circuit-switched hypercube establishes a dedicated
path (every directed link of its e-cube route) and holds it for the
whole transfer.  The network model here grants link time by
*reservation*: a transfer ready at time ``t`` starts at the earliest
instant all its links are free — ``max(t, free_at(link) for link in
path)`` — and marks them busy until it completes.  Transfers that share
a link therefore serialize, reproducing the paper's "disastrous" edge
contention; transfers that share only nodes are unaffected, matching
the §2 measurement that node contention has no effect.

Timing follows the §4.3 model: a message of ``m`` bytes over ``h``
dimensions costs ``λ + τ·m + δ·h``; a pairwise synchronized exchange
costs ``λ_eff + τ·m + δ_eff·h`` (the zero-byte handshake folded in,
§7.2/§7.4); an UNFORCED message beyond the eager limit pays a
reserve–acknowledge round trip first (§7.1).

Endpoint serialization (§7.2): on the iPSC-860 a receive and a
transmit at the same processor proceed concurrently only when the two
transfers start simultaneously — which is exactly what the pairwise
synchronization buys.  Un-synchronized messages therefore also reserve
a *port* resource at each endpoint, so overlapping unsynchronized
traffic at a node serializes; synchronized exchanges bypass the ports.
This is what makes contention-oblivious schedules pay the full
penalty the paper warns about.

One reservation table holds every resource as a flat list of free-at
times: the directed link ``src -> src ^ 2**dim`` is slot ``src·d + dim``
(:meth:`~repro.hypercube.topology.Hypercube.link_index`) and node
``v``'s port is slot ``d·2**d + v``.  Transfers walk their e-cube routes
as these ids, lowest differing bit first, and build a ``Link`` only
where one is observable: the public link API, :meth:`Network.fail_link`
and a :class:`~repro.sim.trace.RetryRecord`.  Consumers reduce a
circuit's slots with ``max`` or ``min``, so walk order moves no float.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hypercube.topology import Hypercube, Link
from repro.model.params import MachineParams
from repro.sim.faults import MAX_RETRY_ATTEMPTS, FaultPlan
from repro.sim.trace import RetryRecord, Trace, TransmissionRecord

__all__ = ["Network", "Grant"]


@dataclass(frozen=True)
class Grant:
    """Outcome of a link reservation: when the circuit starts/ends."""

    t_start: float
    t_end: float


def _add_ecube_ids(ids: list[int], d: int, src: int, dst: int) -> None:
    """Append the link ids (:meth:`Hypercube.link_index`) of the e-cube
    route ``src -> dst`` of a ``d``-cube to ``ids``."""
    node = src
    diff = src ^ dst
    while diff:
        bit = diff & -diff
        ids.append(node * d + bit.bit_length() - 1)
        node ^= bit
        diff ^= bit


class Network:
    """Link bookkeeping plus the transfer-time model."""

    def __init__(
        self,
        cube: Hypercube,
        params: MachineParams,
        trace: Trace,
        *,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.cube = cube
        self.params = params
        self.trace = trace
        if fault_plan is not None and fault_plan.d != cube.dimension:
            raise ValueError(
                f"fault plan is for a {fault_plan.d}-cube, machine is a "
                f"{cube.dimension}-cube"
            )
        #: fault-injection schedule; ``None`` keeps every code path
        #: byte-identical to the fault-free network (the zero-overhead
        #: benchmark pins this)
        self.fault_plan = fault_plan
        self._d = cube.dimension
        #: slot of node 0's port; the link slots come before it
        self._port_base = cube.n_links
        #: next-free time of every reservable resource, by id: the
        #: ``d·2**d`` directed links, then one port per node
        self._free_at: list[float] = [0.0] * (cube.n_links + cube.n_nodes)
        #: ids of failed directed links (fault injection): a circuit
        #: routed through one of these cannot be established
        self._failed: set[int] = set()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail_link(self, link: Link, *, both_directions: bool = True) -> None:
        """Mark a link as failed.  e-cube routing is fixed, so circuits
        through a failed link cannot be re-routed; attempting one raises
        :class:`~repro.sim.engine.SimulationError` (the run's failure
        is the observable — hypercubes of this era had no adaptive
        fallback).  Used by the failure-injection tests.

        Manual failures are *permanent* until :meth:`restore_link`;
        scheduled transient outages (a :class:`FaultPlan`'s
        ``LinkOutage`` windows) are instead survived by block-and-retry
        when the circuit is established.

        A link of a larger cube (``Link`` only checks adjacency) is
        rejected rather than silently ignored."""
        self._failed.add(self.cube.link_index(link))
        if both_directions:
            self._failed.add(self.cube.link_index(link.reverse))

    def restore_link(self, link: Link, *, both_directions: bool = True) -> None:
        """Clear a previously injected link failure."""
        self._failed.discard(self.cube.link_index(link))
        if both_directions:
            self._failed.discard(self.cube.link_index(link.reverse))

    def _establish(
        self, t_ready: float, ids: list[int], *, src: int, dst: int, tag: int
    ) -> tuple[float, float, float]:
        """Apply the fault gates to the circuit ``ids`` ready at
        ``t_ready``; returns ``(t_ready, lat_scale, bw_scale)``.

        A manually failed link raises; a :class:`FaultPlan` outage is
        waited out (:meth:`_await_alive`); degraded links scale the
        transfer by the worst link on the path.  Without faults this is
        ``(t_ready, 1.0, 1.0)``."""
        if self._failed:
            self._check_alive(ids)
        plan = self.fault_plan
        if plan is None:
            return t_ready, 1.0, 1.0
        if plan.outages:
            t_ready = self._await_alive(t_ready, ids, src=src, dst=dst, tag=tag)
        if not plan.degradations:
            return t_ready, 1.0, 1.0
        lat_scale, bw_scale = plan.path_scales_by_id(ids)
        return t_ready, lat_scale, bw_scale

    def _check_alive(self, ids: list[int]) -> None:
        """Raise if any link of a prospective circuit has failed."""
        dead = [self.cube.link_at(i) for i in ids if i in self._failed]
        if dead:
            from repro.sim.engine import SimulationError

            raise SimulationError(
                "circuit requires failed link(s) "
                + ", ".join(sorted(map(str, dead)))
                + "; e-cube routing is fixed, no alternative path exists"
            )

    def _await_alive(
        self, t_ready: float, ids: list[int], *, src: int, dst: int, tag: int
    ) -> float:
        """Block-and-retry until no path link sits inside a scheduled
        outage window; returns the (possibly delayed) ready time.

        Unlike a manually failed link (which raises — no heal time is
        ever coming), a :class:`FaultPlan` outage is *transient*: the
        sender holds the block, waits a deterministic capped backoff,
        and looks again.  Every wait is recorded as a
        :class:`~repro.sim.trace.RetryRecord` naming the smallest down
        ``Link`` (in ``(src, dst)`` order, which is not id order), so a
        chaos sweep can prove zero blocks were lost.  Aliveness is
        judged at the ready instant; a window opening *after* the
        circuit is granted does not tear it down (circuit establishment
        is the vulnerable step, not the streaming transfer).
        """
        plan = self.fault_plan
        t = t_ready
        for attempt in range(MAX_RETRY_ATTEMPTS):
            down = [i for i in ids if plan.down_until_by_id(i, t) is not None]
            if not down:
                return t
            gating = min(self.cube.link_at(i) for i in down)
            t_retry = t + plan.backoff_us(attempt)
            self.trace.record_retry(
                RetryRecord(
                    src=src,
                    dst=dst,
                    tag=tag,
                    attempt=attempt,
                    t_blocked=t,
                    t_retry=t_retry,
                    link=str(gating),
                )
            )
            t = t_retry
        from repro.sim.engine import SimulationError

        raise SimulationError(
            f"transfer {src}->{dst} (tag {tag}) still blocked after "
            f"{MAX_RETRY_ATTEMPTS} retries; outage outlasts the retry budget"
        )

    # ------------------------------------------------------------------
    # link reservation
    # ------------------------------------------------------------------
    def link_free_at(self, link: Link) -> float:
        return self._free_at[self.cube.link_index(link)]

    @staticmethod
    def port(node: int) -> tuple[str, int]:
        """The endpoint-serialization resource of ``node`` (§7.2)."""
        return ("port", node)

    def _resource_id(self, resource: object) -> int:
        """Table slot of a :class:`Link` or a :meth:`port`."""
        if isinstance(resource, Link):
            return self.cube.link_index(resource)
        if isinstance(resource, tuple) and len(resource) == 2 and resource[0] == "port":
            return self._port_base + self.cube.validate_node(resource[1])
        raise TypeError(f"not a reservable resource: {resource!r}")

    def reserve(self, t_ready: float, links: set[object], duration: float) -> Grant:
        """Grant all ``links`` (links and :meth:`port` resources) for
        ``duration`` starting no earlier than ``t_ready``; returns the
        granted interval.

        Contention-free schedules always get ``t_start == t_ready``
        (asserted by the tests for every paper schedule).
        """
        t_start = self._reserve(t_ready, [self._resource_id(r) for r in links], duration)
        return Grant(t_start=t_start, t_end=t_start + duration)

    def _reserve(self, t_ready: float, ids: list[int], duration: float) -> float:
        """:meth:`reserve` on table slots; returns the grant's start
        (it ends at ``t_start + duration``)."""
        free_at = self._free_at
        t_start = t_ready
        for i in ids:
            if free_at[i] > t_start:  # max(), without the call
                t_start = free_at[i]
        t_end = t_start + duration
        for i in ids:
            free_at[i] = t_end
        return t_start

    # ------------------------------------------------------------------
    # path helpers
    # ------------------------------------------------------------------
    def circuit_links(self, src: int, dst: int) -> set[Link]:
        """Directed links held by the circuit ``src -> dst``."""
        ids: list[int] = []
        _add_ecube_ids(ids, self._d, self.cube.validate_node(src), self.cube.validate_node(dst))
        return {self.cube.link_at(i) for i in ids}

    def exchange_links(self, a: int, b: int) -> set[Link]:
        """Links held by a full-duplex pairwise exchange: both e-cube
        directions (their edge sets differ in general)."""
        ids = self._exchange_ids(self.cube.validate_node(a), self.cube.validate_node(b))
        return {self.cube.link_at(i) for i in ids}

    def _exchange_ids(self, a: int, b: int) -> list[int]:
        """Link ids of both e-cube directions between the node labels
        ``a`` and ``b`` (disjoint: a route ``a -> b`` leaves each
        flipped bit's node with ``a``'s value of that bit, the route
        back with ``b``'s)."""
        ids: list[int] = []
        _add_ecube_ids(ids, self._d, a, b)
        _add_ecube_ids(ids, self._d, b, a)
        return ids

    # ------------------------------------------------------------------
    # timing model
    # ------------------------------------------------------------------
    def message_duration(
        self,
        nbytes: int,
        hops: int,
        *,
        forced: bool,
        lat_scale: float = 1.0,
        bw_scale: float = 1.0,
    ) -> float:
        """Wire time of one message (§4.3 model; §7.1 UNFORCED penalty).

        The reserve–acknowledge handshake of a large UNFORCED message
        is modelled as two zero-byte messages over the same distance,
        using the zero-byte startup λ₀ where the machine defines one.

        ``lat_scale``/``bw_scale`` degrade the startup (λ-like) and
        per-byte (τ) shares for circuits crossing degraded links (the
        per-hop switch time δ is internal to the router and not
        degraded).  Both default to 1.0, leaving the fault-free model
        bit-identical.
        """
        p = self.params
        base = p.latency * lat_scale + p.byte_time * bw_scale * nbytes + p.hop_time * hops
        if forced or nbytes <= p.unforced_eager_limit:
            return base
        handshake_latency = p.sync_latency if p.sync_latency > 0 else p.latency
        return base + 2.0 * (handshake_latency * lat_scale + p.hop_time * hops)

    def exchange_duration(
        self,
        nbytes: int,
        hops: int,
        *,
        lat_scale: float = 1.0,
        bw_scale: float = 1.0,
    ) -> float:
        """Wire time of a pairwise synchronized exchange (§7.2):
        ``λ_eff + τ·m + δ_eff·h`` with both directions concurrent.
        Scale factors degrade the λ_eff and τ shares as in
        :meth:`message_duration`."""
        p = self.params
        return (
            p.exchange_latency * lat_scale
            + p.byte_time * bw_scale * nbytes
            + p.exchange_hop_time * hops
        )

    # ------------------------------------------------------------------
    # transfers (reserve + record)
    # ------------------------------------------------------------------
    def start_message(
        self, t_ready: float, src: int, dst: int, nbytes: int, tag: int, *, forced: bool
    ) -> Grant:
        """Reserve the circuit for a one-way message and record it."""
        return self._start_one_way(
            t_ready, src, dst, nbytes, tag, forced=forced,
            kind="forced" if forced else "unforced",
        )

    def start_cross_message(
        self, t_ready: float, src: int, dst: int, nbytes: int
    ) -> Grant:
        """Reserve the circuit for one background cross-traffic payload.

        Behaves like an un-synchronized FORCED message on the wire
        (links + endpoint ports, so it genuinely contends with the
        workload) but is recorded with ``kind="cross"`` / ``tag=-1`` so
        traces keep workload and background traffic separable."""
        return self._start_one_way(t_ready, src, dst, nbytes, -1, forced=True, kind="cross")

    def _start_one_way(
        self, t_ready: float, src: int, dst: int, nbytes: int, tag: int, *,
        forced: bool, kind: str,
    ) -> Grant:
        src = self.cube.validate_node(src)
        dst = self.cube.validate_node(dst)
        hops = (src ^ dst).bit_count()
        ids: list[int] = []
        _add_ecube_ids(ids, self._d, src, dst)
        t_ready, lat_scale, bw_scale = self._establish(t_ready, ids, src=src, dst=dst, tag=tag)
        duration = self.message_duration(
            nbytes, hops, forced=forced, lat_scale=lat_scale, bw_scale=bw_scale
        )
        # Un-synchronized messages serialize with other traffic at both
        # endpoints (§7.2); synchronized exchanges do not pay this.
        ids.append(self._port_base + src)
        ids.append(self._port_base + dst)
        t_start = self._reserve(t_ready, ids, duration)
        grant = Grant(t_start=t_start, t_end=t_start + duration)
        self.trace.record_transmission(
            TransmissionRecord(
                src=src,
                dst=dst,
                nbytes=nbytes,
                hops=hops,
                t_request=t_ready,
                t_start=grant.t_start,
                t_end=grant.t_end,
                kind=kind,
                tag=tag,
            )
        )
        return grant

    def start_exchange(
        self, t_ready: float, a: int, b: int, nbytes_a: int, nbytes_b: int, tag: int
    ) -> Grant:
        """Reserve both directions for a pairwise exchange and record it.

        ``t_ready`` is the rendezvous instant (both partners present).
        The concurrent bidirectional transfer completes when the larger
        payload does.  A node cannot exchange with itself.
        """
        a = self.cube.validate_node(a)
        b = self.cube.validate_node(b)
        if a == b:
            raise ValueError(f"node {a} cannot exchange with itself")
        record = self._exchange(t_ready, a, b, nbytes_a, nbytes_b, tag)
        return Grant(t_start=record.t_start, t_end=record.t_end)

    def _exchange(
        self, t_ready: float, a: int, b: int, nbytes_a: int, nbytes_b: int, tag: int
    ) -> TransmissionRecord:
        """:meth:`start_exchange` on checked, distinct ``a`` and ``b``;
        returns the ``a -> b`` record."""
        ids = self._exchange_ids(a, b)
        hops = (a ^ b).bit_count()
        t_ready, lat_scale, bw_scale = self._establish(t_ready, ids, src=a, dst=b, tag=tag)
        duration = self.exchange_duration(
            max(nbytes_a, nbytes_b), hops, lat_scale=lat_scale, bw_scale=bw_scale
        )
        t_start = self._reserve(t_ready, ids, duration)
        t_end = t_start + duration
        record = TransmissionRecord(a, b, nbytes_a, hops, t_ready, t_start, t_end, "exchange", tag)
        self.trace.record_transmission(record)
        self.trace.record_transmission(
            TransmissionRecord(b, a, nbytes_b, hops, t_ready, t_start, t_end, "exchange", tag)
        )
        return record
