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

Circuits are read off a per-dimension table of interned
:class:`~repro.hypercube.topology.Link` objects (built once per cube
dimension) by flipping the differing bits lowest first — the e-cube
route of :func:`~repro.hypercube.routing.ecube_path_edges`, without
building and validating a fresh ``Link`` per hop.  The links are equal
and hash alike, and every consumer reduces a circuit's link set with
``max``, ``min`` or ``sorted``, so neither the table nor set iteration
order can move a float of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.hypercube.routing import ecube_hops
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


@lru_cache(maxsize=None)
def _link_table(d: int) -> tuple[tuple[Link, ...], ...]:
    """``table[j][node]`` is the directed link ``node -> node ^ 2**j``
    of a ``d``-cube (``d * 2**d`` links, each built once)."""
    return tuple(
        tuple(Link(node, node ^ (1 << j)) for node in range(1 << d)) for j in range(d)
    )


def _add_ecube_links(links: set[Link], table: tuple[tuple[Link, ...], ...],
                     src: int, dst: int) -> None:
    """Add the links of the e-cube route ``src -> dst`` to ``links``."""
    node = src
    diff = src ^ dst
    while diff:
        bit = diff & -diff
        links.add(table[bit.bit_length() - 1][node])
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
        #: next-free times of reservable resources: directed links plus
        #: per-node ports (keyed ("port", node))
        self._free_at: dict[object, float] = {}
        #: failed directed links (fault injection): a circuit routed
        #: through one of these cannot be established
        self._failed: set[Link] = set()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _validate_link(self, link: Link) -> None:
        """Reject links whose endpoints fall outside this cube.

        ``Link`` only checks adjacency, so e.g. ``Link(8, 9)`` is a
        perfectly valid link object — of some *larger* cube.  Accepting
        it here would silently no-op the injected fault."""
        if not (self.cube.contains(link.src) and self.cube.contains(link.dst)):
            raise ValueError(
                f"link {link} does not exist in a {self.cube.dimension}-cube "
                f"(nodes 0..{self.cube.n_nodes - 1})"
            )

    def fail_link(self, link: Link, *, both_directions: bool = True) -> None:
        """Mark a link as failed.  e-cube routing is fixed, so circuits
        through a failed link cannot be re-routed; attempting one raises
        :class:`~repro.sim.engine.SimulationError` (the run's failure
        is the observable — hypercubes of this era had no adaptive
        fallback).  Used by the failure-injection tests.

        Manual failures are *permanent* until :meth:`restore_link`;
        scheduled transient outages (a :class:`FaultPlan`'s
        ``LinkOutage`` windows) are instead survived by block-and-retry
        in :meth:`await_links_alive`."""
        self._validate_link(link)
        self._failed.add(link)
        if both_directions:
            self._failed.add(link.reverse)

    def restore_link(self, link: Link, *, both_directions: bool = True) -> None:
        """Clear a previously injected link failure."""
        self._validate_link(link)
        self._failed.discard(link)
        if both_directions:
            self._failed.discard(link.reverse)

    def check_links_alive(self, links: set) -> None:
        """Raise if any link of a prospective circuit has failed."""
        if not self._failed:
            return
        from repro.sim.engine import SimulationError

        dead = [link for link in links if isinstance(link, Link) and link in self._failed]
        if dead:
            raise SimulationError(
                "circuit requires failed link(s) "
                + ", ".join(sorted(map(str, dead)))
                + "; e-cube routing is fixed, no alternative path exists"
            )

    def await_links_alive(
        self, t_ready: float, links: set, *, src: int, dst: int, tag: int
    ) -> float:
        """Block-and-retry until no path link sits inside a scheduled
        outage window; returns the (possibly delayed) ready time.

        Unlike a manually failed link (which raises — no heal time is
        ever coming), a :class:`FaultPlan` outage is *transient*: the
        sender holds the block, waits a deterministic capped backoff,
        and looks again.  Every wait is recorded as a
        :class:`~repro.sim.trace.RetryRecord` so a chaos sweep can
        prove zero blocks were lost.  Aliveness is judged at the ready
        instant; a window opening *after* the circuit is granted does
        not tear it down (circuit establishment is the vulnerable step,
        not the streaming transfer).
        """
        plan = self.fault_plan
        if plan is None or not plan.outages:
            return t_ready
        t = t_ready
        for attempt in range(MAX_RETRY_ATTEMPTS):
            gating: Link | None = None
            for link in links:
                if isinstance(link, Link) and plan.down_until(link, t) is not None:
                    gating = link if gating is None else min(gating, link)
            if gating is None:
                return t
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
        return self._free_at.get(link, 0.0)

    @staticmethod
    def port(node: int) -> tuple[str, int]:
        """The endpoint-serialization resource of ``node`` (§7.2)."""
        return ("port", node)

    def reserve(self, t_ready: float, links: set[object], duration: float) -> Grant:
        """Grant all ``links`` for ``duration`` starting no earlier than
        ``t_ready``; returns the granted interval.

        Contention-free schedules always get ``t_start == t_ready``
        (asserted by the tests for every paper schedule).
        """
        t_start = t_ready
        for link in links:
            t_start = max(t_start, self.link_free_at(link))
        t_end = t_start + duration
        for link in links:
            self._free_at[link] = t_end
        return Grant(t_start=t_start, t_end=t_end)

    # ------------------------------------------------------------------
    # path helpers
    # ------------------------------------------------------------------
    def circuit_links(self, src: int, dst: int) -> set[Link]:
        """Directed links held by the circuit ``src -> dst``."""
        src = self.cube.validate_node(src)
        dst = self.cube.validate_node(dst)
        links: set[Link] = set()
        _add_ecube_links(links, _link_table(self.cube.dimension), src, dst)
        return links

    def exchange_links(self, a: int, b: int) -> set[Link]:
        """Links held by a full-duplex pairwise exchange: both e-cube
        directions (their edge sets differ in general)."""
        a = self.cube.validate_node(a)
        b = self.cube.validate_node(b)
        table = _link_table(self.cube.dimension)
        links: set[Link] = set()
        _add_ecube_links(links, table, a, b)
        _add_ecube_links(links, table, b, a)
        return links

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

    def path_scales(self, links: set) -> tuple[float, float]:
        """Worst-case ``(lat_scale, bw_scale)`` along a circuit, from
        the active fault plan (``(1.0, 1.0)`` without one)."""
        plan = self.fault_plan
        if plan is None or not plan.degradations:
            return (1.0, 1.0)
        return plan.path_scales(links)

    # ------------------------------------------------------------------
    # transfers (reserve + record)
    # ------------------------------------------------------------------
    def start_message(
        self, t_ready: float, src: int, dst: int, nbytes: int, tag: int, *, forced: bool
    ) -> Grant:
        """Reserve the circuit for a one-way message and record it."""
        hops = ecube_hops(src, dst)
        circuit = self.circuit_links(src, dst)
        self.check_links_alive(circuit)
        t_ready = self.await_links_alive(t_ready, circuit, src=src, dst=dst, tag=tag)
        lat_scale, bw_scale = self.path_scales(circuit)
        duration = self.message_duration(
            nbytes, hops, forced=forced, lat_scale=lat_scale, bw_scale=bw_scale
        )
        resources: set[object] = set(circuit)
        # Un-synchronized messages serialize with other traffic at both
        # endpoints (§7.2); synchronized exchanges do not pay this.
        resources.add(self.port(src))
        resources.add(self.port(dst))
        grant = self.reserve(t_ready, resources, duration)
        self.trace.record_transmission(
            TransmissionRecord(
                src=src,
                dst=dst,
                nbytes=nbytes,
                hops=hops,
                t_request=t_ready,
                t_start=grant.t_start,
                t_end=grant.t_end,
                kind="forced" if forced else "unforced",
                tag=tag,
            )
        )
        return grant

    def start_cross_message(
        self, t_ready: float, src: int, dst: int, nbytes: int
    ) -> Grant:
        """Reserve the circuit for one background cross-traffic payload.

        Behaves like an un-synchronized FORCED message on the wire
        (links + endpoint ports, so it genuinely contends with the
        workload) but is recorded with ``kind="cross"`` / ``tag=-1`` so
        traces keep workload and background traffic separable."""
        hops = ecube_hops(src, dst)
        circuit = self.circuit_links(src, dst)
        self.check_links_alive(circuit)
        t_ready = self.await_links_alive(t_ready, circuit, src=src, dst=dst, tag=-1)
        lat_scale, bw_scale = self.path_scales(circuit)
        duration = self.message_duration(
            nbytes, hops, forced=True, lat_scale=lat_scale, bw_scale=bw_scale
        )
        resources: set[object] = set(circuit)
        resources.add(self.port(src))
        resources.add(self.port(dst))
        grant = self.reserve(t_ready, resources, duration)
        self.trace.record_transmission(
            TransmissionRecord(
                src=src,
                dst=dst,
                nbytes=nbytes,
                hops=hops,
                t_request=t_ready,
                t_start=grant.t_start,
                t_end=grant.t_end,
                kind="cross",
                tag=-1,
            )
        )
        return grant

    def start_exchange(
        self, t_ready: float, a: int, b: int, nbytes_a: int, nbytes_b: int, tag: int
    ) -> Grant:
        """Reserve both directions for a pairwise exchange and record it.

        ``t_ready`` is the rendezvous instant (both partners present).
        The concurrent bidirectional transfer completes when the larger
        payload does.
        """
        hops = ecube_hops(a, b)
        links = self.exchange_links(a, b)
        self.check_links_alive(links)
        t_ready = self.await_links_alive(t_ready, links, src=a, dst=b, tag=tag)
        lat_scale, bw_scale = self.path_scales(links)
        duration = self.exchange_duration(
            max(nbytes_a, nbytes_b), hops, lat_scale=lat_scale, bw_scale=bw_scale
        )
        grant = self.reserve(t_ready, links, duration)
        for src, dst, nbytes in ((a, b, nbytes_a), (b, a, nbytes_b)):
            self.trace.record_transmission(
                TransmissionRecord(
                    src=src,
                    dst=dst,
                    nbytes=nbytes,
                    hops=hops,
                    t_request=t_ready,
                    t_start=grant.t_start,
                    t_end=grant.t_end,
                    kind="exchange",
                    tag=tag,
                )
            )
        return grant
