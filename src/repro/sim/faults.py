"""Seeded, deterministic fault injection for the simulated machine.

Everything built before this module assumes a uniform, failure-free
hypercube — exactly the idealization the paper makes.  A
:class:`FaultPlan` breaks that idealization on purpose, in four
declared (and independently toggleable) ways:

* **link degradation** — per-directed-link latency/bandwidth scale
  factors (≥ 1.0) drawn from declared uniform ranges; a transfer whose
  e-cube circuit crosses a degraded link runs at the *worst* scale
  along its path (the slow link gates the circuit);
* **stragglers** — nodes with a compute-slowdown multiplier applied to
  local work (delays and shuffle passes);
* **transient link outages** — scheduled ``[t_fail, t_heal)`` windows
  during which a directed link cannot carry a circuit; a sender whose
  path crosses a down link *blocks and retries* with deterministic
  capped exponential backoff until the heal time (recorded in the
  trace), it never loses the block;
* **cross-traffic** — background flows that periodically reserve an
  e-cube circuit for a fixed payload, stealing link time from the
  workload without participating in it.

The plan is *data*, not behaviour: :class:`~repro.sim.network.Network`
and :class:`~repro.sim.machine.SimulatedHypercube` consume it natively,
and the pricing stack mirrors it
(:func:`repro.model.cost.degraded_multiphase_time`).  Generation is
fully seeded (``numpy`` ``default_rng``): the same ``(d, seed,
knobs)`` always yields the identical plan, which is what makes a chaos
sweep reproducible run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.hypercube.topology import Hypercube, Link
from repro.util.validation import check_dimension

__all__ = [
    "CrossTraffic",
    "FaultPlan",
    "LinkDegradation",
    "LinkOutage",
    "Straggler",
]

#: hard cap on block-and-retry attempts for one transfer; a plan whose
#: outage outlasts this many capped backoffs is a configuration error,
#: not a survivable transient
MAX_RETRY_ATTEMPTS = 10_000


@dataclass(frozen=True)
class LinkDegradation:
    """One directed link running slow: scale factors on λ and τ."""

    link: Link
    #: multiplies the startup/handshake (λ-like) share of a transfer
    latency_scale: float = 1.0
    #: multiplies the per-byte (τ) share of a transfer
    bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_scale < 1.0 or self.bandwidth_scale < 1.0:
            raise ValueError(
                f"degradation scales must be >= 1.0, got "
                f"latency {self.latency_scale}/bandwidth {self.bandwidth_scale} "
                f"for {self.link}"
            )


@dataclass(frozen=True)
class Straggler:
    """One slow node: local compute runs ``compute_scale`` times slower."""

    node: int
    compute_scale: float

    def __post_init__(self) -> None:
        if self.compute_scale < 1.0:
            raise ValueError(
                f"compute_scale must be >= 1.0, got {self.compute_scale} "
                f"for node {self.node}"
            )


@dataclass(frozen=True)
class LinkOutage:
    """One transient failure: the link is down for ``[t_fail, t_heal)``."""

    link: Link
    t_fail: float
    t_heal: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_fail < self.t_heal:
            raise ValueError(
                f"need 0 <= t_fail < t_heal, got [{self.t_fail}, {self.t_heal}) "
                f"for {self.link}"
            )

    @property
    def duration(self) -> float:
        return self.t_heal - self.t_fail

    def covers(self, t: float) -> bool:
        return self.t_fail <= t < self.t_heal


@dataclass(frozen=True)
class CrossTraffic:
    """One background flow: ``n_messages`` payloads of ``nbytes`` from
    ``src`` to ``dst``, one every ``period_us`` starting at ``t_first``."""

    src: int
    dst: int
    nbytes: int
    period_us: float
    t_first: float = 0.0
    n_messages: int = 1

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"cross-traffic flow {self.src}->{self.dst} is a self-loop")
        if self.nbytes < 0 or self.period_us <= 0 or self.t_first < 0:
            raise ValueError(
                f"bad cross-traffic flow: nbytes={self.nbytes}, "
                f"period_us={self.period_us}, t_first={self.t_first}"
            )
        if self.n_messages < 1:
            raise ValueError(f"n_messages must be >= 1, got {self.n_messages}")

    def emission_times(self) -> list[float]:
        return [self.t_first + i * self.period_us for i in range(self.n_messages)]


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic description of how a machine misbehaves.

    Build one directly from explicit records, or draw one from declared
    distributions with :meth:`generate` (seeded; identical seed ->
    identical plan).  An *empty* plan is behaviourally inert: the
    network and pricing layers treat it exactly like no plan at all
    (asserted by the zero-overhead benchmark).
    """

    d: int
    degradations: tuple[LinkDegradation, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    outages: tuple[LinkOutage, ...] = ()
    cross_traffic: tuple[CrossTraffic, ...] = ()
    #: first block-and-retry backoff delay (µs)
    retry_base_us: float = 50.0
    #: backoff cap (µs); delays double from the base up to this
    retry_cap_us: float = 800.0
    seed: int | None = None
    #: lookup tables, derived in ``__post_init__``; links are keyed by
    #: their dense id (:meth:`~repro.hypercube.topology.Hypercube.link_index`),
    #: the id the network's reservation table uses
    _degraded: dict = field(default_factory=dict, repr=False, compare=False)
    _compute: dict = field(default_factory=dict, repr=False, compare=False)
    _outage_map: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_dimension(self.d, minimum=1)
        if self.retry_base_us <= 0 or self.retry_cap_us < self.retry_base_us:
            raise ValueError(
                f"need 0 < retry_base_us <= retry_cap_us, got "
                f"{self.retry_base_us}/{self.retry_cap_us}"
            )
        cube = Hypercube(self.d)
        for record in self.degradations:
            cube.validate_node(record.link.src)
            cube.validate_node(record.link.dst)
            self._degraded[cube.link_index(record.link)] = record
        for straggler in self.stragglers:
            cube.validate_node(straggler.node)
            self._compute[straggler.node] = straggler.compute_scale
        for outage in self.outages:
            cube.validate_node(outage.link.src)
            cube.validate_node(outage.link.dst)
            self._outage_map.setdefault(cube.link_index(outage.link), []).append(outage)
        for flow in self.cross_traffic:
            cube.validate_node(flow.src)
            cube.validate_node(flow.dst)

    # ------------------------------------------------------------------
    # queries the network/machine make on the hot path
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (
            self.degradations or self.stragglers or self.outages or self.cross_traffic
        )

    def _link_id(self, link: Link) -> int:
        """Table key of ``link``; a link of another cube gets ``-1``,
        which no record carries."""
        try:
            return Hypercube(self.d).link_index(link)
        except ValueError:
            return -1

    def link_scales(self, link: Link) -> tuple[float, float]:
        """``(latency_scale, bandwidth_scale)`` of one directed link."""
        record = self._degraded.get(self._link_id(link))
        if record is None:
            return (1.0, 1.0)
        return (record.latency_scale, record.bandwidth_scale)

    def path_scales(self, links: Iterable[object]) -> tuple[float, float]:
        """Worst-case scales along a circuit: the slowest link gates it.
        Entries that are not links (e.g. endpoint ports) are ignored."""
        return self.path_scales_by_id(
            self._link_id(link) for link in links if isinstance(link, Link)
        )

    def path_scales_by_id(self, link_ids: Iterable[int]) -> tuple[float, float]:
        """:meth:`path_scales` of a circuit given as link ids."""
        lat = bw = 1.0
        degraded = self._degraded
        for link_id in link_ids:
            record = degraded.get(link_id)
            if record is not None:
                lat = max(lat, record.latency_scale)
                bw = max(bw, record.bandwidth_scale)
        return (lat, bw)

    def compute_scale(self, node: int) -> float:
        """Local-compute slowdown multiplier of ``node`` (1.0 normally)."""
        return self._compute.get(node, 1.0)

    def down_until(self, link: Link, t: float) -> float | None:
        """Heal time if ``link`` is inside an outage window at ``t``."""
        return self.down_until_by_id(self._link_id(link), t)

    def down_until_by_id(self, link_id: int, t: float) -> float | None:
        """:meth:`down_until` of the link with id ``link_id``."""
        for outage in self._outage_map.get(link_id, ()):
            if outage.covers(t):
                return outage.t_heal
        return None

    def backoff_us(self, attempt: int) -> float:
        """Deterministic capped exponential backoff: delay before retry
        number ``attempt`` (0-based).  No jitter — the project bans
        ambient randomness, and virtual-time retries gain nothing from
        desynchronization."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return min(self.retry_cap_us, self.retry_base_us * (2.0 ** attempt))

    # ------------------------------------------------------------------
    # aggregate statistics the pricing layer consumes
    # ------------------------------------------------------------------
    def _n_directed_links(self) -> int:
        return self.d << self.d

    def mean_latency_scale(self) -> float:
        """Mean latency scale over *all* directed links (missing = 1.0)."""
        n = self._n_directed_links()
        excess = sum(rec.latency_scale - 1.0 for rec in self.degradations)
        return 1.0 + excess / n

    def mean_bandwidth_scale(self) -> float:
        """Mean bandwidth scale over all directed links (missing = 1.0)."""
        n = self._n_directed_links()
        excess = sum(rec.bandwidth_scale - 1.0 for rec in self.degradations)
        return 1.0 + excess / n

    def max_compute_scale(self) -> float:
        """The slowest node's compute scale — barrier-synchronized
        phases run at the straggler's pace."""
        return max((s.compute_scale for s in self.stragglers), default=1.0)

    def expected_stall_us(self) -> float:
        """Expected per-transmission outage stall, in µs.

        Heuristic penalty term: total scheduled downtime spread over
        every directed link, halved because a transmission that does
        hit a window arrives uniformly inside it and waits out the
        remainder (half the window in expectation).
        """
        total_downtime = sum(outage.duration for outage in self.outages)
        return 0.5 * total_downtime / self._n_directed_links()

    # ------------------------------------------------------------------
    # serialization (chaos CLI --json, reproducibility checks)
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "seed": self.seed,
            "retry_base_us": self.retry_base_us,
            "retry_cap_us": self.retry_cap_us,
            "degradations": [
                {
                    "link": [rec.link.src, rec.link.dst],
                    "latency_scale": rec.latency_scale,
                    "bandwidth_scale": rec.bandwidth_scale,
                }
                for rec in self.degradations
            ],
            "stragglers": [
                {"node": s.node, "compute_scale": s.compute_scale}
                for s in self.stragglers
            ],
            "outages": [
                {
                    "link": [o.link.src, o.link.dst],
                    "t_fail": o.t_fail,
                    "t_heal": o.t_heal,
                }
                for o in self.outages
            ],
            "cross_traffic": [
                {
                    "src": f.src,
                    "dst": f.dst,
                    "nbytes": f.nbytes,
                    "period_us": f.period_us,
                    "t_first": f.t_first,
                    "n_messages": f.n_messages,
                }
                for f in self.cross_traffic
            ],
        }

    # ------------------------------------------------------------------
    # seeded generation from declared distributions
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        d: int,
        seed: int | Sequence[int],
        *,
        degraded_link_fraction: float = 0.0,
        latency_scale_range: tuple[float, float] = (1.5, 3.0),
        bandwidth_scale_range: tuple[float, float] = (1.5, 3.0),
        straggler_fraction: float = 0.0,
        straggler_scale_range: tuple[float, float] = (2.0, 4.0),
        link_failure_rate: float = 0.0,
        horizon_us: float = 50_000.0,
        outage_duration_range_us: tuple[float, float] = (500.0, 5_000.0),
        cross_traffic_flows: int = 0,
        cross_traffic_nbytes: int = 256,
        cross_traffic_period_range_us: tuple[float, float] = (500.0, 2_000.0),
        retry_base_us: float = 50.0,
        retry_cap_us: float = 800.0,
    ) -> "FaultPlan":
        """Draw a plan from declared distributions, deterministically.

        Fractions/rates are per *undirected wire* (degradation and
        outages hit both directions of a physical channel, matching
        ``fail_link``'s default) and per node for stragglers.  Outage
        windows start uniformly in ``[0, horizon_us)`` with durations
        from ``outage_duration_range_us``.  Every draw comes from one
        ``default_rng(seed)`` stream in a fixed iteration order, so a
        seed fully determines the plan.
        """
        check_dimension(d, minimum=1)
        for name, value in (
            ("degraded_link_fraction", degraded_link_fraction),
            ("straggler_fraction", straggler_fraction),
            ("link_failure_rate", link_failure_rate),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        rng = np.random.default_rng(seed)
        cube = Hypercube(d)
        wires = sorted({link.undirected for link in cube.links()})

        degradations: list[LinkDegradation] = []
        outages: list[LinkOutage] = []
        for u, v in wires:
            if rng.random() < degraded_link_fraction:
                lat = float(rng.uniform(*latency_scale_range))
                bw = float(rng.uniform(*bandwidth_scale_range))
                degradations.append(LinkDegradation(Link(u, v), lat, bw))
                degradations.append(LinkDegradation(Link(v, u), lat, bw))
            if rng.random() < link_failure_rate:
                t_fail = float(rng.uniform(0.0, horizon_us))
                duration = float(rng.uniform(*outage_duration_range_us))
                outages.append(LinkOutage(Link(u, v), t_fail, t_fail + duration))
                outages.append(LinkOutage(Link(v, u), t_fail, t_fail + duration))

        stragglers = [
            Straggler(node, float(rng.uniform(*straggler_scale_range)))
            for node in cube.nodes()
            if rng.random() < straggler_fraction
        ]

        flows: list[CrossTraffic] = []
        for _ in range(cross_traffic_flows):
            src = int(rng.integers(0, cube.n_nodes))
            dst = int(rng.integers(0, cube.n_nodes))
            if src == dst:
                dst = (dst + 1) % cube.n_nodes
            period = float(rng.uniform(*cross_traffic_period_range_us))
            t_first = float(rng.uniform(0.0, period))
            n_messages = max(1, int(horizon_us / period))
            flows.append(
                CrossTraffic(
                    src=src,
                    dst=dst,
                    nbytes=cross_traffic_nbytes,
                    period_us=period,
                    t_first=t_first,
                    n_messages=n_messages,
                )
            )

        plan_seed = seed if isinstance(seed, int) else None
        return cls(
            d=d,
            degradations=tuple(degradations),
            stragglers=tuple(stragglers),
            outages=tuple(outages),
            cross_traffic=tuple(flows),
            retry_base_us=retry_base_us,
            retry_cap_us=retry_cap_us,
            seed=plan_seed,
        )
