"""Trace capture and statistics for simulated runs.

Every transmission, barrier, shuffle and message drop is recorded with
its virtual-time interval; the statistics layer turns the records into
the quantities the benchmarks report (makespan, contention wait, link
utilization, per-phase breakdowns).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = [
    "BarrierRecord",
    "PlanRecord",
    "RetryRecord",
    "ShuffleRecord",
    "Trace",
    "TransmissionRecord",
]


@dataclass(frozen=True, slots=True)
class TransmissionRecord:
    """One message or pairwise exchange on the wire.

    ``t_request`` is when the sender asked for the circuit,
    ``t_start`` when every link of the path was granted (the difference
    is contention wait), ``t_end`` when the transfer completed.
    Slotted: two are built per exchange pair.
    """

    src: int
    dst: int
    nbytes: int
    hops: int
    t_request: float
    t_start: float
    t_end: float
    kind: str  # "exchange", "forced", "unforced"
    tag: int = 0

    @property
    def wait(self) -> float:
        """Contention wait before the circuit was granted."""
        return self.t_start - self.t_request

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class BarrierRecord:
    """One global synchronization."""

    t_first_arrival: float
    t_release: float
    n_participants: int


@dataclass(frozen=True)
class ShuffleRecord:
    """One local permutation pass."""

    node: int
    nbytes: int
    t_start: float
    t_end: float


@dataclass(frozen=True)
class RetryRecord:
    """One blocked-and-retried transfer attempt under fault injection.

    A sender whose circuit crosses a link inside a scheduled outage
    window does not lose the block: it waits a deterministic capped
    backoff and tries again.  Each such wait is recorded here —
    ``attempt`` counts from 0, ``t_blocked`` is when the dead link was
    observed, ``t_retry`` when the sender will look again, ``link``
    names the gating dead link (as a ``"src->dst"`` string)."""

    src: int
    dst: int
    tag: int
    attempt: int
    t_blocked: float
    t_retry: float
    link: str

    @property
    def backoff(self) -> float:
        return self.t_retry - self.t_blocked


@dataclass(frozen=True)
class PlanRecord:
    """One collective-planning decision taken for this run.

    Recorded when a planner (rather than a hardcoded partition) chose
    the algorithm for a collective — the audit trail linking the
    optimizer's advice to what the machine actually executed.
    ``predicted_us`` is ``None`` for algorithms without an analytic
    model (the naive rotation baseline).
    """

    d: int
    m: float
    algorithm: str
    partition: tuple[int, ...] | None
    predicted_us: float | None
    policy: str
    t_decided: float = 0.0

    @classmethod
    def from_decision(cls, decision, t_decided: float = 0.0) -> "PlanRecord":
        """Snapshot a :class:`repro.plan.PlanDecision` (duck-typed, so
        the sim layer stays independent of the plan package)."""
        return cls(
            d=decision.d,
            m=float(decision.m),
            algorithm=decision.algorithm,
            partition=decision.partition,
            predicted_us=decision.predicted_us,
            policy=decision.policy,
            t_decided=t_decided,
        )


@dataclass
class Trace:
    """Accumulated records of one simulated run."""

    transmissions: list[TransmissionRecord] = field(default_factory=list)
    barriers: list[BarrierRecord] = field(default_factory=list)
    shuffles: list[ShuffleRecord] = field(default_factory=list)
    dropped_messages: list[tuple[int, int, int, float]] = field(default_factory=list)
    phase_marks: list[tuple[int, float]] = field(default_factory=list)
    plan_decisions: list[PlanRecord] = field(default_factory=list)
    retries: list[RetryRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_transmission(self, record: TransmissionRecord) -> None:
        self.transmissions.append(record)

    def record_barrier(self, record: BarrierRecord) -> None:
        self.barriers.append(record)

    def record_shuffle(self, record: ShuffleRecord) -> None:
        self.shuffles.append(record)

    def record_drop(self, src: int, dst: int, tag: int, time: float) -> None:
        self.dropped_messages.append((src, dst, tag, time))

    def mark_phase(self, phase_index: int, time: float) -> None:
        self.phase_marks.append((phase_index, time))

    def record_plan(self, record: PlanRecord) -> None:
        self.plan_decisions.append(record)

    def record_retry(self, record: RetryRecord) -> None:
        self.retries.append(record)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Last completion time over all recorded activity."""
        ends = [t.t_end for t in self.transmissions]
        ends += [b.t_release for b in self.barriers]
        ends += [s.t_end for s in self.shuffles]
        return max(ends, default=0.0)

    @property
    def total_contention_wait(self) -> float:
        """Summed circuit-grant delays; zero for contention-free
        schedules (asserted by the tests for all paper schedules)."""
        return sum(t.wait for t in self.transmissions)

    @property
    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.transmissions)

    @property
    def n_transmissions(self) -> int:
        return len(self.transmissions)

    def transmissions_per_node(self) -> Counter:
        """Transmission counts keyed by source node."""
        return Counter(t.src for t in self.transmissions)

    def per_phase_times(self) -> list[tuple[int, float, float]]:
        """(phase_index, t_begin, t_end) using the recorded phase marks.

        The end of phase ``i`` is the beginning of phase ``i+1`` (or
        the makespan for the last phase).
        """
        if not self.phase_marks:
            return []
        marks = sorted(set(self.phase_marks), key=lambda item: item[1])
        out = []
        for idx, (phase, begin) in enumerate(marks):
            end = marks[idx + 1][1] if idx + 1 < len(marks) else self.makespan
            out.append((phase, begin, end))
        return out

    def summary(self) -> dict[str, float]:
        """Headline statistics for bench output."""
        return {
            "makespan_us": self.makespan,
            "n_transmissions": float(self.n_transmissions),
            "total_bytes": float(self.total_bytes),
            "contention_wait_us": self.total_contention_wait,
            "n_barriers": float(len(self.barriers)),
            "n_shuffles": float(len(self.shuffles)),
            "n_drops": float(len(self.dropped_messages)),
            "n_plan_decisions": float(len(self.plan_decisions)),
            "n_retries": float(len(self.retries)),
        }
