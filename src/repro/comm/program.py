"""Replay of exchange schedules on the simulated machine.

Bridges the compiled step lists of :mod:`repro.core.schedule` to the
discrete-event machine: every node runs the same step list, performing
real block movement (either data engine) while the simulator charges
wire, shuffle, and synchronization time.  The result is simultaneously
a *measurement* (virtual µs) and a byte-verified exchange.

Implementation notes mirroring paper §7:

* each phase begins with a global synchronization (the paper posts all
  FORCED receives then synchronizes; our exchange primitive folds the
  receive posting into the §7.2 pairwise rendezvous, and the barrier
  cost γ·d is charged per phase exactly as eq. (3) does);
* each pairwise exchange is charged the effective constants
  λ_eff/δ_eff of §7.4 (zero-byte synchronization included);
* shuffles perform the actual numpy permutation *and* charge ρ per
  byte of the full buffer.

The tag engine's buffer is fixed-slot: each exchange step copies the
partner-bound slots out (:meth:`~repro.core.blocks.BlockBuffer.take`)
and overwrites those same slots with the partner's blocks
(:meth:`~repro.core.blocks.BlockBuffer.put`), so a node holds its ``n``
blocks throughout and no step reallocates the buffer.  The final check
is one pass per node: the expected payloads come from
:func:`~repro.core.blocks.payload_rows` as one ``(n, m)`` matrix and
are compared whole.  :func:`exchange_program` is the one multiphase
loop; ``Communicator.Alltoall`` runs it on user rows.

The fast path prices the same schedules without booting the engine:
the exchange is declared once, as the ``alltoall/multiphase`` row of
:data:`repro.core.programs.PATTERN_TABLE`, whose rounds are expanded
from the :func:`~repro.core.schedule.multiphase_schedule` step list
that ``exchange_program`` executes and lowered to a
:class:`~repro.core.programs.CommProgram` chain — the exchange's one
compiled form — which :mod:`repro.sim.fastpath` prices in one numpy
pass at float equality with the runs here (``fast=True`` below returns
its :class:`~repro.sim.fastpath.ProgramTimeline`).  That is the default
path everywhere; the event-engine replay below is the byte-verifying
oracle, and :func:`repro.check.verify_schedule` certifies the rounds
and checks the compiled program against the step list, which this
SPMD loop still walks.  (The naive
rotation's chain, :func:`repro.core.programs.naive_rotation_steps`, is
contended and priced by the reservation replay.)  The §9 patterns are
not run here: each is one declaration in :mod:`repro.core.programs`,
run by :func:`repro.patterns.simulate_pattern`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Sequence

from repro.core.blocks import BlockBuffer
from repro.core.schedule import ExchangeStep, PhaseStart, ShuffleStep, Step, multiphase_schedule
from repro.core.shuffle import LayoutBuffer
from repro.model.params import MachineParams
from repro.sim.machine import RunResult, SimulatedHypercube
from repro.sim.node import NodeContext
from repro.sim.trace import PlanRecord, Trace
from repro.util.validation import check_dimension, check_message_size, check_partition

__all__ = [
    "SimulatedExchange",
    "exchange_program",
    "naive_program",
    "simulate_exchange",
    "simulate_naive_exchange",
    "simulate_planned_exchange",
]


def _check_fault_plan_engine(fault_plan, fast: bool) -> None:
    """The lockstep fast path models the uniform machine only; pricing
    a degraded machine there would silently ignore the plan."""
    if fast and fault_plan is not None and not fault_plan.is_empty:
        raise ValueError(
            "fault plans require the event engine: pass fast=False "
            "(the fast path assumes a uniform, failure-free machine)"
        )


def exchange_program(
    ctx: NodeContext,
    *,
    steps: Sequence[Step],
    m: int | None = None,
    rows=None,
    engine: str = "tags",
    tag_base: int = 0,
) -> Generator:
    """SPMD node program executing a compiled exchange schedule.

    Pass ``m`` for pattern payloads, or ``rows`` (``(n, m)`` uint8, row
    ``j`` bound for rank ``j``) to exchange user data — the one
    multiphase loop, shared by ``simulate_exchange`` and
    ``Communicator.Alltoall``.  Step ``i`` is tagged ``tag_base + i``.
    Returns the node's final buffer (verified by the caller).
    """
    if (m is None) == (rows is None):
        raise ValueError("pass exactly one of m (pattern payload) or rows (user data)")
    if engine == "tags":
        buf: BlockBuffer | LayoutBuffer = (
            BlockBuffer.from_rows(ctx.rank, ctx.d, rows) if m is None
            else BlockBuffer.initial(ctx.rank, ctx.d, m)
        )
    elif engine == "layout":
        buf = (
            LayoutBuffer.from_rows(ctx.rank, ctx.d, rows) if m is None
            else LayoutBuffer(ctx.rank, ctx.d, m)
        )
    else:
        raise ValueError(f"unknown engine {engine!r}; expected 'tags' or 'layout'")
    total_bytes = buf.m * ctx.n

    for index, step in enumerate(steps):
        if isinstance(step, PhaseStart):
            yield ctx.mark_phase(step.phase_index)
            yield ctx.barrier()
        elif isinstance(step, ExchangeStep):
            partner = step.partner(ctx.rank)
            partner_coord = (partner >> step.group.lo) & ((1 << step.group.width) - 1)
            tag = tag_base + index
            if isinstance(buf, BlockBuffer):
                slots = buf.slots_for(partner, ~step.group.mask)
                outgoing = buf.take(slots)
                received = yield ctx.exchange(partner, outgoing, nbytes=outgoing.nbytes, tag=tag)
                buf.put(slots, received)
            else:
                outgoing = buf.take_run(step.group, partner_coord)
                received = yield ctx.exchange(
                    partner, outgoing, nbytes=outgoing[2].size, tag=tag
                )
                buf.put_run(step.group, partner_coord, *received)
        elif isinstance(step, ShuffleStep):
            if isinstance(buf, LayoutBuffer):
                buf.shuffle(step.times)
            yield ctx.shuffle(total_bytes)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step type {type(step).__name__}")
    return buf


@dataclass
class SimulatedExchange:
    """A measured, verified complete exchange on the simulated machine."""

    d: int
    m: int
    partition: tuple[int, ...]
    params_name: str
    #: virtual completion time in µs — the 'measured' value of the
    #: paper's solid curves
    time_us: float
    trace: Trace
    #: the event-engine run, or ``None`` for a fast-path timing (no
    #: processes were booted, no data moved)
    run: RunResult | None
    #: the planner decision behind this run, when a planner chose the
    #: algorithm (``None`` for directly requested partitions)
    decision: Any = None
    #: the fast path's per-step :class:`~repro.sim.fastpath.ProgramTimeline`
    #: of the exchange program (``None`` on event-engine runs and naive
    #: fast-path timings)
    timeline: Any = None

    @property
    def time_s(self) -> float:
        return self.time_us * 1e-6

    def verify(self, *, check_payload: bool = True) -> None:
        """Byte-verify every node's final buffer."""
        if self.run is None:
            raise ValueError(
                "fast-path timings move no data, so there is nothing to "
                "byte-verify; rerun with fast=False for a verified exchange"
            )
        for buf in self.run.node_results:
            if isinstance(buf, LayoutBuffer):
                buf.verify_final(check_payload=check_payload)
            else:
                buf.verify_complete_exchange_result(check_payload=check_payload)


def simulate_exchange(
    d: int,
    m: int,
    partition: Sequence[int] | None,
    params: MachineParams,
    *,
    engine: str = "tags",
    verify: bool = True,
    fast: bool = False,
    fault_plan=None,
) -> SimulatedExchange:
    """Run one complete exchange on a fresh simulated machine.

    This is the library's "measured" data point: the virtual time the
    calibrated machine needs for the given partition and block size.

    With ``fast=True`` the timing comes from the vectorized lockstep
    engine (:mod:`repro.sim.fastpath`) instead of booting coroutine
    processes — float-identical for these contention-free schedules,
    orders of magnitude cheaper, but no data moves (``verify`` is
    ignored; there are no buffers to check), so ``m`` may be
    fractional.  The event engine moves ``m``-byte blocks: there an
    ``m`` that is not a non-negative int raises :class:`ValueError`
    before the machine boots.

    A ``fault_plan`` (:class:`repro.sim.faults.FaultPlan`) degrades the
    machine; only the event engine understands one — the lockstep fast
    path assumes the uniform machine, so ``fast=True`` with a non-empty
    plan raises.

    >>> from repro.model.params import ipsc860
    >>> result = simulate_exchange(3, 16, (2, 1), ipsc860())
    >>> result.time_us > 0
    True
    >>> simulate_exchange(3, 16, (2, 1), ipsc860(), fast=True).time_us == result.time_us
    True
    """
    check_dimension(d, minimum=1)
    parts = check_partition(partition if partition is not None else (d,), d)
    _check_fault_plan_engine(fault_plan, fast)
    if fast:
        from repro.sim.fastpath import exchange_timeline

        timeline = exchange_timeline(d, m, parts, params)
        return SimulatedExchange(
            d=d,
            m=m,
            partition=parts,
            params_name=params.name,
            time_us=timeline.total,
            trace=Trace(),
            run=None,
            timeline=timeline,
        )
    check_message_size(m)
    steps = multiphase_schedule(d, parts)
    machine = SimulatedHypercube(d, params, fault_plan=fault_plan)
    run = machine.run(exchange_program, steps=steps, m=m, engine=engine)
    result = SimulatedExchange(
        d=d,
        m=m,
        partition=parts,
        params_name=params.name,
        time_us=run.time,
        trace=run.trace,
        run=run,
    )
    if verify:
        result.verify()
    return result


def simulate_planned_exchange(
    d: int,
    m: int,
    planner,
    params: MachineParams,
    *,
    engine: str = "tags",
    verify: bool = True,
    fast: bool = False,
    fault_plan=None,
) -> SimulatedExchange:
    """Run one complete exchange with the algorithm chosen by a planner.

    ``planner`` is any object with ``decide(d, m) -> PlanDecision``
    (normally :class:`repro.plan.CollectivePlanner`).  The decision —
    standard, multiphase, single-phase, or the naive rotation baseline
    — is recorded in the run's trace (``trace.plan_decisions``) and
    attached to the result, so a measured time can always be traced
    back to why that algorithm ran.

    With ``fast=True`` the decision is priced by the fast-path engine
    instead of being replayed on the event machine: float-identical on
    contention-free schedules, reservation-replay pricing for the
    naive baseline, no data movement (``verify`` is ignored).  The
    plan record still lands in the result's trace.  On the event engine
    ``m`` must be a non-negative int; it is checked before the planner
    is asked.

    >>> from repro.model.params import ipsc860
    >>> from repro.plan import CollectivePlanner, ModelPolicy
    >>> planner = CollectivePlanner(ModelPolicy(ipsc860()))
    >>> result = simulate_planned_exchange(3, 16, planner, ipsc860())
    >>> result.decision.partition == result.partition
    True
    >>> len(result.trace.plan_decisions)
    1
    """
    check_dimension(d, minimum=1)
    _check_fault_plan_engine(fault_plan, fast)
    if not fast:
        check_message_size(m)
    decision = planner.decide(d, m)
    if fast:
        from repro.sim.fastpath import exchange_timeline, naive_exchange_time

        trace = Trace()
        trace.record_plan(PlanRecord.from_decision(decision))
        timeline = None
        if decision.algorithm == "naive":
            partition: tuple[int, ...] = ()
            time_us = naive_exchange_time(d, m, params)
        else:
            partition = check_partition(decision.partition, d)
            timeline = exchange_timeline(d, m, partition, params)
            time_us = timeline.total
        return SimulatedExchange(
            d=d,
            m=m,
            partition=partition,
            params_name=params.name,
            time_us=time_us,
            trace=trace,
            run=None,
            decision=decision,
            timeline=timeline,
        )
    machine = SimulatedHypercube(d, params, fault_plan=fault_plan)
    machine.trace.record_plan(PlanRecord.from_decision(decision))
    if decision.algorithm == "naive":
        run = machine.run(naive_program, m=m)
        partition: tuple[int, ...] = ()
    else:
        partition = check_partition(decision.partition, d)
        steps = multiphase_schedule(d, partition)
        run = machine.run(exchange_program, steps=steps, m=m, engine=engine)
    result = SimulatedExchange(
        d=d,
        m=m,
        partition=partition,
        params_name=params.name,
        time_us=run.time,
        trace=run.trace,
        run=run,
        decision=decision,
    )
    if verify:
        result.verify()
    return result


# ----------------------------------------------------------------------
# negative control: a naive, contention-oblivious schedule
# ----------------------------------------------------------------------
def naive_program(
    ctx: NodeContext,
    *,
    m: int | None = None,
    rows=None,
    tag_base: int = 0,
) -> Generator:
    """Rotation-order all-to-all that ignores the machine's idiosyncrasies.

    Step ``s`` sends this node's block to ``(rank + s) mod n`` — the
    textbook schedule for a crossbar.  Each rotation step is in fact
    statically link-clean under e-cube, but without pairwise
    synchronization the nearly-simultaneous send/receive traffic at
    each node serializes (§7.2), nodes drift out of step, and circuits
    from *different* steps start overlapping on links.  The measured
    result is the §2 warning in action: circuit switching does not let
    programmers ignore the network.

    Correct (byte-verified) but slow; compare against the XOR schedule
    at identical message count and volume.  Pass ``m`` for pattern
    payloads, or ``rows`` (``(n, m)`` uint8, row ``j`` bound for rank
    ``j``) to exchange user data — this is the one implementation of
    the naive schedule, shared by ``simulate_naive_exchange`` and
    ``Communicator.Alltoall(algorithm="naive")``.
    """
    if (m is None) == (rows is None):
        raise ValueError("pass exactly one of m (pattern payload) or rows (user data)")
    if rows is not None:
        buf = BlockBuffer.from_rows(ctx.rank, ctx.d, rows)
    else:
        buf = BlockBuffer.initial(ctx.rank, ctx.d, m)
    n = ctx.n
    # FORCED discipline: post every receive, then synchronize (§7.3).
    for s in range(1, n):
        src = (ctx.rank - s) % n
        yield ctx.post_recv(src, tag=tag_base + s)
    yield ctx.barrier()
    # the block received at step s refills the slot sent at step s
    sent_slots = {}
    for s in range(1, n):
        dst = (ctx.rank + s) % n
        sent_slots[s] = buf.slots_for(dst, 0)
        outgoing = buf.take(sent_slots[s])
        yield ctx.send(dst, outgoing, outgoing.nbytes, tag=tag_base + s, forced=True)
    for s in range(1, n):
        src = (ctx.rank - s) % n
        received = yield ctx.recv(src, tag=tag_base + s)
        buf.put(sent_slots[s], received)
    return buf


def simulate_naive_exchange(
    d: int,
    m: int,
    params: MachineParams,
    *,
    verify: bool = True,
    fast: bool = False,
) -> SimulatedExchange:
    """Measure the naive rotation schedule (contended baseline).

    With ``fast=True`` the contended timing comes from the fast path's
    reservation replay (:func:`repro.sim.fastpath.naive_exchange_time`)
    — same greedy link/port serialization, no coroutines, no data
    movement (``verify`` is ignored).  On the event engine ``m`` must
    be a non-negative int.
    """
    check_dimension(d, minimum=1)
    if fast:
        from repro.sim.fastpath import naive_exchange_time

        return SimulatedExchange(
            d=d,
            m=m,
            partition=(),
            params_name=params.name,
            time_us=naive_exchange_time(d, m, params),
            trace=Trace(),
            run=None,
        )
    check_message_size(m)
    machine = SimulatedHypercube(d, params)
    run = machine.run(naive_program, m=m)
    result = SimulatedExchange(
        d=d,
        m=m,
        partition=(),
        params_name=params.name,
        time_us=run.time,
        trace=run.trace,
        run=run,
    )
    if verify:
        result.verify()
    return result
