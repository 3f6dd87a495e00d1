"""The simulated circuit-switched hypercube.

:class:`SimulatedHypercube` assembles the event engine, network, and
synchronization services, boots one SPMD program per node, and resolves
the requests the programs yield.  The result of a run carries the
virtual makespan, every node's return value, and the full trace.

Waits that end at one instant share one
:class:`~repro.sim.engine.SharedCompletion` event, resumed in the order
separate events would fire: both partners of an exchange (the
second-arriving first), every barrier waiter (arrival order) and the
node starts (rank order, before any cross-traffic flow).  A phase mark
(:meth:`NodeContext.mark_phase`) is called, not yielded, and takes no
event.  A multiphase exchange thus dispatches
``1 + phases + n/2·(exchange steps) + n·(shuffle steps)`` events; the
other zero-delay events (a posted receive's resume, a buffered
message's delivery, a cross-traffic flow's start) never occur in a
fault-free multiphase exchange.

Example
-------
>>> from repro.model.params import ipsc860
>>> machine = SimulatedHypercube(2, ipsc860())
>>> def program(ctx):
...     other = ctx.rank ^ 1
...     data = yield ctx.exchange(other, payload=ctx.rank, nbytes=8)
...     return data
>>> result = machine.run(program)
>>> [result.node_results[r] for r in range(4)]
[1, 0, 3, 2]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.hypercube.topology import Hypercube
from repro.model.params import MachineParams
from repro.sim.engine import Delay, Engine, Process, Request, SharedCompletion, SimulationError
from repro.sim.faults import CrossTraffic, FaultPlan
from repro.sim.node import (
    BarrierReq,
    ExchangeReq,
    NodeContext,
    PostRecvReq,
    RecvReq,
    SendReq,
    ShuffleReq,
    _Envelope,
)
from repro.sim.network import Network
from repro.sim.trace import BarrierRecord, ShuffleRecord, Trace

__all__ = ["RunResult", "SimulatedHypercube"]

ProgramFactory = Callable[[NodeContext], Generator]


@dataclass
class RunResult:
    """Outcome of one simulated SPMD run."""

    #: virtual time at which the last process finished (µs)
    time: float
    #: per-rank program return values
    node_results: list[Any]
    #: full event trace
    trace: Trace
    #: number of engine events dispatched
    n_events: int = 0
    extras: dict[str, Any] = field(default_factory=dict)


class SimulatedHypercube:
    """A circuit-switched hypercube with calibrated timing.

    Parameters
    ----------
    d:
        Cube dimension.
    params:
        Machine constants (see :mod:`repro.model.params`).
    strict_forced:
        When True (default), a FORCED message arriving with no posted
        receive raises :class:`SimulationError` — the paper calls this
        situation "fatal".  When False the message is silently dropped
        and recorded in the trace (useful for demonstrating *why* the
        global synchronization is required).
    fault_plan:
        Optional :class:`~repro.sim.faults.FaultPlan` the machine obeys
        natively: degraded links scale transfer times, stragglers scale
        local compute (delays and shuffles), scheduled outages make
        senders block-and-retry, and cross-traffic flows run as
        background processes stealing link time.  ``None`` (default)
        keeps every code path identical to the fault-free machine.
    """

    def __init__(
        self,
        d: int,
        params: MachineParams,
        *,
        strict_forced: bool = True,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.cube = Hypercube(d)
        self.params = params
        self.strict_forced = strict_forced
        self.fault_plan = fault_plan
        self.engine = Engine()
        self.trace = Trace()
        self.network = Network(self.cube, params, self.trace, fault_plan=fault_plan)
        self._cross_spawned = False
        self.contexts = [NodeContext(self, rank) for rank in self.cube.nodes()]
        # pairwise-exchange rendezvous: (a, b, tag) -> (request,
        # process, wait token at registration)
        self._rendezvous: dict[tuple[int, int, int], tuple[ExchangeReq, Process, int]] = {}
        # barrier bookkeeping
        # (process, wait token, arrival time) per barrier arrival
        self._barrier_waiters: list[tuple[Process, int, float]] = []
        self._phase_marked: set[int] = set()

    # ------------------------------------------------------------------
    # running programs
    # ------------------------------------------------------------------
    def run(self, program: ProgramFactory, **kwargs: Any) -> RunResult:
        """Boot ``program(ctx, **kwargs)`` on every node and simulate to
        completion."""
        processes = self.engine.spawn_group([
            (program(ctx, **kwargs) if kwargs else program(ctx), f"node{ctx.rank}")
            for ctx in self.contexts
        ])
        self._spawn_cross_traffic()
        time = self.engine.run()
        extras: dict[str, Any] = {}
        if self.fault_plan is not None and self.fault_plan.cross_traffic:
            # background flows may drain after the workload; completion
            # is when the *node programs* finished, not when the last
            # cross-traffic message left the wire
            extras["engine_time"] = time
            time = max((p.end_time or 0.0) for p in processes)
        return RunResult(
            time=time,
            node_results=[p.result for p in processes],
            trace=self.trace,
            n_events=self.engine.n_events,
            extras=extras,
        )

    # ------------------------------------------------------------------
    # fault-plan hooks
    # ------------------------------------------------------------------
    def compute_scale(self, rank: int) -> float:
        """Straggler compute-slowdown multiplier of ``rank`` (1.0
        without a fault plan)."""
        if self.fault_plan is None:
            return 1.0
        return self.fault_plan.compute_scale(rank)

    def _spawn_cross_traffic(self) -> None:
        """Boot one background process per declared cross-traffic flow
        (once per machine; flows use absolute emission times, so later
        ``run()`` calls on the same machine don't respawn them)."""
        plan = self.fault_plan
        if plan is None or self._cross_spawned or not plan.cross_traffic:
            return
        self._cross_spawned = True
        for index, flow in enumerate(plan.cross_traffic):
            self.engine.spawn(
                self._cross_traffic_program(flow), name=f"cross{index}"
            )

    def _cross_traffic_program(self, flow: CrossTraffic) -> Generator:
        """Fire-and-forget background sender: reserve the e-cube
        circuit for each scheduled payload, stealing link time from the
        workload without participating in it.  Emissions already in the
        past (machine booted late) fire immediately, keeping the flow
        bounded so the engine's deadlock check stays meaningful."""
        for t_emit in flow.emission_times():
            now = self.engine.now
            if t_emit > now:
                yield Delay(t_emit - now)
            self.network.start_cross_message(
                self.engine.now, flow.src, flow.dst, flow.nbytes
            )

    # ------------------------------------------------------------------
    # request dispatch (called by _MachineRequest.activate)
    # ------------------------------------------------------------------
    def _activate(self, request: Request, process: Process) -> None:
        if isinstance(request, ExchangeReq):
            self._do_exchange(request, process)
        elif isinstance(request, SendReq):
            self._do_send(request, process)
        elif isinstance(request, RecvReq):
            self._do_recv(request, process)
        elif isinstance(request, PostRecvReq):
            request.ctx.state.post(request.src, request.tag)
            self.engine.schedule(0.0, process.resume_callback(None))
        elif isinstance(request, BarrierReq):
            self._do_barrier(process)
        elif isinstance(request, ShuffleReq):
            self._do_shuffle(request, process)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown request type {type(request).__name__}")

    def mark_phase(self, phase_index: int) -> None:
        """Record phase ``phase_index`` at the current instant, once
        (:meth:`NodeContext.mark_phase`; later nodes are no-ops)."""
        if phase_index not in self._phase_marked:
            self._phase_marked.add(phase_index)
            self.trace.mark_phase(phase_index, self.engine.now)

    # ------------------------------------------------------------------
    def _do_exchange(self, request: ExchangeReq, process: Process) -> None:
        me = request.ctx.rank
        other = request.partner
        key = (min(me, other), max(me, other), request.tag)
        waiting = self._rendezvous.pop(key, None)
        if waiting is not None and not waiting[1].wait_is_current(waiting[2]):
            waiting = None  # the parked partner was failed; entry is stale
        if waiting is None:
            self._rendezvous[key] = (request, process, process.wait_token())
            return
        other_req, other_proc, other_token = waiting
        if other_req.ctx.rank != other or other_req.partner != me:
            raise SimulationError(
                f"exchange mismatch: node {me} wants partner {other}, "
                f"node {other_req.ctx.rank} wants {other_req.partner} (tag {request.tag})"
            )
        record = self.network._exchange(  # noqa: SLF001 - partners checked by ctx.exchange
            self.engine.now, me, other, request.nbytes, other_req.nbytes, request.tag
        )
        self.engine.at(record.t_end, SharedCompletion([
            process.resume_callback(other_req.payload),
            other_proc.resume_callback(request.payload, token=other_token),
        ]))

    def _do_send(self, request: SendReq, process: Process) -> None:
        src = request.ctx.rank
        grant = self.network.start_message(
            self.engine.now, src, request.dst, request.nbytes, request.tag,
            forced=request.forced,
        )
        envelope = _Envelope(src, request.dst, request.tag, request.payload, request.nbytes)
        self.engine.at(grant.t_end, lambda: self._deliver(envelope, request.forced))
        self.engine.at(grant.t_end, process.resume_callback(None))

    def _deliver(self, envelope: _Envelope, forced: bool) -> None:
        state = self.contexts[envelope.dst].state
        blocked = state.match_blocked(envelope.src, envelope.tag)
        if blocked is not None:
            _, proc = blocked
            proc.resume(envelope.payload)
            return
        if forced:
            if state.consume_posted(envelope.src, envelope.tag):
                state.buffered.append(envelope)
                return
            self.trace.record_drop(envelope.src, envelope.dst, envelope.tag, self.engine.now)
            if self.strict_forced:
                raise SimulationError(
                    f"FORCED message {envelope.src}->{envelope.dst} (tag {envelope.tag}) "
                    f"arrived at t={self.engine.now:.1f} with no posted receive; "
                    f"on the real machine it would be discarded (paper §7.3: omitting "
                    f"the global synchronization is fatal)"
                )
            return
        state.buffered.append(envelope)

    def _do_recv(self, request: RecvReq, process: Process) -> None:
        state = request.ctx.state
        if state.has_buffered(request.src, request.tag):
            # pop at delivery time, not match time: if the wait is
            # superseded (fail) before the zero-delay event fires, the
            # message must stay buffered, not vanish
            token = process.wait_token()

            def deliver() -> None:
                if not process.wait_is_current(token):
                    return
                envelope = state.match_buffered(request.src, request.tag)
                if envelope is None:
                    # another receiver on this node won the race for
                    # the message: block like a recv that never matched
                    state.blocked_recvs.append((request, process, token))
                    return
                process.resume(envelope.payload)

            self.engine.schedule(0.0, deliver)
            return
        state.blocked_recvs.append((request, process, process.wait_token()))

    def _do_barrier(self, process: Process) -> None:
        waiters = self._barrier_waiters
        waiters.append((process, process.wait_token(), self.engine.now))
        if len(waiters) < self.cube.n_nodes:
            return
        # drop waiters that were failed while parked: they must count
        # neither toward the release threshold nor as participants.
        # Staleness is permanent and live <= total, so filtering only
        # once the total reaches n decides exactly as filtering on
        # every arrival would.
        waiters = [w for w in waiters if w[0].wait_is_current(w[1])]
        if len(waiters) < self.cube.n_nodes:
            self._barrier_waiters = waiters
            return
        self._barrier_waiters = []
        release = self.engine.now + self.params.global_sync_time(self.cube.dimension)
        self.trace.record_barrier(
            BarrierRecord(
                t_first_arrival=min(arrived for _, _, arrived in waiters),
                t_release=release,
                n_participants=len(waiters),
            )
        )
        self.engine.at(release, SharedCompletion(
            [proc.resume_callback(None, token=token) for proc, token, _ in waiters]
        ))

    def _do_shuffle(self, request: ShuffleReq, process: Process) -> None:
        duration = self.params.shuffle_time(request.nbytes) * self.compute_scale(
            request.ctx.rank
        )
        start = self.engine.now
        self.trace.record_shuffle(
            ShuffleRecord(
                node=request.ctx.rank,
                nbytes=request.nbytes,
                t_start=start,
                t_end=start + duration,
            )
        )
        self.engine.schedule(duration, process.resume_callback(None))
