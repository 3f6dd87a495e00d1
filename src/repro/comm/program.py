"""The complete exchange on the simulated machine.

The exchange is declared once, as the ``alltoall/multiphase`` row of
:data:`repro.core.programs.PATTERN_TABLE`: its rounds are expanded
from the :func:`~repro.core.schedule.multiphase_schedule` step list
(:func:`~repro.core.programs.exchange_rounds`; each round records its
phase and that phase's closing shuffle).  :func:`simulate_exchange`
boots :func:`repro.patterns.execute.pattern_node`, the one SPMD
interpreter every declared row runs on, over those rounds: every node
moves real blocks (either data engine,
:func:`~repro.core.exchange.engine_buffer`) while the simulator
charges wire, shuffle and synchronization time.  The result is at
once a *measurement* (virtual µs) and a byte-verified exchange.
``Communicator.Alltoall`` runs the same interpreter on user rows.

Implementation notes mirroring paper §7:

* each phase begins with a global synchronization (the paper posts all
  FORCED receives then synchronizes; our exchange primitive folds the
  receive posting into the §7.2 pairwise rendezvous, and the barrier
  cost γ·d is charged per phase exactly as eq. (3) does);
* each pairwise exchange is charged the effective constants
  λ_eff/δ_eff of §7.4 (zero-byte synchronization included);
* shuffles perform the actual numpy permutation *and* charge ρ per
  byte of the full buffer.

The tag engine's buffer is fixed-slot
(:meth:`~repro.core.blocks.BlockBuffer.send` takes a round's slots by
the partner's coordinate, :meth:`~repro.core.blocks.BlockBuffer.receive`
refills them).  A wrong slot plan fails the final check
(:meth:`~repro.core.blocks.BlockBuffer.verify_all`), which stacks many
nodes' buffers per pass, a few hundred kilobytes at a time, and
re-checks a failing chunk node by node so the first failing rank
raises its own message.

The fast path prices the same rounds without booting the engine: they
are lowered to a :class:`~repro.core.programs.CommProgram` chain — the
exchange's one compiled form — which :mod:`repro.sim.fastpath` prices
in one numpy pass at float equality with the runs here (``fast=True``
below returns its :class:`~repro.sim.fastpath.ProgramTimeline`).  That
is the default path everywhere; the event-engine run is the
byte-verifying oracle, and :func:`repro.check.verify_schedule`
certifies the rounds.  The naive rotation is the ``alltoall/rotation``
row, run by the same interpreter sends-first
(:func:`simulate_naive_exchange`); its contended price is the fast
path's sends-first replay of those rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Sequence

from repro.core.blocks import BlockBuffer
from repro.core.exchange import ExchangeOutcome, engine_buffer
from repro.core.programs import PATTERN_TABLE, exchange_rounds, pattern_rounds
from repro.core.schedule import multiphase_schedule
from repro.core.shuffle import LayoutBuffer
from repro.model.params import MachineParams
from repro.patterns.execute import pattern_node
from repro.sim.machine import RunResult, SimulatedHypercube
from repro.sim.trace import PlanRecord, Trace
from repro.util.validation import check_dimension, check_message_size, check_partition

__all__ = [
    "SimulatedExchange",
    "simulate_exchange",
    "simulate_naive_exchange",
    "simulate_planned_exchange",
]


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
        ExchangeOutcome(self.run.node_results).verify(check_payload=check_payload)


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
    before the machine boots, as does an unknown ``engine`` on either
    path.

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
    buffer = _check_run(m, engine, fast, fault_plan)
    return _exchange(d, m, parts, params, buffer, verify=verify, fast=fast, fault_plan=fault_plan)


def _check_run(m, engine: str, fast: bool, fault_plan) -> type[BlockBuffer] | type[LayoutBuffer]:
    """Check a run's arguments before anything is priced or booted;
    returns the data engine's buffer class."""
    buffer = engine_buffer(engine)
    if fast and fault_plan is not None and not fault_plan.is_empty:
        # the lockstep fast path models the uniform machine only;
        # pricing a degraded machine there would ignore the plan
        raise ValueError(
            "fault plans require the event engine: pass fast=False "
            "(the fast path assumes a uniform, failure-free machine)"
        )
    if not fast:
        check_message_size(m)
    return buffer


def _exchange(d, m, parts, params, buffer, *, verify, fast, fault_plan) -> SimulatedExchange:
    """The multiphase exchange at ``parts``: priced on the fast path,
    or run by the one SPMD interpreter on the declared row's rounds."""
    if fast:
        from repro.sim.fastpath import exchange_timeline

        timeline = exchange_timeline(d, m, parts, params)
        return SimulatedExchange(
            d=d, m=m, partition=parts, params_name=params.name,
            time_us=timeline.total, trace=Trace(), run=None, timeline=timeline,
        )
    rounds = exchange_rounds(multiphase_schedule(d, parts), d)
    return _run(d, m, parts, params, rounds, buffer, verify=verify, fault_plan=fault_plan)


def _run(d, m, partition, params, rounds, buffer, *, verify, fault_plan) -> SimulatedExchange:
    """``rounds`` on the one SPMD interpreter, over ``buffer`` holdings
    of pattern payloads."""
    run = SimulatedHypercube(d, params, fault_plan=fault_plan).run(
        pattern_node, rounds=rounds, holdings=partial(buffer.initial, d=d, m=m)
    )
    result = SimulatedExchange(
        d=d, m=m, partition=partition, params_name=params.name,
        time_us=run.time, trace=run.trace, run=run,
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
    back to why that algorithm ran; the run itself is
    :func:`simulate_exchange`'s or :func:`simulate_naive_exchange`'s.

    With ``fast=True`` the decision is priced by the fast-path engine
    instead of being replayed on the event machine: float-identical on
    contention-free schedules, reservation-replay pricing for the
    naive baseline, no data movement (``verify`` is ignored).  The
    arguments (``m`` on the event engine, ``engine`` and the fault
    plan on either path) are checked before the planner is asked.

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
    buffer = _check_run(m, engine, fast, fault_plan)
    decision = planner.decide(d, m)
    if decision.algorithm == "naive":
        result = _naive(d, m, params, verify=verify, fast=fast, fault_plan=fault_plan)
    else:
        parts = check_partition(decision.partition, d)
        result = _exchange(
            d, m, parts, params, buffer, verify=verify, fast=fast, fault_plan=fault_plan
        )
    result.trace.record_plan(PlanRecord.from_decision(decision))
    result.decision = decision
    return result


# ----------------------------------------------------------------------
# negative control: a naive, contention-oblivious schedule
# ----------------------------------------------------------------------
def simulate_naive_exchange(
    d: int,
    m: int,
    params: MachineParams,
    *,
    verify: bool = True,
    fast: bool = False,
) -> SimulatedExchange:
    """Measure the naive rotation schedule (contended baseline).

    Step ``s`` sends every node's block to ``(rank + s) mod n`` — the
    textbook schedule for a crossbar.  Each rotation step is in fact
    statically link-clean under e-cube, but without pairwise
    synchronization the nearly-simultaneous send/receive traffic at
    each node serializes (§7.2), nodes drift out of step, and circuits
    from *different* steps start overlapping on links: circuit
    switching does not let programmers ignore the network (§2).  The
    run is the ``alltoall/rotation`` row on the one interpreter,
    byte-verified.

    With ``fast=True`` the contended timing comes from the fast path's
    sends-first replay of the row's rounds
    (:func:`repro.sim.fastpath.naive_exchange_time`) — same greedy
    link/port serialization, no coroutines, no data
    movement (``verify`` is ignored).  On the event engine ``m`` must
    be a non-negative int.
    """
    check_dimension(d, minimum=1)
    if not fast:
        check_message_size(m)
    return _naive(d, m, params, verify=verify, fast=fast, fault_plan=None)


def _naive(d, m, params, *, verify, fast, fault_plan) -> SimulatedExchange:
    """The naive rotation: priced by the sends-first replay, or run
    byte-verified on the event engine."""
    if fast:
        from repro.sim.fastpath import naive_exchange_time

        return SimulatedExchange(
            d=d, m=m, partition=(), params_name=params.name,
            time_us=naive_exchange_time(d, m, params), trace=Trace(), run=None,
        )
    rounds = pattern_rounds(PATTERN_TABLE["alltoall", "rotation"], d, 0)
    return _run(d, m, (), params, rounds, BlockBuffer, verify=verify, fault_plan=fault_plan)
