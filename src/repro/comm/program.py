"""Running a declared row on the simulated machine.

Every algorithm is one row of :data:`repro.core.programs.PATTERN_TABLE`:
the paper's complete exchange (``alltoall/multiphase``, its rounds
built from the partition by
:func:`~repro.core.programs.exchange_rounds`; each round records its
phase and that phase's closing shuffle), its naive
rotation baseline (``alltoall/rotation``) and the §9 broadcast,
scatter and allgather rows.  :func:`simulate` runs any row: it boots
:func:`repro.patterns.execute.pattern_node`, the one SPMD interpreter,
over the row's rounds, every node moving real blocks while the
simulator charges wire, shuffle and synchronization time, and
byte-checks every node's final holdings against the row's
``semantics.ends``.  The result is at once a *measurement* (virtual
µs) and a verified run.  A fault plan degrades the machine for any
row.  ``Communicator.Alltoall`` runs the same interpreter on user
rows.

Implementation notes mirroring paper §7:

* each phase begins with a global synchronization (the paper posts all
  FORCED receives then synchronizes; our exchange primitive folds the
  receive posting into the §7.2 pairwise rendezvous, and the barrier
  cost γ·d is charged per phase exactly as eq. (3) does);
* each pairwise exchange is charged the effective constants
  λ_eff/δ_eff of §7.4 (zero-byte synchronization included);
* shuffles perform the actual numpy permutation *and* charge ρ per
  byte of the full buffer.

The exchange rows hold pattern payloads in either data engine
(:func:`~repro.core.exchange.engine_buffer`).  The tag engine's buffer
is fixed-slot (:meth:`~repro.core.blocks.BlockBuffer.send` takes a
round's slots by the partner's coordinate,
:meth:`~repro.core.blocks.BlockBuffer.receive` refills them).  A wrong
slot plan fails the final check
(:meth:`~repro.core.blocks.BlockBuffer.verify_all`), which stacks many
nodes' buffers per pass, a few hundred kilobytes at a time, and
re-checks a failing chunk node by node so the first failing rank
raises its own message.  The other rows move seeded random blocks.

Pricing needs no run: :func:`repro.sim.fastpath.program_time` of the
row's :func:`~repro.core.programs.pattern_program` equals the virtual
time here, float for float (the rotation's through the fast path's
sends-first replay of its rounds).  That is the default path
everywhere; the event-engine run is the byte-verifying oracle, and
:func:`repro.check.verify_schedule` certifies the rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.core.blocks import BlockBuffer
from repro.core.exchange import ExchangeOutcome, engine_buffer
from repro.core.programs import (
    PATTERN_TABLE,
    KeyHoldings,
    PatternAlgorithm,
    pattern_rounds,
    resolve_pattern,
)
from repro.model.params import MachineParams
from repro.patterns.execute import pattern_node
from repro.sim.machine import RunResult, SimulatedHypercube
from repro.sim.trace import PlanRecord, Trace
from repro.util.validation import check_message_size, check_partition

__all__ = ["SimulatedExchange", "simulate", "simulate_exchange"]


@dataclass
class SimulatedExchange:
    """A measured, byte-verified run of one declared row."""

    d: int
    m: int
    #: the multiphase partition that ran; ``()`` for the other rounds
    partition: tuple[int, ...]
    params_name: str
    #: virtual time of the run in µs — the 'measured' value of the
    #: paper's solid curves
    time_us: float
    trace: Trace
    run: RunResult
    #: the row that ran (the rotation when a planner chose the naive
    #: baseline for the complete exchange)
    row: PatternAlgorithm
    root: int
    #: the starting blocks by key, or ``None`` for the exchange rows'
    #: pattern payloads
    blocks: np.ndarray | None
    #: the planner decision behind this run, when a planner chose the
    #: algorithm (``None`` for directly requested rows)
    decision: Any = None

    @property
    def time_s(self) -> float:
        return self.time_us * 1e-6

    def verify(self, *, check_payload: bool = True) -> None:
        """Byte-verify every node's final holdings: the row's
        ``semantics.ends`` keys, each the block it started as."""
        held = self.run.node_results
        if self.blocks is None:
            ExchangeOutcome(held).verify(check_payload=check_payload)
            return
        n = 1 << self.d
        for rank, final in enumerate(held):
            keys = self.row.semantics.ends(rank, self.root, n)
            if isinstance(final, BlockBuffer):
                final = dict(zip(keys, final.result_rows()))
            if set(final) != set(keys) or check_payload and not all(
                np.array_equal(final[key], self.blocks[key]) for key in keys
            ):
                raise AssertionError(f"node {rank} ended {self.row.name} with the wrong blocks")


def simulate(
    pattern: str,
    algorithm: str,
    d: int,
    m: int,
    params: MachineParams,
    *,
    partition: Sequence[int] | None = None,
    root: int = 0,
    planner=None,
    engine: str = "tags",
    fault_plan=None,
    machine: SimulatedHypercube | None = None,
) -> SimulatedExchange:
    """Run one declared row on the simulated machine, byte-verified.

    ``partition`` applies to the multiphase rows (``alltoall/multiphase``
    and ``allgather/exchange``; default ``(d,)``), ``root`` to the
    rooted ones, ``engine`` (``"tags"`` or ``"layout"``) to the
    complete exchange's holdings.  ``planner`` — any object with
    ``decide(d, m)``, normally a :class:`repro.plan.CollectivePlanner`
    — picks a multiphase row's partition instead, or the naive
    rotation's rounds (always on the tag engine); the decision is
    recorded in the trace and attached to the result.  Every argument,
    ``m`` (a non-negative int) included, is checked before the planner
    is asked or a machine boots; one that does not apply raises
    :class:`ValueError`.

    The run takes a fresh machine, degraded by ``fault_plan``
    (:class:`repro.sim.faults.FaultPlan`) when one is given, or the
    caller's ``machine`` (built for ``d`` and ``params``, its own
    fault plan included), whose clock and trace carry on across runs:
    ``time_us`` is then the time this run took.

    >>> from repro.model.params import ipsc860
    >>> simulate("scatter", "halving", 3, 16, ipsc860(), root=5).trace.n_transmissions
    7
    >>> from repro.plan import CollectivePlanner, ModelPolicy
    >>> planner = CollectivePlanner(ModelPolicy(ipsc860()))
    >>> result = simulate("alltoall", "multiphase", 3, 16, ipsc860(), planner=planner)
    >>> result.decision.partition == result.partition
    True
    >>> len(result.trace.plan_decisions)
    1
    """
    if planner is not None and partition is not None:
        raise ValueError("pass either planner= or partition=, not both")
    row, partition, root = resolve_pattern(pattern, algorithm, d, partition=partition, root=root)
    check_message_size(m)
    buffer = engine_buffer(engine)
    if planner is not None and row.schedule != "multiphase":
        raise ValueError(
            f"planner= applies only to the multiphase rows "
            f"(allgather/exchange, alltoall/multiphase), not {row.name}"
        )
    if machine is not None and (fault_plan is not None or machine.cube.dimension != d):
        raise ValueError(f"machine= must be a d={d} machine carrying its own fault plan")
    decision = None
    if planner is not None:
        decision = planner.decide(d, m)
        partition = None if decision.algorithm == "naive" else check_partition(
            decision.partition, d
        )
    if row.schedule == "multiphase" and partition is None:  # the planner chose naive
        rotation = PATTERN_TABLE["alltoall", "rotation"]
        rounds = pattern_rounds(rotation, d, 0)
        row = rotation if row.pattern == "alltoall" else row
    else:
        rounds = pattern_rounds(row, d, root, partition=partition)
    if rounds[0].offset:  # sends-first: a layout buffer holds one vacated run at a time
        buffer = BlockBuffer
    n = 1 << d
    blocks = None
    if row.pattern == "alltoall":
        holdings = partial(buffer.initial, d=d, m=m)
    else:
        # block ``key`` is row ``key``, one per node
        blocks = np.random.default_rng(12345).integers(0, 256, size=(n, m), dtype=np.uint8)
        if row.schedule == "multiphase":  # allgather/exchange
            def holdings(rank: int) -> BlockBuffer:
                # the node's one block fills every row of its send matrix
                return BlockBuffer.from_rows(rank, d, np.broadcast_to(blocks[rank], (n, m)))
        else:
            holdings = partial(KeyHoldings, row, root=root, d=d, block=blocks.__getitem__)
    if machine is None:
        machine = SimulatedHypercube(d, params, fault_plan=fault_plan)
    start = machine.engine.now
    run = machine.run(pattern_node, rounds=rounds, holdings=holdings, root=root)
    result = SimulatedExchange(
        d=d, m=m, partition=partition or (), params_name=params.name,
        time_us=run.time - start, trace=run.trace, run=run,
        row=row, root=root, blocks=blocks, decision=decision,
    )
    result.verify()
    if decision is not None:
        result.trace.record_plan(PlanRecord.from_decision(decision))
    return result


def simulate_exchange(
    d: int,
    m: int,
    partition: Sequence[int] | None,
    params: MachineParams,
    *,
    engine: str = "tags",
    fault_plan=None,
) -> SimulatedExchange:
    """The complete exchange at ``partition``: :func:`simulate` of the
    ``alltoall/multiphase`` row.

    >>> from repro.model.params import ipsc860
    >>> simulate_exchange(3, 16, (2, 1), ipsc860()).time_us > 0
    True
    """
    return simulate(
        "alltoall", "multiphase", d, m, params,
        partition=partition, engine=engine, fault_plan=fault_plan,
    )
