"""Running the declared §9 algorithms, on data and on the simulator.

Every algorithm is one row of :data:`repro.core.programs.PATTERN_TABLE`.
This module runs a row two ways:

* :func:`deliver` moves real blocks along the row's rounds on every
  node at once; the data-level :func:`~repro.patterns.broadcast.broadcast`,
  :func:`~repro.patterns.scatter.scatter` and
  :func:`~repro.patterns.allgather.allgather` are thin wrappers over it;
* :func:`simulate_pattern` boots :func:`pattern_node`, one generic SPMD
  interpreter, on :class:`~repro.sim.machine.SimulatedHypercube` and
  byte-verifies every node's final blocks.  The exchange-backed
  allgather runs through
  :meth:`repro.comm.communicator.Communicator.Alltoall` instead.

The rounds the interpreter walks are the ones
:func:`repro.check.schedule.verify_pattern` certifies and
:func:`repro.core.programs.pattern_program` prices.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.core.programs import (
    PATTERN_TABLE,
    PatternAlgorithm,
    Round,
    pattern_rounds,
    replay_pattern,
    resolve_pattern,
)
from repro.model.params import MachineParams
from repro.sim.machine import RunResult, SimulatedHypercube
from repro.sim.node import NodeContext
from repro.util.validation import check_dimension, check_message_size, check_node

__all__ = ["deliver", "pattern_node", "simulate_pattern"]


def deliver(
    pattern: str, algorithm: str, d: int, root: int, block: Callable[[int], Any]
) -> list[dict[int, Any]]:
    """Every node's final blocks, by key, after one declared algorithm.

    ``block(key)`` makes each starting block.  ``d = 0`` runs zero
    rounds.
    """
    check_dimension(d)
    check_node(root, d)
    row = PATTERN_TABLE[(pattern, algorithm)]
    held, repeats = replay_pattern(row, pattern_rounds(row, d, root), d, root, block)
    n = 1 << d
    if repeats or not all(
        set(blocks) == set(row.semantics.ends(node, root, n))
        for node, blocks in enumerate(held)
    ):
        raise AssertionError(f"{row.name} failed to deliver")
    return held


def _nbytes(blocks: dict[int, np.ndarray]) -> int:
    return int(sum(block.nbytes for block in blocks.values()))


def pattern_node(
    ctx: NodeContext,
    *,
    row: PatternAlgorithm,
    rounds: Sequence[Round],
    root: int,
    blocks: np.ndarray,
) -> Generator:
    """SPMD program for one declared algorithm (FORCED discipline).

    The node takes its starting blocks from ``blocks`` (row ``key`` is
    block ``key``), posts every receive it will get, synchronizes, then
    walks the rounds: a pairwise round is one ``ctx.exchange``, a
    one-way round a receive or a send.  Returns its final blocks by key.
    """
    personal = row.semantics.personal
    held = {key: blocks[key] for key in row.semantics.starts(ctx.rank, root, ctx.n)}
    relative = ctx.rank ^ root
    for rnd in rounds:
        if not rnd.pairwise and rnd.receives(relative):
            yield ctx.post_recv(ctx.rank ^ rnd.mask, tag=rnd.tag)
    yield ctx.barrier()
    for rnd in rounds:
        partner = ctx.rank ^ rnd.mask
        if rnd.pairwise:
            outgoing = rnd.take(held, partner, personal)
            held.update((yield ctx.exchange(
                partner, outgoing, nbytes=_nbytes(outgoing), tag=rnd.tag
            )))
        elif rnd.receives(relative):
            held.update((yield ctx.recv(partner, tag=rnd.tag)))
        elif rnd.sends(relative):
            outgoing = rnd.take(held, partner, personal)
            yield ctx.send(partner, outgoing, _nbytes(outgoing), tag=rnd.tag)
    return held


def _exchange_node(
    ctx: NodeContext, *, blocks: np.ndarray, partition, planner
) -> Generator:
    """Allgather through the complete exchange: every row of the send
    matrix is this node's block, so rank ``x`` ends with block ``j`` in
    row ``j``."""
    from repro.comm.communicator import Communicator

    rows = np.tile(blocks[ctx.rank], (ctx.n, 1))
    gathered = yield from Communicator(ctx).Alltoall(
        rows, partition=partition, planner=planner
    )
    return dict(enumerate(gathered))


def simulate_pattern(
    pattern: str,
    algorithm: str,
    d: int,
    m: int,
    params: MachineParams,
    *,
    root: int = 0,
    partition: Sequence[int] | None = None,
    planner=None,
) -> tuple[float, RunResult]:
    """Measure one §9 algorithm on the simulated machine, byte-verified.

    ``algorithm`` is a declared algorithm of ``pattern`` or ``"auto"``
    (model-selected via :func:`repro.plan.plan_pattern`).  ``root``
    applies to broadcast and scatter, ``partition`` to allgather's
    ``exchange``, ``planner`` only to allgather's ``exchange`` and
    ``auto``: there a :class:`repro.plan.CollectivePlanner` picks the
    exchange partition.  An argument that does not apply raises
    :class:`ValueError`, as does an ``m`` that is not a non-negative
    int.  Returns ``(virtual_time_us, run_result)``.

    >>> from repro.model.params import ipsc860
    >>> _, run = simulate_pattern("scatter", "halving", 3, 16, ipsc860(), root=5)
    >>> run.trace.n_transmissions
    7
    """
    check_message_size(m)
    if planner is not None:
        if pattern != "allgather" or algorithm not in ("exchange", "auto"):
            raise ValueError(
                f"planner= applies only to allgather's exchange and auto "
                f"algorithms, not {pattern}/{algorithm}"
            )
        if partition is not None:
            raise ValueError("pass either planner= or partition=, not both")
    if algorithm == "auto":
        if partition is not None:
            raise ValueError(
                "algorithm='auto' picks the partition; pass partition= "
                "only with algorithm='exchange'"
            )
        from repro.plan.patterns import plan_pattern

        decision = plan_pattern(pattern, float(m), d, params, planner=planner)
        algorithm = decision.algorithm
        if planner is None:
            partition = decision.partition
    row, partition, root = resolve_pattern(
        pattern, algorithm, d, partition=partition, root=root
    )
    n = 1 << d
    blocks = np.random.default_rng(12345).integers(0, 256, size=(n, int(m)), dtype=np.uint8)
    machine = SimulatedHypercube(d, params)
    if row.schedule == "exchange":
        # the Alltoall selection inputs are mutually exclusive
        run = machine.run(
            _exchange_node, blocks=blocks,
            partition=None if planner is not None else partition, planner=planner,
        )
    else:
        run = machine.run(
            pattern_node, row=row, rounds=pattern_rounds(row, d, root),
            root=root, blocks=blocks,
        )
    for rank, held in enumerate(run.node_results):
        keys = row.semantics.ends(rank, root, n)
        if set(held) != set(keys) or not all(
            np.array_equal(held[key], blocks[key]) for key in keys
        ):
            raise AssertionError(f"node {rank} ended {row.name} with the wrong blocks")
    return run.time, run
