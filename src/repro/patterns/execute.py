"""Running the declared algorithms, on data and on the simulator.

Every algorithm is one row of :data:`repro.core.programs.PATTERN_TABLE`.
This module runs a row two ways:

* :func:`deliver` moves real blocks along the row's rounds on every
  node at once; the data-level :func:`~repro.patterns.broadcast.broadcast`,
  :func:`~repro.patterns.scatter.scatter` and
  :func:`~repro.patterns.allgather.allgather` are thin wrappers over it;
* :func:`pattern_node` is the one SPMD interpreter of every row on
  :class:`~repro.sim.machine.SimulatedHypercube`: the §9 rows and the
  naive rotation through :func:`simulate_pattern`, which byte-verifies
  every node's final blocks, and the complete exchange through
  :func:`repro.comm.program.simulate_exchange` (the rotation through
  ``simulate_naive_exchange``), the chaos workloads and
  :meth:`repro.comm.communicator.Communicator.Alltoall` on user rows.
  The multiphase rows of :func:`simulate_pattern` (the complete
  exchange and the exchange-backed allgather) go through ``Alltoall``.

The interpreter walks the rounds :func:`repro.check.schedule.verify_pattern`
certifies and :func:`repro.core.programs.pattern_program` prices, with
the holdings protocol of the lockstep
:func:`~repro.core.programs.replay_pattern`.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby
from operator import attrgetter
from typing import Any, Callable, Generator, Mapping, Sequence

import numpy as np

from repro.core.blocks import BlockSet
from repro.core.programs import (
    PATTERN_TABLE,
    KeyHoldings,
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
) -> list[KeyHoldings]:
    """Every node's final blocks, by key, after one declared algorithm.

    ``block(key)`` makes each starting block.  ``d = 0`` runs zero
    rounds.
    """
    check_dimension(d)
    check_node(root, d)
    row = PATTERN_TABLE[(pattern, algorithm)]
    held = [KeyHoldings(row, node, root, d, block) for node in range(1 << d)]
    empty, repeats = replay_pattern(pattern_rounds(row, d, root), held, root)
    n = 1 << d
    if empty or repeats or not all(
        set(blocks) == set(row.semantics.ends(node, root, n))
        for node, blocks in enumerate(held)
    ):
        raise AssertionError(f"{row.name} failed to deliver")
    return held


def _nbytes(blocks: BlockSet | Mapping[int, np.ndarray]) -> int:
    if type(blocks) is BlockSet:
        return blocks.payload.size
    return int(sum(block.nbytes for block in blocks.values()))


def pattern_node(
    ctx: NodeContext,
    *,
    rounds: Sequence[Round],
    holdings: Callable[[int], Any],
    root: int = 0,
    tag_base: int = 0,
) -> Generator:
    """The one SPMD program for every declared row (FORCED discipline).

    ``holdings(rank)`` builds the node's starting holdings — the
    :class:`~repro.core.programs.KeyHoldings`,
    :class:`~repro.core.blocks.BlockBuffer` or
    :class:`~repro.core.shuffle.LayoutBuffer` protocol of
    :func:`~repro.core.programs.replay_pattern`.  The node posts every
    one-way receive it will get, then walks the rounds phase by phase:
    a phase opens with its mark and a barrier, a pairwise round is one
    ``ctx.exchange``, a one-way round a receive or a send, each tagged
    ``tag_base + rnd.tag``, and a shuffling phase closes by shuffling
    the holdings and charging a pass over the node's ``n·m`` bytes.
    Rotation rounds run sends-first: every receive posted, one barrier
    (no phase mark), every send, then every receive, in round order.
    Returns the node's final holdings.
    """
    rank = ctx.rank
    held = holdings(rank)
    send, receive = held.send, held.receive
    if rounds and rounds[0].offset:
        for rnd in rounds:
            yield ctx.post_recv(rnd.receives_from(rank), tag=tag_base + rnd.tag)
        yield ctx.barrier()
        for rnd in rounds:
            dst = rnd.sends_to(rank)
            outgoing = send(rnd, dst)
            yield ctx.send(dst, outgoing, _nbytes(outgoing), tag=tag_base + rnd.tag)
        for rnd in rounds:
            receive((yield ctx.recv(rnd.receives_from(rank), tag=tag_base + rnd.tag)))
        return held
    relative = rank ^ root
    for rnd in rounds:
        if not rnd.pairwise and rnd.receives(relative):
            yield ctx.post_recv(rank ^ rnd.mask, tag=tag_base + rnd.tag)
    for phase, phase_rounds in groupby(rounds, key=attrgetter("phase")):
        ctx.mark_phase(phase)
        yield ctx.barrier()
        for rnd in phase_rounds:
            partner = rank ^ rnd.mask
            tag = tag_base + rnd.tag
            if rnd.pairwise:
                outgoing = send(rnd, partner)
                receive((yield ctx.exchange(partner, outgoing, nbytes=_nbytes(outgoing), tag=tag)))
            elif rnd.receives(relative):
                receive((yield ctx.recv(partner, tag=tag)))
            elif rnd.sends(relative):
                outgoing = send(rnd, partner)
                yield ctx.send(partner, outgoing, _nbytes(outgoing), tag=tag)
        if rnd.times:  # every round of a phase records its closing shuffle
            held.shuffle(rnd.times)
            yield ctx.shuffle(held.m * ctx.n)
    return held


def _exchange_node(
    ctx: NodeContext, *, row: PatternAlgorithm, blocks: np.ndarray, partition, planner
) -> Generator:
    """A multiphase row through the complete exchange: the node's
    starting blocks fill its send matrix (an allgather block goes to
    every node), and the row received from origin ``o`` is the node's
    ``o``-th ending block."""
    from repro.comm.communicator import Communicator

    semantics = row.semantics
    sent = blocks[list(semantics.starts(ctx.rank, 0, ctx.n))]
    gathered = yield from Communicator(ctx).Alltoall(
        np.broadcast_to(sent, (ctx.n, blocks.shape[1])),
        partition=partition, planner=planner,
    )
    return dict(zip(semantics.ends(ctx.rank, 0, ctx.n), gathered))


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
    """Measure one declared algorithm on the simulated machine,
    byte-verified.

    ``algorithm`` is a declared algorithm of ``pattern`` or ``"auto"``
    (model-selected via :func:`repro.plan.plan_pattern` for the §9
    patterns).  ``root`` applies to broadcast and scatter,
    ``partition`` to the multiphase rows (allgather's ``exchange`` and
    ``alltoall/multiphase``), ``planner`` only to allgather's ``exchange`` and
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
    # block ``key`` is row ``key``: n of them, or n·n for the exchange
    n_keys = max(n, 1 + max(max(row.semantics.ends(x, root, n)) for x in range(n)))
    blocks = np.random.default_rng(12345).integers(
        0, 256, size=(n_keys, int(m)), dtype=np.uint8
    )
    machine = SimulatedHypercube(d, params)
    if row.schedule == "multiphase":
        # the Alltoall selection inputs are mutually exclusive
        run = machine.run(
            _exchange_node, row=row, blocks=blocks,
            partition=None if planner is not None else partition, planner=planner,
        )
    else:
        run = machine.run(
            pattern_node, rounds=pattern_rounds(row, d, root), root=root,
            holdings=partial(KeyHoldings, row, root=root, d=d, block=blocks.__getitem__),
        )
    for rank, held in enumerate(run.node_results):
        keys = row.semantics.ends(rank, root, n)
        if set(held) != set(keys) or not all(
            np.array_equal(held[key], blocks[key]) for key in keys
        ):
            raise AssertionError(f"node {rank} ended {row.name} with the wrong blocks")
    return run.time, run
