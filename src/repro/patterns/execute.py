"""Running the declared algorithms, on data and on the simulator.

Every algorithm is one row of :data:`repro.core.programs.PATTERN_TABLE`.
This module runs a row two ways:

* :func:`deliver` moves real blocks along the row's rounds on every
  node at once; the data-level :func:`~repro.patterns.broadcast.broadcast`,
  :func:`~repro.patterns.scatter.scatter` and
  :func:`~repro.patterns.allgather.allgather` are thin wrappers over it;
* :func:`pattern_node` is the one SPMD interpreter of every row on
  :class:`~repro.sim.machine.SimulatedHypercube`: every row runs on it
  through :func:`repro.comm.program.simulate`, which byte-verifies
  every node's final blocks (the chaos workloads included), and
  :meth:`repro.comm.communicator.Communicator.Alltoall` runs the
  exchange rows on user rows.

The interpreter walks the rounds :func:`repro.check.schedule.verify_pattern`
certifies and :func:`repro.core.programs.pattern_program` prices, with
the holdings protocol of the lockstep
:func:`~repro.core.programs.replay_pattern`.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Any, Callable, Generator, Mapping, Sequence

import numpy as np

from repro.core.blocks import BlockSet
from repro.core.programs import (
    PATTERN_TABLE,
    KeyHoldings,
    Round,
    pattern_rounds,
    replay_pattern,
)
from repro.sim.node import NodeContext
from repro.util.validation import check_dimension, check_node

__all__ = ["deliver", "pattern_node"]


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
