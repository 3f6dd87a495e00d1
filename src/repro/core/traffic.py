"""Multiphase exchange for arbitrary traffic (paper §9, open problem).

The paper closes with: "An open theoretical issue is whether we can
develop an efficient multiphase algorithm for a given arbitrary
communication requirement (i.e. an arbitrary directed graph)."  This
module implements the natural answer the multiphase machinery
suggests: run the same phase structure, but each pairwise exchange
carries only the blocks the traffic actually requires, and the cost of
a lockstep step is governed by its *heaviest* pair.

Model
-----
Traffic is an ``n x n`` matrix ``T`` with ``T[s, t]`` the bytes node
``s`` owes node ``t``; the diagonal is data a node keeps (it rides
through shuffles but never the wire).  Under partition
``D = (d_1...d_k)``, phase ``i``'s step with offset ``o`` exchanges,
for each pair, the traffic whose destination differs from the holder in
exactly the group-``i`` coordinate pattern implied by ``o`` — the same
rule as the complete exchange, restricted to present blocks.  With
pairwise-synchronized lockstep steps the step time is::

    λ_eff + τ · max_pair(bytes this step) + δ_eff · hops

so skewed traffic wastes the synchronized partners' time — quantifying
*why* the paper calls the general problem challenging — while uniform
traffic recovers the complete-exchange cost exactly.

The routing and pricing kernels are *batched*: a stack of ``B``
traffic matrices is routed through one partition's schedule in a
single numpy pass (:func:`route_traffic_batch` /
:func:`traffic_time_batch`), and :func:`traffic_time_grid` prices a
``B × P`` grid of matrices × partitions the way
:func:`repro.model.grid` prices the uniform cost surface.  The scalar
:func:`route_traffic` / :func:`traffic_time` are the ``B = 1`` case of
the same kernel, so scalar and batch results are bitwise identical by
construction (within a step the shipped and received block sets of a
node are disjoint, so the batched ``pending - moved + received``
update touches each entry with at most one nonzero term — the same
floats the per-holder loop produced).

:func:`best_partition_for_traffic` evaluates the whole partition grid
in one pass, extending §6's optimizer to arbitrary requirements;
:func:`hotspot_traffic` builds the canonical skewed workload the
planner's traffic policy optimizes for.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.partitions import partitions
from repro.core.schedule import ExchangeStep, PhaseStart, ShuffleStep, multiphase_schedule
from repro.model.params import MachineParams
from repro.util.bitops import log2_exact
from repro.util.validation import check_dimension, check_partition

__all__ = [
    "best_partition_for_traffic",
    "hotspot_traffic",
    "route_traffic",
    "route_traffic_batch",
    "traffic_time",
    "traffic_time_batch",
    "traffic_time_grid",
    "uniform_traffic",
]


def uniform_traffic(d: int, m: float) -> np.ndarray:
    """The complete-exchange traffic matrix: ``m`` bytes per ordered
    pair.  The diagonal is also ``m`` — the block a node keeps for
    itself, which is never transmitted but does ride through every
    shuffle pass (the paper's ``ρ·m·2**d`` term counts all ``2**d``
    blocks)."""
    n = 1 << d
    return np.full((n, n), float(m))


def hotspot_traffic(d: int, m: float, skew: float = 4.0) -> np.ndarray:
    """A deterministic non-uniform workload: uniform traffic with node 0
    a hotspot — everything it sends and receives is ``(1 + skew)``
    heavier.  ``skew = 0`` recovers :func:`uniform_traffic`.  This is
    the canonical skewed matrix the planner's traffic policy prices
    partitions against."""
    check_dimension(d, minimum=1)
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    matrix = uniform_traffic(d, m)
    matrix[0, :] *= 1.0 + skew
    matrix[1:, 0] *= 1.0 + skew
    return matrix


def _validate(traffic: np.ndarray) -> tuple[np.ndarray, int]:
    matrix = np.asarray(traffic, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"traffic must be square, got shape {matrix.shape}")
    if (matrix < 0).any():
        raise ValueError("traffic entries must be non-negative")
    d = log2_exact(matrix.shape[0])
    return matrix, d


def _validate_batch(traffics: np.ndarray) -> tuple[np.ndarray, int]:
    stack = np.asarray(traffics, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(
            f"traffic batch must have shape (B, n, n), got {stack.shape}"
        )
    if (stack < 0).any():
        raise ValueError("traffic entries must be non-negative")
    d = log2_exact(stack.shape[1])
    return stack, d


def route_traffic_batch(
    traffics: np.ndarray, partition: Sequence[int]
) -> list[tuple[int, int, np.ndarray]]:
    """Expand the phase structure into lockstep step loads, batched.

    ``traffics`` is a ``(B, n, n)`` stack of traffic matrices routed
    through one partition's schedule together.  Returns one
    ``(phase_index, offset_shifted, loads)`` triple per exchange step,
    where ``loads`` is a ``(B, n)`` array of the bytes each node ships
    at that step.  Between phases, pending traffic moves exactly as the
    complete exchange moves blocks: after a phase every remaining
    requirement agrees with its holder on the processed bits.

    The function also serves as a routing proof: it asserts that after
    the last phase every requirement has reached its destination (the
    shipped and received entry sets of a node are disjoint within a
    step, so cancellation is exact — no float residue).
    """
    stack, d = _validate_batch(traffics)
    parts = check_partition(partition, d)
    n = 1 << d
    nodes = np.arange(n)
    # pending[b, holder, dest] = bytes currently at holder bound for dest
    pending = stack.copy()
    steps_out: list[tuple[int, int, np.ndarray]] = []
    for step in multiphase_schedule(d, parts):
        if isinstance(step, (PhaseStart, ShuffleStep)):
            continue
        assert isinstance(step, ExchangeStep)
        group = step.group
        shift = step.offset << group.lo
        dest_coords = (nodes >> group.lo) & ((1 << group.width) - 1)
        partner = nodes ^ shift
        # ship[holder, dest]: dest's group coordinate matches the
        # holder's partner's — the holder's own coordinate differs, so
        # its self-block never ships
        ship = dest_coords[None, :] == dest_coords[partner][:, None]
        moved = pending * ship[None, :, :]
        loads = moved.sum(axis=-1)
        pending = pending - moved + moved[:, partner, :]
        steps_out.append((step.phase_index, shift, loads))
    # routing proof: all traffic must now sit at its destination row
    off_diagonal = pending.copy()
    off_diagonal[:, nodes, nodes] = 0.0
    if off_diagonal.any():
        raise AssertionError("multiphase routing left traffic undelivered")
    return steps_out


def route_traffic(
    traffic: np.ndarray, partition: Sequence[int]
) -> list[tuple[int, int, np.ndarray]]:
    """Expand the phase structure into lockstep step loads.

    The ``B = 1`` view of :func:`route_traffic_batch`: returns one
    ``(phase_index, offset_shifted, loads)`` triple per exchange step
    with ``loads`` an ``n``-vector of the bytes each node ships.
    """
    matrix, _ = _validate(traffic)
    return [
        (phase_index, shift, loads[0])
        for phase_index, shift, loads in route_traffic_batch(
            matrix[None, :, :], partition
        )
    ]


def traffic_time_batch(
    traffics: np.ndarray,
    partition: Sequence[int],
    params: MachineParams,
) -> np.ndarray:
    """Predicted multiphase times for a stack of traffic matrices.

    Lockstep steps: each costs ``λ_eff + τ·max(load) + δ_eff·hops``;
    shuffles charge ρ over each node's *peak held volume* per phase
    (conservative); global sync per phase as usual.  Terms combine in
    the same order as the scalar model always did, so
    :func:`traffic_time` results are reproduced bitwise.
    """
    stack, d = _validate_batch(traffics)
    parts = check_partition(partition, d)
    steps = route_traffic_batch(stack, parts)
    k = len(parts)
    totals = np.zeros(stack.shape[0], dtype=np.float64)
    for _, shift, loads in steps:
        hops = bin(shift).count("1")
        totals += (
            params.exchange_latency
            + params.byte_time * loads.max(axis=-1)
            + params.exchange_hop_time * hops
        )
    totals += k * params.global_sync_time(d)
    if k > 1:
        # each phase ends with one fused permutation pass over the
        # busiest node's buffer; the initial per-node peak is exact for
        # uniform traffic (holdings never change size there) and a
        # first-order estimate under skew
        held_peaks = stack.sum(axis=-1).max(axis=-1)
        totals += k * params.permute_time * held_peaks
    return totals


def traffic_time(
    traffic: np.ndarray,
    partition: Sequence[int],
    params: MachineParams,
) -> float:
    """Predicted multiphase time for an arbitrary traffic matrix.

    The ``B = 1`` view of :func:`traffic_time_batch`.  For uniform
    traffic this reproduces :func:`repro.model.cost.multiphase_time`
    exactly (tested).
    """
    matrix, _ = _validate(traffic)
    return float(traffic_time_batch(matrix[None, :, :], partition, params)[0])


def traffic_time_grid(
    traffics: np.ndarray,
    parts: Sequence[Sequence[int]],
    params: MachineParams,
) -> np.ndarray:
    """Price a ``B × P`` grid of traffic matrices × partitions.

    One routed pass per partition covers the whole batch; column ``j``
    equals ``traffic_time_batch(traffics, parts[j], params)``.
    """
    stack, _ = _validate_batch(traffics)
    grid = np.empty((stack.shape[0], len(parts)), dtype=np.float64)
    for j, partition in enumerate(parts):
        grid[:, j] = traffic_time_batch(stack, partition, params)
    return grid


def best_partition_for_traffic(
    traffic: np.ndarray, params: MachineParams
) -> tuple[tuple[int, ...], float]:
    """Evaluate every partition against the traffic model (§6 extended).

    One grid pass over :func:`repro.core.partitions.partitions`;
    returns the best ``(partition, predicted_time)``.

    Tie-breaking is deterministic: on equal predicted times the
    *lowest-index* partition in enumeration order wins (``argmin``
    takes the first minimum).  ``partitions(d)`` enumerates in
    reverse-lexicographic order with ``(d,)`` first, so ties prefer
    fewer, larger phases — independent of dict or insertion order.
    """
    matrix, d = _validate(traffic)
    parts = [tuple(partition) for partition in partitions(d)]
    grid = traffic_time_grid(matrix[None, :, :], parts, params)[0]
    index = int(np.argmin(grid))
    return parts[index], float(grid[index])
