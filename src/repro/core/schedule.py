"""Transmission schedules for the exchange algorithms.

An exchange algorithm is compiled to a flat sequence of *steps* that
every node executes in lockstep.  The same step list drives three
consumers:

* the abstract executor (:mod:`repro.core.exchange`) that applies the
  data movement directly to block buffers,
* the simulator programs (:mod:`repro.comm.program`) that replay the
  steps on the discrete-event machine,
* the static analysers, which expand each exchange step into the set of
  circuits held simultaneously and check them contention-free
  (:func:`schedule_circuits`, :func:`validate_contention_free`).

Step vocabulary
---------------
``PhaseStart``
    Marks a phase boundary: post receives and globally synchronize
    (paper §7.3 — FORCED messages are fatal without it).
``ExchangeStep``
    Every node pairs with ``node ^ (offset << group.lo)`` and the pair
    swaps the blocks bound for each other's subcube coordinate.  The
    offsets ``1 .. 2**d_i - 1`` in increasing order are exactly the
    Schmiermund–Seidel pairwise schedule, restricted to the phase's
    subcube bits.
``ShuffleStep``
    ``times`` elementary shuffles (index-bit rotations) at cost
    ``rho`` per byte of the node's full buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Union

from repro.hypercube.contention import analyze_contention
from repro.hypercube.routing import ecube_hops
from repro.hypercube.subcube import BitGroup, phase_bit_groups
from repro.util.bitops import popcount
from repro.util.validation import check_dimension, check_partition

__all__ = [
    "ExchangeStep",
    "PhaseStart",
    "ShuffleStep",
    "Step",
    "multiphase_schedule",
    "optimal_schedule",
    "schedule_circuits",
    "schedule_stats",
    "schedule_stats_cache_info",
    "standard_schedule",
    "validate_contention_free",
]


@dataclass(frozen=True)
class PhaseStart:
    """Phase boundary: post all receives for the phase, then barrier."""

    phase_index: int
    group: BitGroup
    n_exchanges: int


@dataclass(frozen=True)
class ExchangeStep:
    """One pairwise-exchange step of a partial exchange.

    Every node ``x`` exchanges with ``x ^ (offset << group.lo)``; the
    payload each way is the sender's current blocks whose destination
    matches the partner's coordinate in ``group`` (the *effective
    block*, ``m * 2**(d - d_i)`` bytes).
    """

    phase_index: int
    group: BitGroup
    offset: int

    def __post_init__(self) -> None:
        if not 1 <= self.offset < (1 << self.group.width):
            raise ValueError(
                f"offset {self.offset} out of range 1..{(1 << self.group.width) - 1} "
                f"for a width-{self.group.width} phase"
            )

    def partner(self, node: int) -> int:
        """The exchange partner of ``node`` at this step."""
        return node ^ (self.offset << self.group.lo)

    @property
    def hops(self) -> int:
        """Distance between every pair at this step (= popcount of the
        offset; identical for all pairs, as the paper's eq. (2) uses)."""
        return popcount(self.offset)


@dataclass(frozen=True)
class ShuffleStep:
    """Local data permutation between phases: ``times`` elementary
    shuffles, one fused pass over the whole buffer."""

    phase_index: int
    times: int


Step = Union[PhaseStart, ExchangeStep, ShuffleStep]


def multiphase_schedule(d: int, partition: Sequence[int]) -> list[Step]:
    """Compile the multiphase algorithm for ``partition`` on a ``d``-cube.

    Degenerate cases per paper §5.2: ``partition == (1,)*d`` yields the
    Standard Exchange schedule (each phase one neighbour exchange of
    half the data); ``partition == (d,)`` yields the Optimal
    Circuit-Switched schedule (no shuffles at all).

    >>> steps = multiphase_schedule(3, (2, 1))
    >>> [type(s).__name__ for s in steps]  # doctest: +NORMALIZE_WHITESPACE
    ['PhaseStart', 'ExchangeStep', 'ExchangeStep', 'ExchangeStep', 'ShuffleStep',
     'PhaseStart', 'ExchangeStep', 'ShuffleStep']
    """
    parts = check_partition(partition, d)
    groups = phase_bit_groups(parts, d)
    k = len(parts)
    steps: list[Step] = []
    for i, (di, group) in enumerate(zip(parts, groups)):
        n_exchanges = (1 << di) - 1
        steps.append(PhaseStart(phase_index=i, group=group, n_exchanges=n_exchanges))
        for offset in range(1, 1 << di):
            steps.append(ExchangeStep(phase_index=i, group=group, offset=offset))
        if k > 1:
            # 'shuffle blocks d_i times': d_i index-bit rotations, fused
            # into one permutation pass.  Omitted for k == 1, where the
            # rotation by d is the identity (paper §7.4).
            steps.append(ShuffleStep(phase_index=i, times=di))
    return steps


def standard_schedule(d: int) -> list[Step]:
    """The Standard Exchange algorithm: the all-ones partition."""
    check_dimension(d, minimum=1)
    return multiphase_schedule(d, (1,) * d)


def optimal_schedule(d: int) -> list[Step]:
    """The Optimal Circuit-Switched algorithm: the single-part partition."""
    check_dimension(d, minimum=1)
    return multiphase_schedule(d, (d,))


# ----------------------------------------------------------------------
# static analysis
# ----------------------------------------------------------------------
def schedule_circuits(step: ExchangeStep, d: int) -> Iterator[tuple[int, int]]:
    """All circuits held simultaneously during one exchange step.

    Each unordered pair contributes both directed circuits (the
    exchange is full-duplex).
    """
    shift = step.offset << step.group.lo
    for node in range(1 << d):
        yield (node, node ^ shift)


def validate_contention_free(steps: Sequence[Step], d: int) -> None:
    """Assert that every exchange step of a schedule is edge-contention
    free under e-cube routing.

    This is the Schmiermund–Seidel property the whole construction
    rests on; it holds for every phase of every partition because a
    directed link determines the (source, offset) pair that may use it.
    """
    for idx, step in enumerate(steps):
        if not isinstance(step, ExchangeStep):
            continue
        report = analyze_contention(schedule_circuits(step, d))
        if not report.edge_contention_free:
            raise AssertionError(
                f"step {idx} (phase {step.phase_index}, offset {step.offset}): "
                f"edge contention on {sorted(map(str, report.edge_conflicts))}"
            )


@lru_cache(maxsize=512)
def _schedule_stats_basis(steps: tuple[Step, ...], d: int) -> tuple[int, int, int, int, int]:
    """The block-size-independent aggregates of a schedule.

    Memoized per schedule (the step dataclasses are frozen, so a step
    tuple is a hashable key, and a ``(d, partition)`` pair always
    compiles to the same steps): sweep loops that query the same
    schedule at many block sizes walk the step list once.
    ``bytes_factor`` is the per-node byte volume per unit of ``m``.
    """
    n_transmissions = 0
    bytes_factor = 0
    hop_sum = 0
    n_phases = 0
    n_shuffles = 0
    for step in steps:
        if isinstance(step, PhaseStart):
            n_phases += 1
        elif isinstance(step, ExchangeStep):
            n_transmissions += 1
            bytes_factor += 1 << (d - step.group.width)
            hop_sum += step.hops
        elif isinstance(step, ShuffleStep):
            n_shuffles += 1
    return n_transmissions, bytes_factor, hop_sum, n_phases, n_shuffles


def schedule_stats(steps: Sequence[Step], d: int, m: int) -> dict[str, float]:
    """Aggregate statistics of a schedule for reporting.

    Returns transmission count, total bytes sent per node, total
    hop-weighted transmissions (the distance-impact driver), number of
    phases, and number of shuffle passes.  The per-schedule aggregates
    are memoized per ``(d, partition)`` — only the ``m`` scaling is
    recomputed per query (see :func:`schedule_stats_cache_info`).
    """
    n_transmissions, bytes_factor, hop_sum, n_phases, n_shuffles = _schedule_stats_basis(
        tuple(steps), d
    )
    return {
        "n_transmissions": float(n_transmissions),
        "bytes_per_node": float(m * bytes_factor),
        "hop_sum": float(hop_sum),
        "n_phases": float(n_phases),
        "n_shuffles": float(n_shuffles),
    }


def schedule_stats_cache_info():
    """Hit/miss counters of the memoized schedule aggregates."""
    return _schedule_stats_basis.cache_info()


def exchange_distance(src: int, dst: int) -> int:
    """Hop distance of the circuit ``src -> dst`` (e-cube path length)."""
    return ecube_hops(src, dst)
