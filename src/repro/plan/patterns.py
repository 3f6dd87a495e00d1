"""Algorithm selection for the §9 collective patterns.

The complete exchange is not the only collective with competing
algorithms: broadcast can run the binomial tree or direct root
circuits, scatter recursive halving or direct circuits, allgather
recursive doubling or a planner-partitioned complete exchange.
:func:`plan_pattern` scores each pattern's candidates with the
*compiled fast path* over the :mod:`repro.core.programs` step streams
and picks the winner at ``(d, m)`` — the same optimizer-guided
selection the exchange gets, applied across the patterns layer.  A
pattern's candidates at one ``(d, partition)`` are built, compiled and
stacked once (:func:`repro.sim.fastpath.stack_programs`, cached), so
scoring them at an ``m`` is one stacked pricing pass.  Because compiled
pricing is float-equal with the event engine, every ``predicted_us``
here is simulator-backed: validating a pattern decision against a
simulation shows zero error by construction, and the event engine
never boots.

For allgather's exchange-based candidate the partition comes from the
collective planner when one is supplied (closing the loop: the §6
optimizer prices the pattern), otherwise from a direct model argmin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.programs import PATTERN_TABLE, pattern_program
from repro.model.params import MachineParams
from repro.plan.planner import CollectivePlanner
from repro.util.validation import check_block_size, check_dimension

if TYPE_CHECKING:
    from repro.sim.fastpath import ProgramStack

__all__ = ["PATTERNS", "PatternDecision", "pattern_candidates", "plan_pattern"]

#: patterns the planner can select algorithms for (the complete
#: exchange has its own planner, :class:`repro.plan.CollectivePlanner`)
PATTERNS = ("broadcast", "scatter", "allgather")

#: pattern -> its algorithm rows, in PATTERN_TABLE order
_ROWS = {
    pattern: tuple(row for row in PATTERN_TABLE.values() if row.pattern == pattern)
    for pattern in PATTERNS
}
#: patterns with an exchange-based candidate
_EXCHANGE_BACKED = {
    pattern for pattern, rows in _ROWS.items() if any(r.schedule == "multiphase" for r in rows)
}


@dataclass(frozen=True)
class PatternDecision:
    """The chosen algorithm for one pattern at one ``(d, m)``."""

    pattern: str
    d: int
    m: float
    algorithm: str
    predicted_us: float
    #: partition backing an exchange-based algorithm (``None`` otherwise)
    partition: tuple[int, ...] | None
    #: every scored candidate, ``(name, predicted_us)``, best first
    candidates: tuple[tuple[str, float], ...]


def pattern_candidates(
    pattern: str,
    m: float,
    d: int,
    params: MachineParams,
    *,
    planner: CollectivePlanner | None = None,
) -> list[tuple[str, float, tuple[int, ...] | None]]:
    """Price every algorithm candidate for ``pattern`` at ``(d, m)``.

    Returns ``(name, predicted_us, partition)`` triples (partition is
    ``None`` for algorithms that are not exchange-based).  Each time is
    the compiled fast path's — float-equal with what the event engine
    would measure for that algorithm's program.
    """
    check_dimension(d, minimum=1)
    m = check_block_size(m)
    if pattern not in _ROWS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    partition = None
    if pattern in _EXCHANGE_BACKED:
        partition = _exchange_partition(m, d, params, planner)
    table = _candidate_table(pattern, d, partition)
    times = table.stack.totals([m], params)[:, 0].tolist()
    return list(zip(table.names, times, table.partitions))


@dataclass(frozen=True)
class _CandidateTable:
    """One pattern's candidates at one ``(d, partition)``: their names,
    partitions and stacked compiled programs, in ``PATTERN_TABLE``
    order.  The stack keeps its priced columns per params."""

    names: tuple[str, ...]
    partitions: tuple[tuple[int, ...] | None, ...]
    stack: "ProgramStack"


@lru_cache(maxsize=512)
def _candidate_table(
    pattern: str, d: int, partition: tuple[int, ...] | None
) -> _CandidateTable:
    """The candidates of ``pattern`` on the ``d``-cube; an exchange-based
    one runs at ``partition`` and is left out when that is ``None``.
    Bounded at 512 tables, least recently used first out."""
    from repro.sim.fastpath import stack_programs

    names, partitions, programs = [], [], []
    for row in _ROWS[pattern]:
        part = partition if row.schedule == "multiphase" else None
        if row.schedule == "multiphase" and part is None:
            continue
        names.append(row.algorithm)
        partitions.append(part)
        programs.append(pattern_program(pattern, row.algorithm, d, partition=part))
    return _CandidateTable(tuple(names), tuple(partitions), stack_programs(programs))


def _exchange_partition(
    m: float, d: int, params: MachineParams, planner: CollectivePlanner | None
) -> tuple[int, ...] | None:
    """The partition an exchange-backed candidate runs at."""
    if planner is None:
        from repro.model.optimizer import best_partition

        return best_partition(m, d, params).partition
    # a naive decision's contended cost is not what the lockstep
    # exchange program would pay — an 'exchange' candidate would be
    # priced as an algorithm that would not run
    return planner.decide(d, m).partition


def plan_pattern(
    pattern: str,
    m: float,
    d: int,
    params: MachineParams,
    *,
    planner: CollectivePlanner | None = None,
) -> PatternDecision:
    """The model-optimal algorithm for ``pattern`` at ``(d, m)``.

    >>> from repro.model.params import ipsc860
    >>> plan_pattern("scatter", 40.0, 5, ipsc860()).algorithm
    'halving'
    """
    scored = pattern_candidates(pattern, m, d, params, planner=planner)
    scored.sort(key=lambda item: (item[1], item[0]))
    name, time, partition = scored[0]
    return PatternDecision(
        pattern=pattern,
        d=int(d),
        m=float(m),  # pattern_candidates checked it
        algorithm=name,
        predicted_us=time,
        partition=partition,
        candidates=tuple((n, t) for n, t, _ in scored),
    )
