"""Choosing the best partition for a block size (paper §6).

For a ``d``-cube there are ``p(d)`` candidate multiphase algorithms —
a "trivial number" to enumerate (42 for the thousand-node cubes of
1990).  The optimizer evaluates the analytic model for every partition
at a given block size and returns the best.

Since the ordering of parts never changes the modelled cost (the tests
assert this over all compositions), enumeration is over canonical
decreasing partitions only, served from the memoized pool in
:func:`repro.core.partitions.cached_partitions`.

Evaluation runs on the vectorized grid kernel of
:mod:`repro.model.vectorized` by default: one numpy call scores the
whole candidate pool at once (or a whole block-size batch, via
:func:`best_partitions`), bitwise-identical to the scalar model.

The paper stores the enumeration's answer "for repeated future use";
under eq. (3) each partition's price is a line ``A_p·m + B_p``, so that
answer is the pool's lower envelope.  One walk finds it: each next
segment winner is the flattest line crossing the current one first,
and the switch point is that exact float crossing.  The *hull of
optimality* plotted in Figures 4–6 (:func:`hull_of_optimality`) is the
walk cut at a block-size bound; :func:`pool_envelope` certifies, inside
each segment, where the row kernel's own rounding cannot change the
winner.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.partitions import cached_partitions
from repro.model.cost import multiphase_time
from repro.model.params import MachineParams
from repro.model.vectorized import multiphase_time_grid, pool_rows, price_rows, row_lines
from repro.util.validation import check_block_size, check_dimension

__all__ = [
    "OptimalChoice",
    "OptimizerTable",
    "PoolEnvelope",
    "best_partition",
    "best_partitions",
    "evaluate_partitions",
    "hull_of_optimality",
    "pool_envelope",
]


@dataclass(frozen=True)
class OptimalChoice:
    """The winning partition at one block size, with runners-up."""

    m: float
    partition: tuple[int, ...]
    time: float
    ranking: tuple[tuple[tuple[int, ...], float], ...]

    def speedup_over(self, partition: Sequence[int]) -> float:
        """How much faster the winner is than ``partition`` (>= 1)."""
        lookup = dict(self.ranking)
        key = tuple(sorted(partition, reverse=True))
        try:
            other = lookup[key]
        except KeyError:
            available = ", ".join(str(p) for p in sorted(lookup))
            raise ValueError(
                f"partition {key} was not among the evaluated candidates; "
                f"have: {available}"
            ) from None
        return other / self.time if self.time > 0 else float("inf")


def _candidate_pool(
    d: int, candidates: Iterable[tuple[int, ...]] | None
) -> tuple[tuple[int, ...], ...]:
    return tuple(candidates) if candidates is not None else cached_partitions(d)


def _sorted_ranking(
    pool: Sequence[tuple[int, ...]], times: Sequence[float]
) -> list[tuple[tuple[int, ...], float]]:
    """The one place the ranking order is defined: ascending time,
    ties broken by the smaller partition tuple (the same total order
    :func:`repro.model.vectorized.grid_winners` implements)."""
    scored = list(zip(pool, times))
    scored.sort(key=lambda item: (item[1], item[0]))
    return scored


def _choice_from_ranking(
    m: float, ranking: Sequence[tuple[tuple[int, ...], float]]
) -> OptimalChoice:
    winner, time = ranking[0]
    return OptimalChoice(m=m, partition=winner, time=time, ranking=tuple(ranking))


def evaluate_partitions(
    m: float,
    d: int,
    params: MachineParams,
    *,
    candidates: Iterable[tuple[int, ...]] | None = None,
    method: str = "grid",
) -> list[tuple[tuple[int, ...], float]]:
    """Model every candidate partition at block size ``m``.

    Returns ``(partition, predicted_time)`` pairs sorted by time.
    ``method="grid"`` (default) scores the pool in one vectorized call;
    ``method="scalar"`` is the one-pair-at-a-time reference path.  The
    two are bitwise identical.
    """
    check_block_size(m)
    check_dimension(d, minimum=1)
    if method == "grid" and candidates is None:
        # the full pool's coefficient rows are cached: no re-validation
        pool, rows = pool_rows(d)
        return _sorted_ranking(pool, price_rows(rows, float(m), params).tolist())
    pool = _candidate_pool(d, candidates)
    if method == "grid":
        times = multiphase_time_grid([float(m)], d, pool, params)[:, 0].tolist()
    elif method == "scalar":
        times = [multiphase_time(m, d, p, params) for p in pool]
    else:
        raise ValueError(f"unknown method {method!r}; use 'grid' or 'scalar'")
    return _sorted_ranking(pool, times)


def best_partition(
    m: float,
    d: int,
    params: MachineParams,
    *,
    candidates: Iterable[tuple[int, ...]] | None = None,
    method: str = "grid",
) -> OptimalChoice:
    """The model-optimal partition for block size ``m``.

    >>> from repro.model.params import ipsc860
    >>> best_partition(40.0, 7, ipsc860()).partition
    (4, 3)
    """
    ranking = evaluate_partitions(m, d, params, candidates=candidates, method=method)
    return _choice_from_ranking(float(m), ranking)


def best_partitions(
    ms: Sequence[float],
    d: int,
    params: MachineParams,
    *,
    candidates: Iterable[tuple[int, ...]] | None = None,
) -> list[OptimalChoice]:
    """Batch variant of :func:`best_partition`: one
    :class:`OptimalChoice` per entry of ``ms``, scored by a single grid
    evaluation over the full block-size × partition matrix.

    >>> from repro.model.params import ipsc860
    >>> [c.partition for c in best_partitions([1.0, 40.0, 400.0], 7, ipsc860())]
    [(3, 2, 2), (4, 3), (7,)]
    """
    check_dimension(d, minimum=1)
    pool = _candidate_pool(d, candidates)
    block_sizes = [check_block_size(m) for m in ms]
    times = multiphase_time_grid(block_sizes, d, pool, params)
    return [
        _choice_from_ranking(m, _sorted_ranking(pool, times[:, col].tolist()))
        for col, m in enumerate(block_sizes)
    ]


@dataclass(frozen=True)
class OptimizerTable:
    """Precomputed optimal-partition lookup over a block-size range.

    The paper notes the enumeration "needs to be done only once and the
    optimal combination stored for repeated future use"; this is that
    stored table.  ``boundaries[i]`` is the block size at which the
    optimal partition switches from ``segments[i]`` to
    ``segments[i+1]``.
    """

    d: int
    params_name: str
    boundaries: tuple[float, ...]
    segments: tuple[tuple[int, ...], ...]

    def lookup(self, m: float) -> tuple[int, ...]:
        """The stored optimal partition for block size ``m``."""
        check_block_size(m)
        if not self.segments:
            raise ValueError(
                f"optimizer table for d={self.d} is empty; rebuild it before lookup"
            )
        return self.segments[bisect_right(self.boundaries, m)]

    @property
    def hull_partitions(self) -> tuple[tuple[int, ...], ...]:
        """Distinct partitions on the hull, in block-size order."""
        seen: list[tuple[int, ...]] = []
        for seg in self.segments:
            if not seen or seen[-1] != seg:
                seen.append(seg)
        return tuple(seen)


def hull_of_optimality(
    d: int, params: MachineParams, *, m_max: float = 400.0
) -> OptimizerTable:
    """The hull of optimality on ``0 <= m <= m_max``: the pool's lower
    envelope (the walk :func:`pool_envelope` certifies), cut at
    ``m_max``.

    Its boundaries are the exact float crossings of consecutive winners'
    lines; the default 0–400 byte range matches the x-axis of Figures
    4–6.

    >>> from repro.model.params import ipsc860
    >>> hull_of_optimality(5, ipsc860()).segments
    ((3, 2), (5,))
    """
    check_dimension(d, minimum=1)
    pool, rows = pool_rows(d)
    winners, switches = _walk(*row_lines(rows, params))
    boundaries = tuple(m for m in switches if m < m_max)
    return OptimizerTable(
        d=d,
        params_name=params.name,
        boundaries=boundaries,
        segments=tuple(pool[w] for w in winners[: len(boundaries) + 1]),
    )


#: relative margin a certified winner keeps over every other partition,
#: checked on its float lines.  It bounds the rounding of both the row
#: kernel and that check: a kernel time is a sum of non-negative terms
#: through at most ``N = 5 + k <= 30`` roundings (``k <= 24`` phases),
#: so it is ``exact·(1+θ)`` with ``|θ| <= γ_N = N·u/(1-N·u)``, ``u =
#: 2**-53``; a line's float value ``fl(fl(A)·m + fl(B))`` is within
#: ``γ_4`` of exact.  ``(1+γ_30)(1+γ_4)/((1-γ_30)(1-γ_4))`` is below
#: ``1 + 2**-46``, far inside this margin
_CHECK_MARGIN = 2.0 ** -36
#: the wider margin the candidate interval ends are solved for, so that
#: the ends pass the check despite the solve's own rounding
_SOLVE_MARGIN = 2.0 ** -32


@dataclass(frozen=True)
class PoolEnvelope:
    """Certified pool winners of a ``d``-cube over block-size intervals.

    On ``lows[i] <= m <= highs[i]`` the row kernel prices ``winners[i]``
    (coefficient row ``rows[i]``) strictly below every other partition
    of ``d``, so it is ``best_partition(m, d, params).partition`` there
    with no pool scored.  The intervals are disjoint and ascending.  A
    block size in none of them is not certified: near a switch point or
    an exact tie, or where an intermediate could underflow (``m`` near
    zero or subnormal) or overflow.
    """

    d: int
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    winners: tuple[tuple[int, ...], ...]
    rows: tuple[int, ...]

    def index(self, m: float) -> int:
        """The interval holding ``m``, or ``-1`` when none does (score
        the pool)."""
        i = bisect_right(self.lows, m) - 1
        return i if i >= 0 and m <= self.highs[i] else -1


def _walk(slope: np.ndarray, intercept: np.ndarray) -> tuple[list[int], list[float]]:
    """The lower envelope of the lines ``slope·m + intercept`` on ``m >=
    0``: its segment winners left to right (indices into the lines), and
    the float crossing of each consecutive pair, where the next takes
    over.  Each next winner is the flattest of the lines crossing the
    current one first; equal lines keep the first, the smallest
    partition of an ascending pool.

    Lines crossing within ``_CHECK_MARGIN`` (relative) of the first
    crossing count as crossing with it: a segment that narrow (three
    lines meeting at one exact point, split by rounding) never beats
    its neighbours by the margin, so no certificate could keep it."""
    # just right of m = 0 the least intercept wins, then the flattest
    w = int(np.lexsort((slope, intercept))[0])
    winners, switches, at = [w], [], 0.0
    # an intercept overflowed to inf crosses nothing
    with np.errstate(invalid="ignore", over="ignore"):
        while True:
            flatter = np.flatnonzero(slope < slope[w])
            cross = (intercept[flatter] - intercept[w]) / (slope[w] - slope[flatter])
            ahead = (cross > at) & (cross < np.inf)
            if not ahead.any():
                return winners, switches
            at = float(cross[ahead].min())
            first = flatter[ahead & (cross <= at * (1.0 + _CHECK_MARGIN))]
            w = int(first[np.lexsort((intercept[first], slope[first]))[0]])
            winners.append(w)
            switches.append(at)


def pool_envelope(d: int, params: MachineParams) -> PoolEnvelope:
    """The certified lower envelope of ``d``'s partition pool.

    Each partition is a line ``A_p·m + B_p`` (:func:`row_lines`), priced
    for the whole pool by a few numpy calls, with no per-partition
    Python.  Walking the envelope from ``m = 0`` gives its segment
    winners; for each, the block sizes where every other line exceeds
    it by the margin form an interval (each condition is affine in
    ``m``), and its float ends are checked against the kernel's
    rounding bound.  An end that fails drops the interval, so the
    certificate only ever shrinks; it certifies nothing where the
    bound does not hold (a subnormal constant, or an intercept near
    the top of the float range).

    >>> from repro.model.params import ipsc860
    >>> pool_envelope(7, ipsc860()).winners
    ((3, 2, 2), (4, 3), (7,))
    """
    check_dimension(d, minimum=1)
    pool, rows = pool_rows(d)
    slope, intercept = row_lines(rows, params)
    winners, _ = _walk(slope, intercept)
    lows, highs, kept = [], [], []
    safe = _safe_range(slope, intercept, d, params)
    for w in winners if safe is not None else ():
        ends = _certified(slope, intercept, w, *safe)
        if ends is not None:
            lows.append(ends[0])
            highs.append(ends[1])
            kept.append(w)
    return PoolEnvelope(d, tuple(lows), tuple(highs), tuple(pool[w] for w in kept),
                        tuple(rows[kept].tolist()))


def _safe_range(
    slope: np.ndarray, intercept: np.ndarray, d: int, params: MachineParams
) -> tuple[float, float] | None:
    """The block sizes where the rounding bound holds, or ``None``
    where it holds nowhere: every ``m``-product normal, and every
    intermediate finite (``m·2**d`` and each sum at most a quarter of
    the float range)."""
    tau, rho = params.byte_time, params.permute_time
    constants = (tau, rho, params.exchange_latency, params.exchange_hop_time,
                 params.global_sync_per_dim)
    if any(0.0 < c < sys.float_info.min for c in constants):
        return None  # a subnormal product has no relative error bound
    ceiling = sys.float_info.max / 4
    if float(intercept.max()) > ceiling / 4:
        return None
    m_hi = ceiling / 2.0 ** d
    if slope.max() > 0:
        m_hi = min(m_hi, ceiling / 4 / float(slope.max()))
    scales = [c for c in (tau, rho) if c > 0]
    m_lo = 4 * sys.float_info.min / min(scales) if scales else 0.0
    return (m_lo, m_hi) if m_lo <= m_hi else None


def _certified(
    slope: np.ndarray, intercept: np.ndarray, w: int, m_lo: float, m_hi: float
) -> tuple[float, float] | None:
    """The float interval of ``[m_lo, m_hi]`` where line ``w`` is below
    every other by the margin, or ``None``."""
    grow = 1.0 + _SOLVE_MARGIN
    # line p clears w where (A_p - c·A_w)·m + (B_p - c·B_w) > 0
    rise = slope - grow * slope[w]
    gap = intercept - grow * intercept[w]
    rise[w], gap[w] = 0.0, 1.0
    up, down = rise > 0.0, rise < 0.0
    if np.any(~(up | down) & (gap <= 0.0)):
        return None  # a parallel line at or below w's
    lo = max(m_lo, float((-gap[up] / rise[up]).max(initial=m_lo)))
    hi = min(m_hi, float((gap[down] / -rise[down]).min(initial=m_hi)))
    if not lo <= hi:
        return None
    # each condition is affine in m: holding at both ends, it holds between
    for end in (lo, hi):
        times = slope * end + intercept
        bar = times[w] * (1.0 + _CHECK_MARGIN)
        times[w] = np.inf
        if not bool((times > bar).all()):
            return None
    return lo, hi
