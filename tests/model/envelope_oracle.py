"""A brute-force oracle for the pool's lower envelope and for crossovers.

Independent of :mod:`repro.model.vectorized` and of the optimizer's
walk: each partition's eq. (3) price is rebuilt here as an exact
rational line ``A·m + B`` from its parts and the machine constants, and
the envelope is found by checking every pairwise crossing — every
candidate switch point — with exact arithmetic.  Each switch point is
an exact rational; a float answer is checked against it in ulps.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.core.partitions import cached_partitions
from repro.model.cost import multiphase_time
from repro.model.params import MachineParams


def exact_line(d: int, partition: tuple[int, ...], params: MachineParams) -> tuple[Fraction, Fraction]:
    """Eq. (3) for ``partition`` as an exact ``(slope, intercept)``."""
    tau, rho = Fraction(params.byte_time), Fraction(params.permute_time)
    lam, delta = Fraction(params.exchange_latency), Fraction(params.exchange_hop_time)
    gamma = Fraction(params.global_sync_per_dim)
    shuffled = 1 << d if len(partition) > 1 else 0
    slope = intercept = Fraction(0)
    for di in partition:
        n_tx = (1 << di) - 1
        slope += tau * n_tx * (1 << (d - di)) + rho * shuffled
        intercept += n_tx * lam + delta * (di << (di - 1)) + gamma * d
    return slope, intercept


def crossing(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> Fraction | None:
    """Where two exact lines meet, or ``None`` if they are parallel."""
    if a[0] == b[0]:
        return None
    return (b[1] - a[1]) / (a[0] - b[0])


def exact_envelope(
    d: int, params: MachineParams, m_max: float
) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    """The lower envelope on ``[0, m_max]``: its segment winners and the
    exact block sizes where each next one takes over.

    Every pairwise crossing inside ``(0, m_max)`` is a candidate switch
    point; between two consecutive candidates the winner is constant,
    so pricing every line exactly at each gap's midpoint (the smallest
    partition among equal lines) finds it.
    """
    pool = sorted(cached_partitions(d))
    lines = [exact_line(d, p, params) for p in pool]
    bound = Fraction(m_max)
    cuts = {Fraction(0), bound}
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            at = crossing(a, b)
            if at is not None and 0 < at < bound:
                cuts.add(at)
    cuts_sorted = sorted(cuts)
    segments: list[tuple[int, ...]] = []
    switches: list[Fraction] = []
    for lo, hi in zip(cuts_sorted, cuts_sorted[1:]):
        mid = (lo + hi) / 2
        winner = min(range(len(pool)), key=lambda i: (lines[i][0] * mid + lines[i][1], pool[i]))
        if segments and segments[-1] == pool[winner]:
            continue
        if segments:
            switches.append(lo)
        segments.append(pool[winner])
    return segments, switches


def close_to_crossing(
    value: float, d: int, left: tuple[int, ...], right: tuple[int, ...], params: MachineParams
) -> bool:
    """Whether a float ``value`` is the crossing of ``left``'s and
    ``right``'s lines up to float rounding: each line's float slope and
    intercept are within a few roundings (``8u`` relative) of exact, the
    crossing's solve adds three more, and the answer is one float."""
    a, b = exact_line(d, left, params), exact_line(d, right, params)
    exact = crossing(a, b)
    assert exact is not None
    u = Fraction(1, 2 ** 53)
    spread = abs(a[1]) + abs(b[1]) + exact * (abs(a[0]) + abs(b[0]))
    tolerance = 8 * u * spread / abs(a[0] - b[0]) + 4 * u * exact + Fraction(math.ulp(value))
    return abs(Fraction(value) - exact) <= tolerance


def order_flips_at(d: int, steep, flat, params: MachineParams, m: float) -> bool:
    """Whether the scalar model prices ``flat`` at most ``steep`` at
    ``m`` and (for ``m > 0``) strictly above it one float lower."""
    def flat_wins(x: float) -> bool:
        return multiphase_time(x, d, flat, params) <= multiphase_time(x, d, steep, params)

    return flat_wins(m) and (m == 0.0 or not flat_wins(math.nextafter(m, -math.inf)))
