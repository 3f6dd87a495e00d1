"""SE/OCS crossover analysis (paper §4.3).

Equating eqs. (1) and (2) gives the block size below which Standard
Exchange beats the Optimal Circuit-Switched algorithm::

        (2**d - d - 1)·λ + d·(2**(d-1) - 1)·δ
    m < -------------------------------------------
        (d·2**(d-1) - 2**d + 1)·τ + d·2**d·ρ

For the hypothetical machine of §4.3 (τ = ρ = 1, λ = 200, δ = 20,
d = 6) the threshold is just under 30 bytes, which the paper quotes as
"blocks of size less than 30".

On the *full* calibrated model (sync and shuffle overheads included)
each partition's price is still a line ``A·m + B`` in the block size
(:func:`repro.model.vectorized.row_lines`), so an empirical crossover
is the intersection of two lines, refined to the float where the row
kernel's order of the two partitions flips.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.model.cost import optimal_time, standard_time
from repro.model.params import MachineParams
from repro.model.vectorized import partition_row, price_rows, row_lines
from repro.util.validation import check_dimension

__all__ = ["crossover_block_size", "empirical_crossover", "standard_wins"]


def crossover_block_size(d: int, params: MachineParams) -> float:
    """The closed-form SE/OCS crossover block size (bytes).

    Standard Exchange is faster for ``m`` strictly below the returned
    value (infinite if OCS never wins, which cannot happen for d >= 2
    with positive τ).

    >>> from repro.model.params import hypothetical
    >>> 29 < crossover_block_size(6, hypothetical()) < 30
    True
    """
    check_dimension(d, minimum=2)
    lam, tau = params.latency, params.byte_time
    delta, rho = params.hop_time, params.permute_time
    n = 1 << d
    half = n >> 1
    numerator = (n - d - 1) * lam + d * (half - 1) * delta
    denominator = (d * half - n + 1) * tau + d * n * rho
    if denominator <= 0:
        return float("inf")
    return numerator / denominator


def standard_wins(m: float, d: int, params: MachineParams) -> bool:
    """True iff eq. (1) predicts SE strictly faster than OCS at ``m``."""
    return standard_time(m, d, params) < optimal_time(m, d, params)


#: floats priced per kernel call while refining a crossover
_STRIDE = 64


def empirical_crossover(
    d: int,
    params: MachineParams,
    *,
    partition_a: tuple[int, ...] | None = None,
    partition_b: tuple[int, ...] | None = None,
    m_max: float = 4096.0,
) -> float | None:
    """Crossover block size between two partitions on the *full*
    calibrated model (including sync and shuffle overheads).

    Defaults compare SE (``(1,)*d``) against OCS (``(d,)``).  The two
    partitions' lines intersect at one block size; the answer is the
    float nearest it where the row kernel's order flips: there the
    flatter partition prices at most the steeper one, and one float
    lower (if ``m > 0``) strictly above it.  Returns ``None`` if the
    lines are parallel (identical cost curves included) or the
    crossover falls outside ``[0, m_max]``.

    >>> from repro.model.params import hypothetical
    >>> round(empirical_crossover(6, hypothetical()), 6)
    29.473684
    """
    check_dimension(d, minimum=1)
    pa = partition_a if partition_a is not None else (1,) * d
    pb = partition_b if partition_b is not None else (d,)
    rows = np.array([partition_row(d, tuple(pa)), partition_row(d, tuple(pb))])
    slope, intercept = row_lines(rows, params)
    if slope[0] == slope[1]:
        return None
    if slope[0] < slope[1]:  # the steeper row first
        rows, slope, intercept = rows[::-1], slope[::-1], intercept[::-1]
    with np.errstate(invalid="ignore", over="ignore"):
        m = float((intercept[1] - intercept[0]) / (slope[0] - slope[1]))
    top = min(float(m_max), sys.float_info.max)
    if not 0.0 <= m <= top:
        return None
    return _order_flip(rows, m, top, params)


def _order_flip(
    rows: np.ndarray, m: float, m_max: float, params: MachineParams
) -> float | None:
    """Walk the floats of ``[0, m_max]`` from ``m``, toward the flip,
    to the first where the kernel prices ``rows[1]`` (the flatter) at
    most ``rows[0]`` and the float below it not; ``None`` if none
    does."""
    column = rows[:, np.newaxis]

    def flat_wins(ms: np.ndarray) -> np.ndarray:
        times = price_rows(column, ms, params)
        return times[1] <= times[0]

    # consecutive non-negative floats have consecutive bit patterns
    at, top = (int(np.float64(v).view(np.int64)) for v in (m, m_max))
    down = bool(flat_wins(np.array([m]))[0])
    step = -1 if down else 1
    while True:
        bits = at + step * np.arange(1, _STRIDE + 1)
        bits = bits[(bits >= 0) & (bits <= top)]
        if not bits.size:
            return 0.0 if down else None
        flipped = np.flatnonzero(flat_wins(bits.view(np.float64)) != down)
        if flipped.size:
            # walking down, the flip is the float above the first loser
            found = bits[flipped[0]] + down
            return float(np.int64(found).view(np.float64))
        at = int(bits[-1])
