"""The unified multiphase complete-exchange algorithm (paper §5).

A complete exchange on a ``d``-cube with block size ``m`` is carried
out as ``k`` *partial exchanges* over a partition
``D = (d_1, ..., d_k)`` of ``d``: phase ``i`` runs the pairwise
circuit-switched schedule simultaneously on all subcubes spanned by a
``d_i``-bit group of label bits, but always moves all ``2**d`` blocks,
giving an *effective block size* of ``m_i = m * 2**(d - d_i)`` bytes
per transmission.  Phases are separated by block shuffles that restore
send contiguity (see :mod:`repro.core.shuffle`).

The two classical algorithms are the extreme partitions:
``(1,) * d`` is Standard Exchange and ``(d,)`` is the Optimal
Circuit-Switched algorithm.  Intermediate partitions "lengthen"
messages, buying back the per-message startup cost λ at the price of
extra volume and shuffles — the paper's central idea.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.exchange import ExchangeOutcome, run_exchange
from repro.util.validation import check_partition

__all__ = [
    "effective_block_size",
    "multiphase_exchange",
    "phase_transmissions",
    "total_transmissions",
]


def effective_block_size(m: float, d: int, di: int) -> float:
    """Effective block size of a ``d_i``-dimensional phase:
    ``m * 2**(d - d_i)`` bytes (paper abstract and §5.2).

    >>> effective_block_size(24, 6, 2)
    384.0
    """
    if not 1 <= di <= d:
        raise ValueError(f"phase dimension {di} out of range 1..{d}")
    return float(m) * (1 << (d - di))


def phase_transmissions(di: int) -> int:
    """Transmissions per node in a ``d_i``-dimensional phase:
    ``2**d_i - 1``."""
    if di < 1:
        raise ValueError(f"phase dimension must be >= 1, got {di}")
    return (1 << di) - 1


def total_transmissions(partition: Sequence[int], d: int) -> int:
    """Transmissions per node over the whole multiphase exchange:
    ``sum(2**d_i - 1)``.

    Ranges from ``d`` (all-ones partition) to ``2**d - 1`` (single
    phase); every partition in between trades transmissions against
    bytes moved.
    """
    parts = check_partition(partition, d)
    return sum((1 << di) - 1 for di in parts)


def multiphase_exchange(
    d: int,
    m: int,
    partition: Sequence[int],
    *,
    engine: str = "tags",
) -> ExchangeOutcome:
    """Run a verified multiphase exchange with pattern payloads.

    >>> outcome = multiphase_exchange(4, 8, (2, 2))
    >>> outcome.n_exchange_steps   # two phases of 2**2 - 1 exchanges
    6
    """
    return run_exchange(d, m, partition, engine=engine)  # type: ignore[arg-type]
