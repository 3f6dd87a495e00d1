"""The Standard Exchange algorithm (paper §4.1).

``d`` transmissions of ``2**(d-1)`` blocks each, every one across a
single dimension (distance 1, hence trivially contention-free), with a
block shuffle after each step.  Johnsson & Ho's classic hypercube
transpose.  In the unified framework it is exactly the multiphase
algorithm with the all-ones partition ``(1,) * d`` — this module is the
named front door plus the algorithm-specific analysis helpers.
"""

from __future__ import annotations

from repro.core.exchange import ExchangeOutcome, run_exchange
from repro.util.validation import check_dimension

__all__ = [
    "standard_exchange",
    "standard_partition",
    "standard_transmissions",
]


def standard_partition(d: int) -> tuple[int, ...]:
    """The partition realizing Standard Exchange: ``(1,) * d``."""
    check_dimension(d, minimum=1)
    return (1,) * d


def standard_transmissions(d: int) -> int:
    """Number of transmissions per node: ``d`` (``log n``)."""
    check_dimension(d, minimum=1)
    return d


def standard_blocks_per_transmission(d: int) -> int:
    """Blocks carried by each transmission: ``2**(d-1)`` (half the data)."""
    check_dimension(d, minimum=1)
    return 1 << (d - 1)


def standard_exchange(d: int, m: int, *, engine: str = "tags") -> ExchangeOutcome:
    """Run a verified Standard Exchange with pattern payloads.

    >>> standard_exchange(3, 4).n_exchange_steps
    3
    """
    return run_exchange(d, m, standard_partition(d), engine=engine)  # type: ignore[arg-type]
