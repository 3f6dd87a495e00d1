"""The Optimal Circuit-Switched algorithm (paper §4.2).

``2**d - 1`` transmissions of one block each, following the
Schmiermund–Seidel pairwise schedule: at step ``i`` every node
exchanges with ``node ^ i``.  The schedule is edge-contention-free
under e-cube routing — at step ``i`` a directed link ``u -> u ^ 2**b``
can only be used by the circuit whose source agrees with ``u`` on bits
``>= b`` and with ``u ^ i`` on bits ``< b``, which pins the source
uniquely (proved in :func:`contention_free_reason`, checked
exhaustively in the tests).

In the unified framework this is the multiphase algorithm with the
single-part partition ``(d,)``; no shuffles are needed because the
final index rotation by ``d`` is the identity (paper §7.4).
"""

from __future__ import annotations

from repro.core.exchange import ExchangeOutcome, run_exchange
from repro.util.validation import check_dimension

__all__ = [
    "contention_free_reason",
    "optimal_exchange",
    "optimal_partition",
    "optimal_transmissions",
    "pairwise_partners",
]


def optimal_partition(d: int) -> tuple[int, ...]:
    """The partition realizing the OCS algorithm: ``(d,)``."""
    check_dimension(d, minimum=1)
    return (d,)


def optimal_transmissions(d: int) -> int:
    """Transmissions per node: ``2**d - 1`` (one per destination)."""
    check_dimension(d, minimum=1)
    return (1 << d) - 1


def pairwise_partners(node: int, d: int) -> list[int]:
    """The node's partner sequence over the schedule: ``node ^ i`` for
    ``i = 1 .. 2**d - 1``.

    Every destination appears exactly once, and the relation is an
    involution at each step (``partner(partner(x)) == x``), which is
    what makes every step a clean pairwise exchange.
    """
    check_dimension(d, minimum=1)
    return [node ^ i for i in range(1, 1 << d)]


def contention_free_reason(u: int, b: int, offset: int, d: int) -> int:
    """The unique source whose step-``offset`` circuit can use link
    ``u -> u ^ 2**b``.

    e-cube routing corrects bits from the least significant end, so a
    circuit ``x -> x ^ offset`` crossing dimension ``b`` does so from
    the intermediate node that matches ``x ^ offset`` on bits below
    ``b`` and ``x`` on bits ``b`` and above.  Solving for ``x``::

        x = (u & high_mask) | ((u ^ offset) & low_mask)

    The tests confirm no other source's circuit touches the link, which
    is the Schmiermund–Seidel contention-freedom property.
    """
    check_dimension(d, minimum=1)
    if not (offset >> b) & 1:
        raise ValueError(f"offset {offset} does not cross dimension {b}")
    low_mask = (1 << b) - 1
    high_mask = ((1 << d) - 1) ^ low_mask
    return (u & high_mask) | ((u ^ offset) & low_mask)


def optimal_exchange(d: int, m: int, *, engine: str = "tags") -> ExchangeOutcome:
    """Run a verified Optimal Circuit-Switched exchange.

    >>> optimal_exchange(3, 4).n_exchange_steps
    7
    """
    return run_exchange(d, m, optimal_partition(d), engine=engine)  # type: ignore[arg-type]
