"""One-to-all personalized communication — scatter (paper §9, ref. [8]).

The root holds ``2**d`` distinct blocks, one per node.  Two algorithms
in the spirit of the paper's pair:

* **recursive halving** down the binomial tree: step ``i`` forwards the
  half of the remaining data belonging to the other subcube
  (``d`` transmissions of ``m·2**(d-i)`` bytes on the root's critical
  path) — the store-and-forward analogue of Standard Exchange;
* **direct circuits**: the root establishes a circuit to every node in
  turn (``2**d - 1`` transmissions of one block) — the analogue of the
  Optimal Circuit-Switched algorithm.  Unlike the complete exchange,
  scatter gives the circuit-switched variant no time advantage: the
  root must push ``τ·m·(2**d - 1)`` bytes through its own port either
  way, so direct circuits only add ``2**d - 1 - d`` extra startups.
  Its practical appeal on the real machine is avoiding store-and-
  forward buffering at intermediate nodes, not speed — an asymmetry
  with the exchange (where *every* node is a source) that the pattern
  benchmark quantifies.

Both schedules are declared once, in
:data:`repro.core.programs.PATTERN_TABLE`; run them on the simulated
machine with :func:`repro.comm.program.simulate`.
"""

from __future__ import annotations

import numpy as np

from repro.model.params import MachineParams
from repro.patterns.execute import deliver
from repro.util.bitops import popcount
from repro.util.validation import check_dimension

__all__ = ["scatter", "scatter_direct_time", "scatter_time"]


def scatter(blocks: np.ndarray, root: int, d: int) -> list[np.ndarray]:
    """Data-level recursive-halving scatter.

    ``blocks`` is the root's ``(2**d, m)`` array; block ``j`` is for
    node ``j``.  Returns each node's received block, moving data along
    the halving schedule explicitly.

    >>> import numpy as np
    >>> out = scatter(np.arange(8, dtype=np.uint8).reshape(4, 2), root=0, d=2)
    >>> [o.tolist() for o in out]
    [[0, 1], [2, 3], [4, 5], [6, 7]]
    """
    check_dimension(d)
    n = 1 << d
    blocks = np.asarray(blocks)
    if blocks.shape[0] != n:
        raise ValueError(f"root must hold {n} blocks, got {blocks.shape[0]}")
    held = deliver("scatter", "halving", d, root, lambda key: blocks[key].copy())
    return [mine[node] for node, mine in enumerate(held)]


def scatter_time(m: float, d: int, params: MachineParams) -> float:
    """Recursive-halving scatter on the root's critical path:
    ``Σ_{i=1..d} (λ + τ·m·2**(d-i) + δ) = d·(λ + δ) + τ·m·(2**d - 1)``
    plus the global synchronization."""
    check_dimension(d)
    n = 1 << d
    return (
        d * (params.latency + params.hop_time)
        + params.byte_time * m * (n - 1)
        + params.global_sync_time(d)
    )


def scatter_direct_time(m: float, d: int, params: MachineParams) -> float:
    """Direct-circuit scatter: ``2**d - 1`` root transmissions of one
    block each, serialized at the root's port:
    ``Σ_{i=1..n-1} (λ + τ·m + δ·popcount(i))`` plus global sync."""
    check_dimension(d)
    n = 1 << d
    startups = (n - 1) * (params.latency + params.byte_time * m)
    distance = params.hop_time * sum(popcount(i) for i in range(1, n))
    return startups + distance + params.global_sync_time(d)
