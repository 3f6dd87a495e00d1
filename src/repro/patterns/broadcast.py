"""One-to-all broadcast on the hypercube (paper §9, ref. [8]).

The classical binomial-tree (subcube-doubling) broadcast: in step
``j`` every node that already holds the message forwards it across
dimension ``j``, doubling the informed set; after ``d`` steps all
``2**d`` nodes hold it.  All transfers are nearest-neighbour, so the
schedule is trivially contention-free, and on a circuit-switched
machine each step costs ``λ + τ·m + δ``.

Total predicted time: ``t_bcast(m, d) = d·(λ + τ·m + δ)`` — far below
the complete-exchange bound, as §3's upper-bound argument requires
(tested in :mod:`tests.patterns.test_bounds`).

The schedule itself is declared once, in
:data:`repro.core.programs.PATTERN_TABLE`; run it on the simulated
machine with :func:`repro.patterns.simulate_pattern`.
"""

from __future__ import annotations

import numpy as np

from repro.model.params import MachineParams
from repro.patterns.execute import deliver
from repro.util.validation import check_dimension

__all__ = ["broadcast", "broadcast_time"]


def broadcast(message: np.ndarray, root: int, d: int) -> list[np.ndarray]:
    """Data-level binomial broadcast: every node's received copy.

    Executes the subcube-doubling schedule explicitly (not just a
    fan-out copy) so the tests can check the schedule, then returns the
    per-node results.

    >>> import numpy as np
    >>> out = broadcast(np.array([1, 2], dtype=np.uint8), root=3, d=2)
    >>> [o.tolist() for o in out]
    [[1, 2], [1, 2], [1, 2], [1, 2]]
    """
    message = np.asarray(message)
    held = deliver("broadcast", "binomial", d, root, lambda key: message)
    return [blocks[root].copy() for blocks in held]


def broadcast_time(m: float, d: int, params: MachineParams) -> float:
    """Predicted binomial-broadcast time: ``d·(λ + τ·m + δ)`` plus the
    initial global synchronization (FORCED discipline, §7.3)."""
    check_dimension(d)
    return d * (params.latency + params.byte_time * m + params.hop_time) + (
        params.global_sync_time(d)
    )
