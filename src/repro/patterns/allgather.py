"""All-to-all broadcast — allgather (paper §9, ref. [8]).

Every node contributes one ``m``-byte block and must end with all
``2**d`` blocks.  The classical recursive-doubling algorithm: step
``j`` exchanges the accumulated ``m·2**j`` bytes with the neighbour
across dimension ``j``.  All transfers are nearest-neighbour pairwise
exchanges, so the §7.2 synchronized primitive applies and the schedule
is contention-free.

Predicted time::

    t_allgather(m, d) = Σ_{j=0..d-1} (λ_eff + τ·m·2**j + δ_eff)
                      = d·(λ_eff + δ_eff) + τ·m·(2**d - 1)  [+ γ·d]

Moving the same total volume per node as the complete exchange's
minimum but with only ``d`` startups — the structural advantage §9
hints simpler patterns can exploit.

The doubling schedule and its exchange-backed rival are declared once,
in :data:`repro.core.programs.PATTERN_TABLE`; run either on the
simulated machine with :func:`repro.patterns.simulate_pattern`.
"""

from __future__ import annotations

import numpy as np

from repro.model.params import MachineParams
from repro.patterns.execute import deliver
from repro.util.validation import check_dimension

__all__ = ["allgather", "allgather_time"]


def allgather(contributions: np.ndarray, d: int) -> list[np.ndarray]:
    """Data-level recursive-doubling allgather.

    ``contributions`` is an ``(2**d, m)`` array, row ``x`` being node
    ``x``'s block.  Returns each node's gathered ``(2**d, m)`` array
    ordered by origin, produced by executing the doubling schedule.

    >>> import numpy as np
    >>> out = allgather(np.array([[1], [2], [3], [4]], dtype=np.uint8), 2)
    >>> out[3].ravel().tolist()
    [1, 2, 3, 4]
    """
    check_dimension(d)
    n = 1 << d
    contributions = np.asarray(contributions)
    if contributions.shape[0] != n:
        raise ValueError(f"need {n} contributions, got {contributions.shape[0]}")
    held = deliver("allgather", "doubling", d, 0, lambda key: contributions[key].copy())
    return [np.stack([mine[origin] for origin in range(n)]) for mine in held]


def allgather_time(m: float, d: int, params: MachineParams) -> float:
    """Recursive-doubling allgather prediction (see module docstring)."""
    check_dimension(d)
    n = 1 << d
    return (
        d * (params.exchange_latency + params.exchange_hop_time)
        + params.byte_time * m * (n - 1)
        + params.global_sync_time(d)
    )
