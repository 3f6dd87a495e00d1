"""Message-passing layer: communicator facade and schedule replay.

Glues the algorithm schedules of :mod:`repro.core` to the simulated
machine of :mod:`repro.sim`, and offers an mpi4py-flavoured
:class:`~repro.comm.communicator.Communicator` for writing SPMD node
programs.  Collectives accept a :class:`repro.plan.CollectivePlanner`
so the algorithm (standard / multiphase / naive) is selected per
``(d, m)`` at call time instead of being hardcoded.  Every declared
row runs on the simulated machine through
:func:`repro.comm.program.simulate`.
"""

from repro.comm.communicator import Communicator
from repro.comm.program import SimulatedExchange, simulate_exchange

__all__ = [
    "Communicator",
    "SimulatedExchange",
    "simulate_exchange",
]
