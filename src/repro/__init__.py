"""repro — Multiphase Complete Exchange on a Circuit Switched Hypercube.

A full reproduction of Bokhari's ICPP 1991 paper: the unified
multiphase complete-exchange (all-to-all personalized) algorithm for
circuit-switched hypercubes, its two classical special cases, the
analytic cost model and partition optimizer, and a calibrated
discrete-event simulator standing in for the Intel iPSC-860.

Quickstart
----------
>>> import repro
>>> # a verified, byte-moving multiphase exchange (d=4 cube, 32 B blocks)
>>> outcome = repro.multiphase_exchange(4, 32, (2, 2))
>>> outcome.verify()
>>> # the best partition for 40-byte blocks on a 128-node iPSC-860
>>> repro.best_partition(40, 7, repro.ipsc860()).partition
(4, 3)
>>> # a timed run on the simulated machine
>>> result = repro.simulate_exchange(5, 40, (3, 2), repro.ipsc860())
>>> round(result.time_us, 1)
5806.5

Package map
-----------
:mod:`repro.core`
    Algorithms, schedules, block engines, partitions.
:mod:`repro.model`
    Cost model (eqs. 1–3), calibration presets, optimizer.
:mod:`repro.hypercube`
    Topology, e-cube routing, contention analysis.
:mod:`repro.sim`
    Discrete-event circuit-switched machine, plus the vectorized
    lockstep fast path (:mod:`repro.sim.fastpath`) that prices
    schedules — contention-free and the contended naive baseline —
    without booting coroutine processes.
:mod:`repro.comm`
    Communicator facade and schedule replay on the simulator.
:mod:`repro.analysis`
    Figure/table reproduction and paper-vs-measured reports.
:mod:`repro.apps`
    Transpose, 2-D FFT, table lookup, ADI solver.
:mod:`repro.service`
    Long-lived optimizer query service: calibration registry,
    batched query resolution, JSON-lines serving over stdio and async
    TCP/Unix sockets with cross-client micro-batching, client library,
    memo warm-up from query logs.
:mod:`repro.plan`
    Optimizer-guided collective planning: pluggable policies
    (fixed / model / service) selecting the exchange algorithm per
    ``(d, m)`` for the comm layer, the apps, and the §9 patterns.
:mod:`repro.fabric`
    Shard fabric: a coordinator-backed optimizer *cluster* —
    consistent-hash shard placement with N-way replication, node
    registration + heartbeat liveness, epoch-versioned routing tables,
    and cluster-routing clients behind :func:`repro.service.connect`.
"""

from repro.apps import (
    ADIProblem,
    DistributedTable,
    adi_step,
    distributed_fft2,
    distributed_ifft2,
    distributed_lookup,
    distributed_transpose,
    run_adi,
)
from repro.comm import Communicator, simulate_exchange
from repro.core import (
    ExchangeOutcome,
    multiphase_exchange,
    optimal_exchange,
    partition_count,
    partitions,
    run_exchange,
    run_exchange_on_rows,
    standard_exchange,
)
from repro.hypercube import Hypercube, analyze_contention, ecube_path
from repro.model import (
    MachineParams,
    best_partition,
    crossover_block_size,
    hull_of_optimality,
    hypothetical,
    ipsc860,
    multiphase_time,
    optimal_time,
    standard_time,
)
from repro.plan import (
    CollectivePlanner,
    ContentionPolicy,
    FixedPolicy,
    ModelPolicy,
    PlanDecision,
    ServicePolicy,
    plan_pattern,
)
from repro.service import (
    OptimizerClient,
    OptimizerRegistry,
    Query,
    QueryBatch,
    QueryResult,
    ServerConfig,
    aconnect,
    connect,
)
from repro.sim import (
    SimulatedHypercube,
    batch_exchange_times,
    exchange_time,
    exchange_timeline,
    exchange_times,
    naive_contention_summary,
    naive_exchange_time,
)

__version__ = "1.0.0"

__all__ = [
    "ADIProblem",
    "CollectivePlanner",
    "Communicator",
    "ContentionPolicy",
    "DistributedTable",
    "ExchangeOutcome",
    "FixedPolicy",
    "Hypercube",
    "MachineParams",
    "ModelPolicy",
    "OptimizerClient",
    "OptimizerRegistry",
    "PlanDecision",
    "Query",
    "QueryBatch",
    "QueryResult",
    "ServerConfig",
    "ServicePolicy",
    "SimulatedHypercube",
    "__version__",
    "aconnect",
    "adi_step",
    "analyze_contention",
    "batch_exchange_times",
    "best_partition",
    "connect",
    "crossover_block_size",
    "distributed_fft2",
    "distributed_ifft2",
    "distributed_lookup",
    "distributed_transpose",
    "ecube_path",
    "exchange_time",
    "exchange_timeline",
    "exchange_times",
    "hull_of_optimality",
    "hypothetical",
    "ipsc860",
    "multiphase_exchange",
    "multiphase_time",
    "naive_contention_summary",
    "naive_exchange_time",
    "optimal_exchange",
    "optimal_time",
    "partition_count",
    "partitions",
    "plan_pattern",
    "run_adi",
    "run_exchange",
    "run_exchange_on_rows",
    "simulate_exchange",
    "standard_exchange",
    "standard_time",
]
