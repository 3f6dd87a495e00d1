"""Analytic run-time model, calibration presets, and partition optimizer.

Implements the paper's eqs. (1)–(3), the §4.3 crossover analysis, and
the §6 enumeration that picks the best partition for a block size.
"""

from repro.model.cost import (
    PhaseCost,
    degraded_multiphase_time,
    multiphase_time,
    optimal_time,
    phase_breakdown,
    phase_cost,
    standard_time,
    total_distance,
)
from repro.model.crossover import (
    crossover_block_size,
    empirical_crossover,
    empirical_crossovers,
    standard_wins,
)
from repro.model.optimizer import (
    OptimalChoice,
    OptimizerTable,
    best_partition,
    best_partitions,
    evaluate_partitions,
    hull_of_optimality,
)
from repro.model.params import PRESETS, MachineParams, hypothetical, ipsc860
from repro.model.sensitivity import (
    HullShift,
    free_permutation_study,
    hull_under,
    latency_sweep,
    sync_overhead_study,
)
from repro.model.store import (
    ShardFile,
    load_shard,
    load_table,
    params_fingerprint,
    save_shard,
    save_table,
)
from repro.model.vectorized import grid_winners, multiphase_time_grid

__all__ = [
    "HullShift",
    "MachineParams",
    "free_permutation_study",
    "hull_under",
    "latency_sweep",
    "load_shard",
    "load_table",
    "params_fingerprint",
    "save_shard",
    "save_table",
    "sync_overhead_study",
    "ShardFile",
    "OptimalChoice",
    "OptimizerTable",
    "PRESETS",
    "PhaseCost",
    "best_partition",
    "best_partitions",
    "crossover_block_size",
    "degraded_multiphase_time",
    "empirical_crossover",
    "empirical_crossovers",
    "evaluate_partitions",
    "grid_winners",
    "hull_of_optimality",
    "hypothetical",
    "ipsc860",
    "multiphase_time",
    "multiphase_time_grid",
    "optimal_time",
    "phase_breakdown",
    "phase_cost",
    "standard_time",
    "standard_wins",
    "total_distance",
]
