"""The paper's primary contribution: complete-exchange algorithms.

Exposes the three algorithms (Standard Exchange, Optimal
Circuit-Switched, and the unifying multiphase algorithm), the offset
orderings of their rounds, the block/shuffle data engines, and integer
partition enumeration.
"""

from repro.core.blocks import BlockBuffer, BlockSet, payload_pattern
from repro.core.exchange import (
    ExchangeOutcome,
    run_exchange,
    run_exchange_on_rows,
)
from repro.core.multiphase import (
    effective_block_size,
    multiphase_exchange,
    total_transmissions,
)
from repro.core.optimal import optimal_exchange, optimal_partition, pairwise_partners
from repro.core.partitions import (
    cached_partitions,
    compositions,
    partition_count,
    partition_count_table,
    partitions,
)
from repro.core.shuffle import LayoutBuffer, apply_shuffle, shuffle_permutation
from repro.core.standard import standard_exchange, standard_partition
from repro.core.traffic import (
    best_partition_for_traffic,
    route_traffic,
    traffic_time,
    uniform_traffic,
)
from repro.core.variants import (
    ORDERINGS,
    distance_profile,
    offset_order,
    ordered_rounds,
)
from repro.core.verify import alltoall_reference, assert_exchange_correct, exchange_defect

__all__ = [
    "BlockBuffer",
    "ORDERINGS",
    "best_partition_for_traffic",
    "distance_profile",
    "offset_order",
    "ordered_rounds",
    "route_traffic",
    "traffic_time",
    "uniform_traffic",
    "BlockSet",
    "ExchangeOutcome",
    "LayoutBuffer",
    "alltoall_reference",
    "apply_shuffle",
    "assert_exchange_correct",
    "cached_partitions",
    "compositions",
    "effective_block_size",
    "exchange_defect",
    "multiphase_exchange",
    "optimal_exchange",
    "optimal_partition",
    "pairwise_partners",
    "partition_count",
    "partition_count_table",
    "partitions",
    "payload_pattern",
    "run_exchange",
    "run_exchange_on_rows",
    "shuffle_permutation",
    "standard_exchange",
    "standard_partition",
    "total_transmissions",
]
