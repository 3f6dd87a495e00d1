"""Seeded inputs for every workload, their digests, and run scales.

Everything the program under test receives is generated here from the
workload seed, so the same ``--seed`` gives byte-identical inputs (and
the same SHA-256 digest) on any machine.  ``reproduce`` simulates the
paper's own points, which no seed changes.  ``FULL`` is the scale the
benchmark runs at; ``TOY`` runs the same code paths in about a second
and is what the smoke tests use.
"""

from __future__ import annotations

import hashlib
import json
from itertools import zip_longest

import numpy as np

SERVE_WORKLOADS = ("serve_hot_binary", "serve_cold_binary", "serve_hot_json")
INPROC_WORKLOADS = ("plan_stream", "reproduce", "chaos")
WORKLOADS = SERVE_WORKLOADS + INPROC_WORKLOADS

#: the preset the serving shards are built for (``repro shards`` default)
PRESET = "ipsc860"
#: queries per request frame (binary) or batch line (JSON)
QUERIES_PER_FRAME = 32
#: frames generated per block of the lazily extended frame stream
FRAMES_PER_BLOCK = 256
#: distinct cells the hot workloads draw from
HOT_CELLS = 256
#: the serving shards' sweep bound: below it a cold query is table-covered
SHARD_BOUND = 400.0

#: the paper's simulated block sizes for figures 4 and 5
FIGURE_SIZES = [0, 8, 24, 40, 80, 160, 240, 320, 400]

FULL = {
    "serve": {
        "setups": 3, "warmup_s": 2.0, "depth": 4, "sample_every": 64, "max_samples": 400,
    },
    "plan_stream": {"requests": 4000},
    # figures 4 and 5 on the full size axis, figure 6 at four sizes
    "reproduce": {"figures": [[4, FIGURE_SIZES], [5, FIGURE_SIZES], [6, [0, 40, 160, 400]]]},
    "chaos": {"sweeps": 5, "d": 5, "m": 16},
    "min_setups": 3,
}

TOY = {
    "serve": {
        "setups": 1, "warmup_s": 0.0, "depth": 2, "sample_every": 4, "max_samples": 20,
    },
    "plan_stream": {"requests": 24},
    "reproduce": {"figures": [[4, [0, 40]]]},
    "chaos": {"sweeps": 1, "d": 3, "m": 8},
    "min_setups": 1,
}


def digest(*parts: object) -> str:
    """SHA-256 over arrays (their raw bytes) and JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# serving: an endless, lazily generated stream of (d, m) query frames
# ----------------------------------------------------------------------
def hot_cells(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The 256 seeded cells of the hot workloads: d in 4..8, m in [1, 400)."""
    rng = np.random.default_rng([seed, 0])
    return rng.integers(4, 9, HOT_CELLS), rng.uniform(1.0, SHARD_BOUND, HOT_CELLS)


def query_block(workload: str, seed: int, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Block ``block`` of the workload's query stream: ``(d, m)`` arrays
    of shape ``(FRAMES_PER_BLOCK, QUERIES_PER_FRAME)``.  Blocks are
    independent draws, so frame ``i`` is the same however far a run
    gets; the JSON workload reuses the hot binary stream exactly."""
    shape = (FRAMES_PER_BLOCK, QUERIES_PER_FRAME)
    if workload in ("serve_hot_binary", "serve_hot_json"):
        cells_d, cells_m = hot_cells(seed)
        pick = np.random.default_rng([seed, 1, block]).integers(0, HOT_CELLS, shape)
        return cells_d[pick], cells_m[pick]
    if workload == "serve_cold_binary":
        rng = np.random.default_rng([seed, 2, block])
        d = rng.integers(4, 9, shape)
        # even columns inside the shards' sweep bound (table + grid),
        # odd columns beyond it (full-pool scoring); continuous m, so
        # no cell ever repeats
        m = np.empty(shape)
        m[:, 0::2] = rng.uniform(1.0, SHARD_BOUND, (shape[0], shape[1] // 2))
        m[:, 1::2] = rng.uniform(SHARD_BOUND, 4000.0, (shape[0], shape[1] // 2))
        return d, m
    raise ValueError(f"{workload!r} is not a serving workload")


def serve_digest(workload: str, seed: int) -> str:
    d, m = query_block(workload, seed, 0)
    return digest(workload.replace("_json", "_binary"), d, m)


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
def plan_requests(seed: int, n: int) -> list[tuple[int, float]]:
    """``n`` planning requests: every d in 3..10 equally often (so the
    cost mix does not drift with the seed), m log-uniform on
    [1, 4096] B quantized to 0.25 B, in seeded order."""
    rng = np.random.default_rng([seed, 3])
    d = np.resize(np.arange(3, 11), n)
    m = np.round(np.exp(rng.uniform(0.0, np.log(4096.0), n)) * 4.0) / 4.0
    order = rng.permutation(n)
    return list(zip(d[order].tolist(), m[order].tolist()))


def reproduce_configs(scale: dict) -> list[list]:
    """``[figure, d, partition, m]`` for every simulated point of the
    figures, taking one point from each figure in turn.  The points are
    the paper's, so the seed does not change them; interleaving the
    figures keeps one slow stretch of the machine from landing on one
    figure's points, and a fixed order keeps peak memory repeatable."""
    from repro.analysis.figures import FIGURE_SPECS

    per_figure = [
        [[figure, FIGURE_SPECS[figure].d, list(partition), m]
         for partition in FIGURE_SPECS[figure].partitions for m in sizes]
        for figure, sizes in scale["reproduce"]["figures"]
    ]
    return [c for turn in zip_longest(*per_figure) for c in turn if c is not None]


def chaos_seeds(seed: int, scale: dict) -> list[int]:
    """One fault-plan seed per chaos sweep, derived from ``seed``."""
    state = np.random.SeedSequence([seed, 5]).generate_state(scale["chaos"]["sweeps"])
    return [int(s) for s in state]


def inproc_digest(workload: str, seed: int, scale: dict) -> str:
    if workload == "plan_stream":
        return digest(workload, plan_requests(seed, scale["plan_stream"]["requests"]))
    if workload == "reproduce":
        return digest(workload, reproduce_configs(scale))
    if workload == "chaos":
        return digest(workload, scale["chaos"], chaos_seeds(seed, scale))
    raise ValueError(f"{workload!r} is not an in-process workload")
