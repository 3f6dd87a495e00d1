"""Abstract (un-timed) execution of the complete exchange.

This module moves real bytes along the rounds of the exchange's one
declaration, the ``alltoall/multiphase`` row of
:data:`repro.core.programs.PATTERN_TABLE`, without the discrete-event
machinery: :func:`~repro.core.programs.replay_pattern` advances all
nodes in lockstep, one round at a time.  It is the fast path for
correctness testing and for the application kernels when no timing is
required, and it doubles as the reference oracle for the simulator
(both must produce byte-identical results).

Two interchangeable data engines are provided:

* ``engine="tags"`` — :class:`~repro.core.blocks.BlockBuffer`, which
  selects blocks by destination bit fields (rule-based, position-free);
* ``engine="layout"`` — :class:`~repro.core.shuffle.LayoutBuffer`, which
  reproduces the real machine's contiguous superblock layout and
  explicit shuffle permutations (paper Figure 3).

Both end origin-sorted and byte-verified; the test suite cross-checks
them step by step.  :func:`engine_buffer` maps an engine name to its
buffer class, here and on the simulated machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.core.blocks import BlockBuffer
from repro.core.programs import (
    PATTERN_TABLE,
    PairStep,
    Round,
    pattern_program,
    pattern_rounds,
    replay_pattern,
)
from repro.core.shuffle import LayoutBuffer
from repro.util.validation import (
    check_byte_rows,
    check_dimension,
    check_message_size,
    check_partition,
)

__all__ = [
    "ExchangeOutcome",
    "engine_buffer",
    "run_exchange",
    "run_exchange_on_rows",
    "run_naive_exchange_on_rows",
    "run_planned_exchange_on_rows",
]

Engine = Literal["tags", "layout"]


def engine_buffer(engine: str) -> type[BlockBuffer] | type[LayoutBuffer]:
    """The buffer class of a data engine: ``initial(node, d, m)`` builds
    a node's pattern payloads, ``from_rows(node, d, rows)`` its user
    data.  Every entry point that takes ``engine=`` checks it here
    before it prices or boots anything.

    >>> engine_buffer("layout").__name__
    'LayoutBuffer'
    """
    if engine == "tags":
        return BlockBuffer
    if engine == "layout":
        return LayoutBuffer
    raise ValueError(f"unknown engine {engine!r}; expected 'tags' or 'layout'")


@dataclass
class ExchangeOutcome:
    """Result of an abstract exchange run.

    Attributes
    ----------
    buffers:
        Final per-node buffers (``BlockBuffer`` or ``LayoutBuffer``
        depending on the engine), indexed by node label.
    n_exchange_steps:
        Number of pairwise-exchange steps executed per node.
    bytes_sent_per_node:
        Payload bytes each node transmitted (identical across nodes by
        symmetry).
    """

    buffers: list
    n_exchange_steps: int = 0
    bytes_sent_per_node: int = 0

    def verify(self, *, check_payload: bool = True) -> None:
        """Assert every node holds a correct complete-exchange result.

        Tag buffers are checked many nodes per pass
        (:meth:`~repro.core.blocks.BlockBuffer.verify_all`); either way
        the first failing rank raises its own message."""
        if self.buffers and isinstance(self.buffers[0], LayoutBuffer):
            for buf in self.buffers:
                buf.verify_final(check_payload=check_payload)
        else:
            BlockBuffer.verify_all(self.buffers, check_payload=check_payload)

    def result_rows(self, node: int) -> np.ndarray:
        """Received blocks of ``node`` ordered by origin, ``(n, m)``."""
        buf = self.buffers[node]
        if isinstance(buf, LayoutBuffer):
            buf.verify_final(check_payload=False)
            return buf.payload
        return buf.result_rows()


def run_exchange(
    d: int,
    m: int,
    partition: Sequence[int] | None = None,
    *,
    engine: Engine = "tags",
) -> ExchangeOutcome:
    """Execute a complete exchange with pattern payloads and verify it.

    Parameters
    ----------
    d:
        Cube dimension (``2**d`` nodes).
    m:
        Block size in bytes, a non-negative int.
    partition:
        Multiphase partition; defaults to ``(d,)`` (the single-phase
        Optimal Circuit-Switched algorithm).
    engine:
        ``"tags"`` (rule-based oracle) or ``"layout"`` (contiguous
        superblock engine with explicit shuffles).

    >>> outcome = run_exchange(3, 8, (2, 1))
    >>> outcome.verify()
    >>> outcome.n_exchange_steps
    4
    """
    check_dimension(d, minimum=1)
    check_message_size(m)
    parts = check_partition(partition if partition is not None else (d,), d)
    buffer = engine_buffer(engine)
    outcome = _replay([buffer.initial(node, d, m) for node in range(1 << d)], d, parts)
    outcome.verify()
    return outcome


def run_exchange_on_rows(
    send_rows: Sequence[np.ndarray] | np.ndarray,
    partition: Sequence[int] | None = None,
    *,
    engine: Engine = "tags",
) -> list[np.ndarray]:
    """Complete exchange of user data; the library's data front door.

    ``send_rows[x]`` is node ``x``'s ``(n, m)`` uint8 array, row ``j``
    bound for node ``j``.  Returns ``recv_rows`` with ``recv_rows[x][j]``
    equal to ``send_rows[j][x]`` — the defining equation of the complete
    exchange (and of the block matrix transpose, Figure 2).
    """
    buffer = engine_buffer(engine)
    rows, d = _normalize_rows(send_rows)
    if d == 0:
        return [rows[0].copy()]
    return _rows_exchange(rows, d, _multiphase_rounds(d, partition), buffer)


def _multiphase_rounds(d: int, partition: Sequence[int] | None) -> tuple[Round, ...]:
    parts = check_partition(partition if partition is not None else (d,), d)
    return pattern_rounds(PATTERN_TABLE["alltoall", "multiphase"], d, 0, partition=parts)


def _rows_exchange(
    rows: list[np.ndarray],
    d: int,
    rounds: Sequence[Round],
    buffer: type[BlockBuffer] | type[LayoutBuffer],
) -> list[np.ndarray]:
    """Exchange already-normalized rows (``d >= 1``) along ``rounds``."""
    outcome = ExchangeOutcome([buffer.from_rows(x, d, row) for x, row in enumerate(rows)])
    replay_pattern(rounds, outcome.buffers)
    outcome.verify(check_payload=False)
    return [outcome.result_rows(x) for x in range(len(rows))]


def _replay(buffers: list, d: int, parts: tuple[int, ...]) -> ExchangeOutcome:
    """Run the declared exchange's rounds over ``buffers``."""
    rounds = _multiphase_rounds(d, parts)
    replay_pattern(rounds, buffers)
    chain = pattern_program("alltoall", "multiphase", d, partition=parts).steps
    return ExchangeOutcome(
        buffers=buffers,
        n_exchange_steps=len(rounds),
        bytes_sent_per_node=buffers[0].m * sum(
            step.bytes_per_m for step in chain if isinstance(step, PairStep)
        ),
    )


def _normalize_rows(send_rows: Sequence[np.ndarray] | np.ndarray) -> tuple[list[np.ndarray], int]:
    """Validate user send rows; returns ``(rows, d)``."""
    rows = [check_byte_rows(r, x) for x, r in enumerate(send_rows)]
    n = len(rows)
    if n == 0 or (n & (n - 1)):
        raise ValueError(f"number of nodes must be a power of two, got {n}")
    d = n.bit_length() - 1
    for x, r in enumerate(rows):
        if r.ndim != 2 or r.shape[0] != n:
            raise ValueError(f"node {x}: expected ({n}, m) send rows, got {r.shape}")
        if r.shape[1] != rows[0].shape[1]:
            raise ValueError("all nodes must use the same block size")
    return rows, d


def run_naive_exchange_on_rows(
    send_rows: Sequence[np.ndarray] | np.ndarray,
) -> list[np.ndarray]:
    """Complete exchange of user data along the naive rotation schedule.

    Step ``s`` moves node ``x``'s block for ``(x + s) mod n`` — the
    textbook crossbar order of the ``alltoall/rotation`` row, replayed
    in lockstep on real bytes.  Data-wise the result equals
    :func:`run_exchange_on_rows` (any correct exchange must agree); the
    schedule only differs in *time* on the simulated machine, which is
    the point of keeping it as a baseline policy target.
    """
    rows, d = _normalize_rows(send_rows)
    if d == 0:
        return [rows[0].copy()]
    return _rows_exchange(rows, d, _rotation_rounds(d), BlockBuffer)


def _rotation_rounds(d: int) -> tuple[Round, ...]:
    return pattern_rounds(PATTERN_TABLE["alltoall", "rotation"], d, 0)


def run_planned_exchange_on_rows(
    send_rows: Sequence[np.ndarray] | np.ndarray,
    planner,
    *,
    engine: Engine = "tags",
) -> list[np.ndarray]:
    """Complete exchange of user data, algorithm chosen by a planner.

    ``planner`` is any object with a ``decide(d, m) -> PlanDecision``
    method (normally :class:`repro.plan.CollectivePlanner`); the
    decision selects the naive rotation baseline or a multiphase
    partition per ``(d, m)`` at call time.  This is the data-layer
    entry point the apps route through.
    """
    buffer = engine_buffer(engine)
    rows, d = _normalize_rows(send_rows)
    if d == 0:
        return [rows[0].copy()]
    decision = planner.decide(d, rows[0].shape[1])
    if decision.algorithm == "naive":
        return _rows_exchange(rows, d, _rotation_rounds(d), BlockBuffer)
    return _rows_exchange(rows, d, _multiphase_rounds(d, decision.partition), buffer)
