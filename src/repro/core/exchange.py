"""Abstract (un-timed) execution of the complete exchange.

:func:`replay` moves real bytes along the rounds of the two exchange
rows of :data:`repro.core.programs.PATTERN_TABLE`, the paper's
``alltoall/multiphase`` and its naive ``alltoall/rotation`` baseline,
without the discrete-event machinery:
:func:`~repro.core.programs.replay_pattern` advances all nodes in
lockstep, one round at a time.  It runs on pattern payloads or on user
rows, and is the fast path for correctness testing and for the
application kernels when no timing is required; it doubles as the
reference oracle for :func:`repro.comm.program.simulate` (both must
produce byte-identical results).

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
    SendStep,
    pattern_program,
    pattern_rounds,
    replay_pattern,
    resolve_pattern,
)
from repro.core.shuffle import LayoutBuffer
from repro.util.validation import (
    check_byte_rows,
    check_message_size,
    check_partition,
)

__all__ = [
    "ExchangeOutcome",
    "engine_buffer",
    "replay",
    "run_exchange",
    "run_exchange_on_rows",
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

    def rows(self) -> list[np.ndarray]:
        """Every node's :meth:`result_rows`, by node label."""
        return [self.result_rows(node) for node in range(len(self.buffers))]


def replay(
    algorithm: str,
    d: int | None = None,
    m: int | None = None,
    *,
    rows: Sequence[np.ndarray] | np.ndarray | None = None,
    partition: Sequence[int] | None = None,
    planner=None,
    engine: Engine = "tags",
) -> ExchangeOutcome:
    """Run one exchange row in lockstep and byte-verify it.

    ``algorithm`` is ``"multiphase"`` or ``"rotation"``, the two
    ``alltoall`` rows.  The blocks are pattern payloads of ``m`` bytes
    (a non-negative int) on a ``d``-cube, or the user's ``rows``:
    ``rows[x]`` is node ``x``'s ``(n, m)`` uint8 array, row ``j`` bound
    for node ``j`` (one node, ``d = 0``, keeps its row).
    ``partition`` (default ``(d,)``) applies to the multiphase row and
    ``engine`` (``"tags"`` or ``"layout"``) to its buffers;
    ``planner``, any object with ``decide(d, m)``, picks the multiphase
    row's partition instead, or the rotation.  The rotation runs on the
    tag engine.  Arguments are checked as
    :func:`repro.comm.program.simulate` checks them, before the planner
    is asked.

    >>> outcome = replay("multiphase", 3, 8, partition=(2, 1))
    >>> outcome.n_exchange_steps, outcome.bytes_sent_per_node
    (4, 80)
    >>> replay("rotation", rows=np.arange(8, dtype=np.uint8).reshape(2, 2, 2)).rows()[1].tolist()
    [[2, 3], [6, 7]]
    """
    buffer = engine_buffer(engine)
    if rows is not None:
        if d is not None or m is not None:
            raise ValueError("pass either d and m or rows=, not both")
        rows, d = _normalize_rows(rows)
        m = rows[0].shape[1]
        if d == 0:
            return ExchangeOutcome([buffer.from_rows(0, 0, rows[0])])
    if planner is not None and partition is not None:
        raise ValueError("pass either planner= or partition=, not both")
    row, partition, _ = resolve_pattern("alltoall", algorithm, d, partition=partition)
    if rows is None:
        check_message_size(m)
    if planner is not None:
        if row.schedule != "multiphase":
            raise ValueError(
                f"planner= applies only to the multiphase rows "
                f"(allgather/exchange, alltoall/multiphase), not {row.name}"
            )
        decision = planner.decide(d, m)
        if decision.algorithm == "naive":
            row, partition = PATTERN_TABLE["alltoall", "rotation"], None
        else:
            partition = check_partition(decision.partition, d)
    if row.schedule == "rotation":
        buffer = BlockBuffer
    buffers = (
        [buffer.initial(x, d, m) for x in range(1 << d)] if rows is None
        else [buffer.from_rows(x, d, r) for x, r in enumerate(rows)]
    )
    rounds = pattern_rounds(row, d, 0, partition=partition)
    replay_pattern(rounds, buffers)
    chain = pattern_program("alltoall", row.algorithm, d, partition=partition).steps
    outcome = ExchangeOutcome(
        buffers=buffers,
        n_exchange_steps=len(rounds),
        bytes_sent_per_node=buffers[0].m * sum(
            step.bytes_per_m for step in chain if isinstance(step, (PairStep, SendStep))
        ),
    )
    outcome.verify(check_payload=rows is None)
    return outcome


def run_exchange(
    d: int,
    m: int,
    partition: Sequence[int] | None = None,
    *,
    engine: Engine = "tags",
) -> ExchangeOutcome:
    """The multiphase exchange on pattern payloads (:func:`replay`);
    ``partition`` defaults to ``(d,)``, the single-phase Optimal
    Circuit-Switched algorithm.

    >>> run_exchange(3, 8, (2, 1)).n_exchange_steps
    4
    """
    return replay("multiphase", d, m, partition=partition, engine=engine)


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
    return replay("multiphase", rows=send_rows, partition=partition, engine=engine).rows()


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
