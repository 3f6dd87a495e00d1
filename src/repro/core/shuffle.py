"""Block shuffles and the contiguous-layout discipline (paper Fig. 3).

On the real machine the ``2**d`` blocks of a node live in one
contiguous buffer, and each multiphase transmission must send a
*contiguous* superblock (a single ``csend``).  The paper's *shuffles*
are the in-memory permutations that restore contiguity between phases:
"shuffle blocks d_i times" after the phase on a ``d_i``-dimensional
subcube group.

This module establishes (and :mod:`tests.core.test_shuffle` verifies)
the precise meaning of one elementary shuffle: **one left rotation of
the d-bit block index**.  Concretely, with the layout invariant

    at the start of phase *i* the block index reads, MSB first,
    ``[dest G_i | dest G_{i+1} | ... | dest G_k | origin G_1 | ... | origin G_{i-1}]``

a phase's pairwise exchanges swap equal-index contiguous runs (the top
``d_i`` index bits select the run), turning the top field into
``origin G_i``; rotating the whole index left by ``d_i`` then yields
the next phase's invariant, and after the final rotation every node is
exactly origin-sorted.  For ``k = 1`` the rotation is by ``d`` — the
identity — matching the paper's remark that the single-phase algorithm
needs no shuffling at all.

:class:`LayoutBuffer` implements this physically-contiguous engine; the
tag-based :class:`repro.core.blocks.BlockBuffer` engine is the oracle it
is cross-validated against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.blocks import BlockSet, first_mismatch, payload_rows
from repro.hypercube.subcube import BitGroup
from repro.util.bitops import popcount, rotate_bits_left, rotate_bits_right
from repro.util.validation import check_dimension, check_node

if TYPE_CHECKING:
    from repro.core.programs import Round

__all__ = [
    "LayoutBuffer",
    "apply_shuffle",
    "shuffle_gather_indices",
    "shuffle_permutation",
]


def shuffle_permutation(d: int, times: int) -> np.ndarray:
    """Destination map of ``times`` elementary shuffles on ``2**d`` blocks.

    Returns ``perm`` with ``perm[q]`` the new position of the block at
    position ``q``: ``new[perm[q]] = old[q]`` where
    ``perm[q] = rotate_bits_left(q, times, d)``.

    >>> shuffle_permutation(3, 1).tolist()
    [0, 2, 4, 6, 1, 3, 5, 7]
    """
    check_dimension(d, minimum=1)
    return np.array([rotate_bits_left(q, times, d) for q in range(1 << d)], dtype=np.int64)


def shuffle_gather_indices(d: int, times: int) -> np.ndarray:
    """Gather form of :func:`shuffle_permutation`.

    Returns ``idx`` with ``new[j] = old[idx[j]]``, i.e.
    ``idx[j] = rotate_bits_right(j, times, d)`` — the form numpy fancy
    indexing consumes in a single vectorized pass (the paper's ``rho``
    cost per byte buys exactly this pass).
    """
    check_dimension(d, minimum=1)
    return np.array([rotate_bits_right(j, times, d) for j in range(1 << d)], dtype=np.int64)


def apply_shuffle(blocks: np.ndarray, times: int, d: int) -> np.ndarray:
    """Apply ``times`` elementary shuffles to a block array.

    ``blocks`` has ``2**d`` rows (axis 0 indexes blocks); the result is
    a new array with rows permuted so that the row previously at ``q``
    lands at ``rotate_bits_left(q, times, d)``.
    """
    n = 1 << d
    if blocks.shape[0] != n:
        raise ValueError(f"expected {n} block rows, got {blocks.shape[0]}")
    return blocks[shuffle_gather_indices(d, times)]


class LayoutBuffer:
    """Physically-contiguous block buffer following the Fig. 3 discipline.

    Stores the node's ``2**d`` blocks in a single ``(2**d, m)`` array in
    the exact order a real implementation would: phase transmissions
    are contiguous row-runs, and phases are separated by
    :func:`apply_shuffle` rotations.

    The buffer also carries parallel origin/dest tag arrays so the
    layout invariant itself can be asserted at every step.
    """

    def __init__(self, node: int, d: int, m: int) -> None:
        check_dimension(d)
        check_node(node, d)
        self.node = node
        self.d = d
        self.m = int(m)
        n = 1 << d
        # Initial layout: index == destination (phase-1 invariant).
        self.origins = np.full(n, node, dtype=np.int64)
        self.dests = np.arange(n, dtype=np.int64)
        self.payload = payload_rows(self.origins, self.dests, m, d)

    @classmethod
    def initial(cls, node: int, d: int, m: int) -> "LayoutBuffer":
        """The pre-exchange layout with pattern payloads, as
        :meth:`repro.core.blocks.BlockBuffer.initial`."""
        return cls(node, d, m)

    @classmethod
    def from_rows(cls, node: int, d: int, rows: np.ndarray) -> "LayoutBuffer":
        """Initial layout from user data; row ``j`` goes to node ``j``."""
        n = 1 << d
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[0] != n:
            raise ValueError(f"expected ({n}, m) rows, got shape {rows.shape}")
        buf = cls.__new__(cls)
        buf.node = check_node(node, check_dimension(d))
        buf.d = d
        buf.m = rows.shape[1]
        buf.payload = rows.copy()
        buf.origins = np.full(n, node, dtype=np.int64)
        buf.dests = np.arange(n, dtype=np.int64)
        return buf

    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return self.payload.shape[0]

    def run_slice(self, group: BitGroup, run: int) -> slice:
        """Row range of superblock ``run`` for a phase of width ``group.width``.

        The top ``group.width`` index bits select the run, so run ``c``
        occupies rows ``[c * 2**(d - w), (c+1) * 2**(d - w))``.
        """
        width = group.width
        if not 0 <= run < (1 << width):
            raise ValueError(f"run {run} out of range for phase width {width}")
        span = 1 << (self.d - width)
        return slice(run * span, (run + 1) * span)

    def take_run(self, group: BitGroup, run: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copy out superblock ``run`` as ``(origins, dests, payload)``.

        The copy is what goes on the wire; the run's rows stay in place
        until :meth:`put_run` overwrites them with the partner's data.
        """
        sl = self.run_slice(group, run)
        return self.origins[sl].copy(), self.dests[sl].copy(), self.payload[sl].copy()

    def put_run(
        self,
        group: BitGroup,
        run: int,
        origins: np.ndarray,
        dests: np.ndarray,
        payload: np.ndarray,
    ) -> None:
        """Install a received superblock into row-run ``run``."""
        sl = self.run_slice(group, run)
        span = sl.stop - sl.start
        if len(origins) != span or len(dests) != span or payload.shape != (span, self.m):
            raise ValueError(
                f"received superblock of {len(origins)} blocks / shape {payload.shape}; "
                f"expected {span} rows of {self.m} bytes"
            )
        self.origins[sl] = origins
        self.dests[sl] = dests
        self.payload[sl] = payload

    def send(self, rnd: "Round", dst: int) -> BlockSet:
        """Holdings call (:func:`repro.core.programs.replay_pattern`):
        copy out the run of ``dst``'s coordinate in the round's bit
        group (the cube bits outside ``rnd.reach``), vacating it.
        Raises if the run holds blocks for another coordinate."""
        mask = ~rnd.reach & ((1 << self.d) - 1)
        group = BitGroup(lo=(mask & -mask).bit_length() - 1, width=popcount(mask))
        if group.mask != mask:
            raise ValueError(f"round group {mask:#b} is not a contiguous bit group")
        run = group.coordinate(dst)
        origins, dests, payload = self.take_run(group, run)
        if (((dests >> group.lo) & ((1 << group.width) - 1)) != run).any():
            raise AssertionError(
                f"node {self.node}: layout invariant broken: run {run} holds "
                f"blocks for other coordinates of phase group lo={group.lo} "
                f"width={group.width}"
            )
        self._vacated = (group, run)
        return BlockSet(origins, dests, payload)

    def receive(self, blocks: BlockSet) -> tuple[()]:
        """Holdings call: install the partner's run where :meth:`send`
        vacated one."""
        self.put_run(*self._vacated, blocks.origins, blocks.dests, blocks.payload)
        return ()

    def shuffle(self, times: int) -> None:
        """Apply ``times`` elementary shuffles (index-bit left rotations)."""
        idx = shuffle_gather_indices(self.d, times)
        self.payload = self.payload[idx]
        self.origins = self.origins[idx]
        self.dests = self.dests[idx]

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify_final(self, *, check_payload: bool = True) -> None:
        """Assert the final origin-sorted state, byte-checking payloads."""
        n = self.n_blocks
        if not np.array_equal(self.origins, np.arange(n)):
            raise AssertionError(
                f"node {self.node}: final layout not origin-sorted: {self.origins.tolist()}"
            )
        if not (self.dests == self.node).all():
            raise AssertionError(
                f"node {self.node}: holds blocks for other destinations "
                f"{np.unique(self.dests[self.dests != self.node]).tolist()}"
            )
        if check_payload and self.m > 0:
            expected = payload_rows(self.origins, self.dests, self.m, self.d)
            bad = first_mismatch(self.payload, expected)
            if bad is not None:
                raise AssertionError(f"node {self.node}: payload from origin {bad} corrupted")

    def __repr__(self) -> str:
        return f"LayoutBuffer(node={self.node}, d={self.d}, m={self.m})"
