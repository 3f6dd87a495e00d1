"""Tagged block storage for complete-exchange data movement.

Every node of an ``n = 2**d`` machine starts with ``n`` blocks of ``m``
bytes, block ``j`` destined for node ``j``; a correct complete exchange
leaves every node holding the ``n`` blocks addressed to it, one from
each origin.  :class:`BlockBuffer` stores the blocks with explicit
``(origin, dest)`` tags plus numpy byte payloads, so the exchange
algorithms can be verified byte-for-byte rather than by counting
messages.

The buffer is deliberately *rule-oriented* rather than layout-oriented:
blocks are selected by destination bit fields (the invariant the
algorithms maintain), independent of physical position.  It is also
*fixed-slot*: a node always holds ``n`` blocks, an exchange step copies
out the slots bound for the partner (:meth:`BlockBuffer.take`) and
overwrites those same slots with what the partner sends back
(:meth:`BlockBuffer.put`), so no step reallocates the buffer; as
holdings of the lockstep :func:`repro.core.programs.replay_pattern`
and of the SPMD :func:`repro.patterns.execute.pattern_node` it does
both per round (:meth:`BlockBuffer.send`, :meth:`BlockBuffer.receive`).

Fixed slots give a round its slots without reading a tag: across
group G to partner p they are the slots whose G coordinate equals p's
(:meth:`BlockBuffer.send`, one memoized slot matrix per cube and
group), since a phase rewrites only the G coordinate of a destination
and a round refills exactly the slots it sent (a naive rotation
round's group is every bit: it sends slot p).  A receive refills the
oldest unanswered send's slots, so sends may run ahead.  The
companion :mod:`repro.core.shuffle` module implements the
physically-contiguous layout discipline of the real machine; the two
are cross-validated in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.util.bitops import popcount
from repro.util.validation import check_dimension, check_node

if TYPE_CHECKING:
    from repro.core.programs import Round

__all__ = ["BlockBuffer", "BlockSet", "payload_pattern", "payload_rows"]

#: Modulus for the deterministic payload pattern.  A prime below 256 so
#: that distinct (origin, dest, offset) triples rarely collide.
_PATTERN_MOD = 251
#: ``7 * 36 == 252``, so 36 is the inverse of the ramp step 7 mod 251.
_SEVEN_INVERSE = 36
#: Bytes of payload and tags one pass of :meth:`BlockBuffer.verify_all`
#: stacks.  The pass holds the stack, the expected rows and their
#: comparison at once, so its temporaries stay near 1 MB whatever the
#: cube and block size (larger chunks also fall out of cache and run
#: slower at d = 7, m = 400).
_VERIFY_CHUNK_BYTES = 1 << 18


def payload_pattern(origin: int, dest: int, m: int, d: int) -> np.ndarray:
    """Deterministic, verifiable payload for the block ``origin -> dest``.

    The byte at offset ``i`` is ``((origin * n + dest) * 31 + i * 7) % 251``
    with ``n = 2**d``; any corruption, misrouting, or mis-sizing shows
    up as a mismatch against this pattern.
    """
    if m < 0:
        raise ValueError(f"block size must be >= 0, got {m}")
    n = 1 << d
    base = (origin * n + dest) * 31
    return ((base + np.arange(m, dtype=np.int64) * 7) % _PATTERN_MOD).astype(np.uint8)


def payload_rows(origins: np.ndarray, dests: np.ndarray, m: int, d: int) -> np.ndarray:
    """All the payloads of a batch of blocks in one pass.

    Row ``i`` of the ``(len(origins), m)`` result equals
    ``payload_pattern(origins[i], dests[i], m, d)``.  With ``36`` the
    inverse of ``7`` mod 251, byte ``j`` of a row is
    ``(31 * tag + 7 * j) % 251 == 7 * (s + j) % 251`` for
    ``s = 31 * 36 * tag % 251``: every row is a length-``m`` window of
    one shared ramp, so the rows are gathered as uint8 windows with no
    wider ``(B, m)`` temporaries.

    >>> payload_rows(np.array([1, 2]), np.array([3, 0]), 5, 2).tolist() == [
    ...     payload_pattern(1, 3, 5, 2).tolist(), payload_pattern(2, 0, 5, 2).tolist()]
    True
    """
    if m < 0:
        raise ValueError(f"block size must be >= 0, got {m}")
    n = 1 << d
    tags = np.asarray(origins, dtype=np.int64) * n + np.asarray(dests, dtype=np.int64)
    starts = tags % _PATTERN_MOD * (31 * _SEVEN_INVERSE) % _PATTERN_MOD
    ramp = (np.arange(m + _PATTERN_MOD) * 7 % _PATTERN_MOD).astype(np.uint8)
    return sliding_window_view(ramp, m)[starts]


def first_mismatch(payload: np.ndarray, expected: np.ndarray) -> int | None:
    """Index of the first row where ``payload`` differs from ``expected``
    (``None`` when they are equal): one whole-matrix comparison."""
    if np.array_equal(payload, expected):
        return None
    return int(np.argmax((payload != expected).any(axis=1)))


@dataclass
class BlockSet:
    """A batch of blocks in flight: parallel tag arrays plus payload rows.

    ``origins``/``dests`` are int64 arrays of length ``B``; ``payload``
    is a ``(B, m)`` uint8 array whose row ``i`` is the data of block
    ``(origins[i], dests[i])``.
    """

    origins: np.ndarray
    dests: np.ndarray
    payload: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.origins) == len(self.dests) == len(self.payload)):
            raise ValueError(
                f"inconsistent block set: {len(self.origins)} origins, "
                f"{len(self.dests)} dests, {len(self.payload)} payload rows"
            )

    @property
    def n_blocks(self) -> int:
        return len(self.origins)

    def __len__(self) -> int:
        return len(self.origins)

    @property
    def nbytes(self) -> int:
        """Total payload bytes (what a transmission of this set carries)."""
        return int(self.payload.size)

    def sorted_by_dest(self) -> "BlockSet":
        """Stable sort by (dest, origin); normalizes wire order."""
        order = np.lexsort((self.origins, self.dests))
        return BlockSet(self.origins[order], self.dests[order], self.payload[order])


@cache
def _coordinate_slots(d: int, reach: int) -> tuple[int, int, tuple[np.ndarray, ...]]:
    """``(lo, 2**w - 1, rows)`` for the group of cube bits outside
    ``reach``, ``lo .. lo + w - 1``: ``rows[c]`` holds, ascending, the
    slots whose group coordinate is ``c`` (the rows of one read-only
    ``(2**w, n >> w)`` matrix, kept as arrays so a lookup builds no
    view).  The memo is unbounded over a finite key space: the rounds
    the builders make give one ``reach`` per contiguous bit group, so
    at most ``d(d+1)/2`` entries per ``d``, each ``2**d`` slot indices."""
    n = 1 << d
    mask = ~reach & (n - 1)
    lo, width = (mask & -mask).bit_length() - 1, popcount(mask)
    if not mask or mask != ((1 << width) - 1) << lo:
        raise ValueError(f"round group {mask:#b} is not a contiguous bit group")
    grid = np.arange(n).reshape(n >> width >> lo, 1 << width, 1 << lo)
    rows = grid.transpose(1, 0, 2).reshape(1 << width, n >> width)
    rows.setflags(write=False)
    return lo, (1 << width) - 1, tuple(rows)


class BlockBuffer:
    """Per-node block store for a complete exchange.

    Parameters
    ----------
    node:
        Label of the owning node.
    d:
        Cube dimension.
    m:
        Block size in bytes (>= 0; zero-byte blocks still carry tags,
        matching the paper's m=0 measurements).

    Examples
    --------
    >>> buf = BlockBuffer.initial(node=2, d=2, m=4)
    >>> buf.n_blocks
    4
    >>> sorted(buf.dests.tolist())
    [0, 1, 2, 3]
    """

    def __init__(self, node: int, d: int, m: int, blocks: BlockSet) -> None:
        check_dimension(d)
        check_node(node, d)
        self.node = node
        self.d = d
        self.m = int(m)
        self._blocks = blocks
        #: slots of the sends no receive has refilled yet, oldest first
        self._vacated: deque[np.ndarray] = deque()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, node: int, d: int, m: int) -> "BlockBuffer":
        """The pre-exchange state: one block for every destination."""
        n = 1 << d
        origins = np.full(n, node, dtype=np.int64)
        dests = np.arange(n, dtype=np.int64)
        return cls(node, d, m, BlockSet(origins, dests, payload_rows(origins, dests, m, d)))

    @classmethod
    def from_rows(cls, node: int, d: int, rows: np.ndarray) -> "BlockBuffer":
        """Build the initial state from user data.

        ``rows`` is an ``(n, m)`` uint8 array; row ``j`` is the block this
        node sends to node ``j``.  Used by the application kernels
        (transpose, FFT, table lookup) to exchange real data.
        """
        n = 1 << d
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[0] != n:
            raise ValueError(f"expected ({n}, m) rows, got shape {rows.shape}")
        origins = np.full(n, node, dtype=np.int64)
        dests = np.arange(n, dtype=np.int64)
        return cls(node, d, rows.shape[1], BlockSet(origins, dests, rows.copy()))

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return self._blocks.n_blocks

    @property
    def origins(self) -> np.ndarray:
        return self._blocks.origins

    @property
    def dests(self) -> np.ndarray:
        return self._blocks.dests

    @property
    def payload(self) -> np.ndarray:
        return self._blocks.payload

    @property
    def total_bytes(self) -> int:
        return self._blocks.nbytes

    def keys(self) -> list[int]:
        """The held blocks as ``alltoall`` keys ``origin·n + dest``."""
        blocks = self._blocks
        return (blocks.origins * (1 << self.d) + blocks.dests).tolist()

    # ------------------------------------------------------------------
    # exchange operations
    # ------------------------------------------------------------------
    def take(self, slots: np.ndarray) -> BlockSet:
        """Copy the blocks in ``slots`` out as a :class:`BlockSet`.

        The buffer is unchanged: the slots keep their blocks until
        :meth:`put` overwrites them with the partner's.
        """
        blocks = self._blocks
        return BlockSet(
            blocks.origins[slots], blocks.dests[slots], blocks.payload.take(slots, axis=0)
        )

    def put(self, slots: np.ndarray, incoming: BlockSet) -> None:
        """Overwrite the blocks in ``slots`` with received ``incoming``,
        row for row; the buffer keeps its ``n`` slots."""
        if len(incoming.origins) != len(slots):
            raise ValueError(f"received {incoming.n_blocks} blocks for {len(slots)} slots")
        if incoming.payload.shape[1:] != (self.m,):
            raise ValueError(
                f"received payload rows of width {incoming.payload.shape[1:]}, "
                f"expected ({self.m},)"
            )
        blocks = self._blocks
        blocks.origins[slots] = incoming.origins
        blocks.dests[slots] = incoming.dests
        blocks.payload[slots] = incoming.payload

    def send(self, rnd: "Round", dst: int) -> BlockSet:
        """Holdings call (:func:`repro.core.programs.replay_pattern`,
        :func:`repro.patterns.execute.pattern_node`): take the blocks
        for ``dst``'s downstream, vacating their slots.

        The round's group is the cube bits outside ``rnd.reach``; the
        slots are those whose group coordinate is ``dst``'s, which in a
        multiphase exchange or a naive rotation hold exactly the blocks
        :meth:`repro.core.programs.Round.take` would pick by their tags
        (module docstring): the paper's *effective block* for the
        partner, ``m * 2**(d - d_i)`` bytes.
        """
        lo, coordinate, rows = _coordinate_slots(self.d, rnd.reach)
        slots = rows[(dst >> lo) & coordinate]
        self._vacated.append(slots)
        return self.take(slots)

    def receive(self, blocks: BlockSet) -> tuple[()]:
        """Holdings call: refill the slots of the oldest unanswered
        :meth:`send`."""
        self.put(self._vacated.popleft(), blocks)
        return ()

    def shuffle(self, times: int) -> None:
        """Tags are position-free: a shuffle moves nothing."""

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def is_complete_exchange_result(self) -> bool:
        """True iff this buffer is a correct post-exchange state."""
        try:
            self.verify_complete_exchange_result()
        except AssertionError:
            return False
        return True

    def verify_complete_exchange_result(self, *, check_payload: bool = True) -> None:
        """Assert the post-exchange invariants, with precise messages.

        * exactly ``n`` blocks are held;
        * every destination equals this node;
        * origins are exactly ``0 .. n-1`` (one block from each node);
        * every payload matches :func:`payload_pattern` for its tags
          (skipped for user data via ``check_payload=False``).
        """
        n = 1 << self.d
        blocks = self._blocks
        if blocks.n_blocks != n:
            raise AssertionError(
                f"node {self.node}: holds {blocks.n_blocks} blocks, expected {n}"
            )
        wrong_dest = blocks.dests != self.node
        if wrong_dest.any():
            raise AssertionError(
                f"node {self.node}: {int(wrong_dest.sum())} blocks with foreign destinations "
                f"{np.unique(blocks.dests[wrong_dest]).tolist()}"
            )
        origins = np.sort(blocks.origins)
        if not np.array_equal(origins, np.arange(n)):
            raise AssertionError(
                f"node {self.node}: origins {origins.tolist()} are not a permutation of 0..{n - 1}"
            )
        if check_payload and self.m > 0:
            expected = payload_rows(blocks.origins, blocks.dests, self.m, self.d)
            bad = first_mismatch(blocks.payload, expected)
            if bad is not None:
                raise AssertionError(
                    f"node {self.node}: payload of block from {int(blocks.origins[bad])} corrupted"
                )

    @staticmethod
    def verify_all(buffers: "Sequence[BlockBuffer]", *, check_payload: bool = True) -> None:
        """:meth:`verify_complete_exchange_result` for every buffer of a
        run, checking many nodes per numpy pass.

        The buffers are stacked in chunks of about
        ``_VERIFY_CHUNK_BYTES`` of payload and tags, each checked with a
        few whole-array comparisons.  A chunk that fails is re-checked
        one buffer at a time, in order, so the first failing buffer
        raises exactly its own message.  Buffers of unequal shape are
        checked one at a time.
        """
        if not buffers:
            return
        d, m = buffers[0].d, buffers[0].m
        n = 1 << d
        if any(buf.d != d or buf.m != m or buf.n_blocks != n for buf in buffers):
            for buf in buffers:
                buf.verify_complete_exchange_result(check_payload=check_payload)
            return
        chunk = max(1, _VERIFY_CHUNK_BYTES // (n * (m + 16)))
        sorted_origins = np.arange(n)
        for start in range(0, len(buffers), chunk):
            part = buffers[start:start + chunk]
            nodes = np.array([buf.node for buf in part])
            origins = np.stack([buf.origins for buf in part])
            dests = np.stack([buf.dests for buf in part])
            ok = bool((dests == nodes[:, None]).all()) and bool(
                (np.sort(origins, axis=1) == sorted_origins).all()
            )
            if ok and check_payload and m > 0:
                expected = payload_rows(origins.ravel(), dests.ravel(), m, d)
                ok = np.array_equal(np.concatenate([buf.payload for buf in part]), expected)
            if not ok:
                for buf in part:
                    buf.verify_complete_exchange_result(check_payload=check_payload)
                raise AssertionError(  # pragma: no cover - the passes above agree
                    f"nodes {nodes.tolist()} failed the stacked check but none alone"
                )

    def result_rows(self) -> np.ndarray:
        """Post-exchange payload as an ``(n, m)`` array ordered by origin.

        Row ``j`` is the block node ``j`` sent to this node.  Raises if
        the buffer is not a complete post-exchange state.
        """
        self.verify_complete_exchange_result(check_payload=False)
        order = np.argsort(self._blocks.origins)
        return self._blocks.payload[order]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"BlockBuffer(node={self.node}, d={self.d}, m={self.m}, "
            f"n_blocks={self.n_blocks})"
        )
