"""Argument validation shared across the public API.

The library's public entry points validate their arguments eagerly and
raise uniform, descriptive exceptions; these helpers keep the messages
consistent and the call sites one line long.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence

__all__ = [
    "check_block_size",
    "check_dimension",
    "check_message_size",
    "check_node",
    "check_partition",
]

#: Largest cube dimension the library accepts.  The cap exists to catch
#: accidentally-swapped arguments (``d`` vs ``n``) early; 24 admits the
#: paper's §6 million-node (d = 20) analytic projection while still
#: rejecting any realistic node count passed as a dimension.  The
#: data-movement engines are practical only to d ≈ 10 regardless.
MAX_DIMENSION = 24


def check_dimension(d: int, *, minimum: int = 0) -> int:
    """Validate a hypercube dimension and return it.

    Parameters
    ----------
    d:
        Dimension of the cube (the paper's ``d``; ``n = 2**d`` nodes).
    minimum:
        Smallest acceptable value (some callers allow the degenerate
        0-cube, others need at least one dimension).
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise TypeError(f"cube dimension must be an int, got {type(d).__name__}")
    if d < minimum:
        raise ValueError(f"cube dimension must be >= {minimum}, got {d}")
    if d > MAX_DIMENSION:
        raise ValueError(
            f"cube dimension {d} exceeds the supported maximum {MAX_DIMENSION} "
            f"({2 ** MAX_DIMENSION} nodes); did you pass the node count instead?"
        )
    return d


def check_node(node: int, d: int) -> int:
    """Validate a node label for a cube of dimension ``d`` and return
    it as a plain ``int`` (numpy integers included, bools not)."""
    # plain int first: the numbers.Integral ABC check alone is slow
    if isinstance(node, bool) or not isinstance(node, (int, numbers.Integral)):
        raise TypeError(f"node label must be an int, got {type(node).__name__}")
    node = int(node)
    if not 0 <= node < (1 << d):
        raise ValueError(f"node label {node} out of range for a {d}-cube (0..{(1 << d) - 1})")
    return node


def check_block_size(m: float, *, allow_zero: bool = True) -> float:
    """Validate a block size in bytes and return it as a float.

    The cost model is continuous in ``m`` (the paper sweeps 0–400
    bytes), so any finite real is accepted for analysis — numpy
    scalars included, bools not; the data-movement engine separately
    requires integral sizes (:func:`check_message_size`).
    """
    # plain int/float first: the numbers.Real ABC check alone is slow
    if isinstance(m, bool) or not isinstance(m, (int, float, numbers.Real)):
        raise TypeError(f"block size must be a number, got {type(m).__name__}")
    bound = ">= 0" if allow_zero else "> 0"
    if not math.isfinite(m):
        raise ValueError(f"block size must be finite and {bound}, got {m}")
    if m < 0 or (m == 0 and not allow_zero):
        raise ValueError(f"block size must be {bound}, got {m}")
    return float(m)


def check_message_size(m: int) -> int:
    """Validate a block size the data-movement engine can run: a
    non-negative int (numpy integers included, bools not).  Raises
    :class:`ValueError` naming ``m``."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 0:
        raise ValueError(f"m must be a non-negative int, got m={m!r}")
    return m


def check_partition(partition: Sequence[int], d: int) -> tuple[int, ...]:
    """Validate a multiphase partition ``D = (d1, ..., dk)`` of ``d``.

    The parts must be positive integers summing to ``d``.  Order is
    preserved (the paper notes the sequence of dimensions is
    unimportant for cost, but the data-movement engine honours the
    given order, so we keep it).
    """
    check_dimension(d, minimum=1)
    parts = tuple(partition)
    if not parts:
        raise ValueError("partition must contain at least one part")
    for part in parts:
        if not isinstance(part, int) or isinstance(part, bool):
            raise TypeError(f"partition parts must be ints, got {type(part).__name__}")
        if part <= 0:
            raise ValueError(f"partition parts must be positive, got {part}")
    if sum(parts) != d:
        raise ValueError(f"partition {parts} sums to {sum(parts)}, expected cube dimension {d}")
    return parts
