"""Binary hypercube topology.

A *d*-dimensional hypercube connects ``n = 2**d`` processors; two
processors are adjacent iff their binary labels differ in exactly one
bit (paper §2, Figure 1).  This module provides the static structure:
labels, neighbours, links, distances, and iteration helpers used by the
routing, scheduling, and simulation layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.util.bitops import flip_bit, popcount
from repro.util.validation import check_dimension, check_node

__all__ = ["Hypercube", "Link"]


@dataclass(frozen=True, order=True)
class Link:
    """A directed communication link ``u -> v`` between neighbours.

    Circuit-switched links are full-duplex on the iPSC-860: traffic
    ``u -> v`` does not contend with ``v -> u``.  Contention analysis
    therefore works on *directed* links, and the simulator allocates
    each direction independently.
    """

    src: int
    dst: int

    def __post_init__(self) -> None:
        if popcount(self.src ^ self.dst) != 1:
            raise ValueError(f"link endpoints {self.src} and {self.dst} are not cube neighbours")

    @property
    def dimension(self) -> int:
        """The cube dimension this link crosses."""
        return (self.src ^ self.dst).bit_length() - 1

    @property
    def reverse(self) -> "Link":
        """The same physical channel in the opposite direction."""
        return Link(self.dst, self.src)

    @property
    def undirected(self) -> tuple[int, int]:
        """Canonical (min, max) endpoint pair naming the physical wire."""
        return (min(self.src, self.dst), max(self.src, self.dst))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.src}->{self.dst}"


class Hypercube:
    """Static structure of a ``d``-dimensional binary hypercube.

    Parameters
    ----------
    dimension:
        The cube dimension ``d``; the machine has ``2**d`` nodes
        labelled ``0 .. 2**d - 1``.

    Examples
    --------
    >>> cube = Hypercube(3)
    >>> cube.n_nodes
    8
    >>> sorted(cube.neighbors(0))
    [1, 2, 4]
    >>> cube.distance(0b000, 0b101)
    2
    """

    def __init__(self, dimension: int) -> None:
        self._d = check_dimension(dimension)

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """The cube dimension ``d``."""
        return self._d

    @property
    def n_nodes(self) -> int:
        """Number of processors, ``n = 2**d``."""
        return 1 << self._d

    @property
    def n_links(self) -> int:
        """Number of directed links, ``d * 2**d`` (each node has ``d``
        outgoing links)."""
        return self._d << self._d

    def nodes(self) -> range:
        """All node labels in increasing order."""
        return range(self.n_nodes)

    def contains(self, node: int) -> bool:
        """True iff ``node`` is a valid label for this cube."""
        return isinstance(node, int) and 0 <= node < self.n_nodes

    def validate_node(self, node: int) -> int:
        """Check a node label, raising with context on failure; returns
        it as a plain ``int``."""
        if type(node) is int and 0 <= node < 1 << self._d:
            return node  # the common case, without check_node's call
        return check_node(node, self._d)

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def neighbor(self, node: int, dim: int) -> int:
        """The neighbour of ``node`` across dimension ``dim``."""
        node = self.validate_node(node)
        if not 0 <= dim < self._d:
            raise ValueError(f"dimension {dim} out of range for a {self._d}-cube")
        return flip_bit(node, dim)

    def neighbors(self, node: int) -> Iterator[int]:
        """All ``d`` neighbours of ``node``."""
        node = self.validate_node(node)
        return (flip_bit(node, j) for j in range(self._d))

    def are_adjacent(self, a: int, b: int) -> bool:
        """True iff ``a`` and ``b`` are connected by a link."""
        a = self.validate_node(a)
        b = self.validate_node(b)
        return popcount(a ^ b) == 1

    def links(self) -> Iterator[Link]:
        """All directed links of the cube, in :meth:`link_index` order."""
        for node in self.nodes():
            for dim in range(self._d):
                yield Link(node, flip_bit(node, dim))

    def link_index(self, link: Link) -> int:
        """Dense id ``src·d + dimension`` of a directed link of this
        cube: its position in :meth:`links`, in ``range(n_links)``.

        ``Link`` only checks adjacency, so a link of some larger cube
        (``Link(8, 9)`` in a 3-cube) is rejected here rather than given
        an id that aliases another resource."""
        if not (self.contains(link.src) and self.contains(link.dst)):
            raise ValueError(
                f"link {link} does not exist in a {self._d}-cube "
                f"(nodes 0..{self.n_nodes - 1})"
            )
        return link.src * self._d + link.dimension

    def link_at(self, index: int) -> Link:
        """The directed link whose :meth:`link_index` is ``index``."""
        if not 0 <= index < self.n_links:
            raise ValueError(
                f"link index {index} out of range for a {self._d}-cube "
                f"(0..{self.n_links - 1})"
            )
        src, dim = divmod(index, self._d)
        return Link(src, flip_bit(src, dim))

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def distance(self, a: int, b: int) -> int:
        """Hop distance between ``a`` and ``b`` (Hamming distance)."""
        a = self.validate_node(a)
        b = self.validate_node(b)
        return popcount(a ^ b)

    def average_distance(self) -> float:
        """Mean distance from a node to the other ``n - 1`` nodes.

        This is the paper's ``d * 2**(d-1) / (2**d - 1)`` term in
        eq. (2): over the optimal schedule's ``2**d - 1`` steps, every
        pair is at identical distance ``popcount(step)``, and the total
        distance summed over all steps is ``d * 2**(d-1)``.
        """
        if self._d == 0:
            return 0.0
        n = self.n_nodes
        return self._d * (n // 2) / (n - 1)

    def total_pairwise_distance(self) -> int:
        """Sum of ``distance(node, node ^ i)`` over ``i = 1 .. n-1``.

        Equals ``d * 2**(d-1)``: each of the ``d`` bits is set in
        exactly half of the ``2**d`` XOR offsets.
        """
        return self._d * (self.n_nodes // 2)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_networkx(self):  # pragma: no cover - convenience, exercised in tests only if networkx present
        """Export the topology as an undirected :mod:`networkx` graph."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        seen = set()
        for link in self.links():
            if link.undirected not in seen:
                seen.add(link.undirected)
                graph.add_edge(*link.undirected, dimension=link.dimension)
        return graph

    def __repr__(self) -> str:
        return f"Hypercube(dimension={self._d})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hypercube) and other._d == self._d

    def __hash__(self) -> int:
        return hash(("Hypercube", self._d))
