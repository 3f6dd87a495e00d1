"""Unit and property tests for the hypercube topology."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hypercube.topology import Hypercube, Link
from repro.util.bitops import popcount

dims = st.integers(min_value=1, max_value=7)


class TestLink:
    def test_valid_link(self):
        link = Link(3, 7)
        assert link.dimension == 2
        assert link.reverse == Link(7, 3)
        assert link.undirected == (3, 7)

    def test_rejects_non_neighbours(self):
        with pytest.raises(ValueError):
            Link(0, 3)
        with pytest.raises(ValueError):
            Link(5, 5)

    def test_direction_matters(self):
        assert Link(0, 1) != Link(1, 0)
        assert Link(0, 1).undirected == Link(1, 0).undirected


class TestStructure:
    def test_counts(self):
        cube = Hypercube(5)
        assert cube.n_nodes == 32
        assert cube.n_links == 5 * 32
        assert len(list(cube.links())) == cube.n_links

    def test_zero_cube(self):
        cube = Hypercube(0)
        assert cube.n_nodes == 1
        assert list(cube.links()) == []
        assert cube.average_distance() == 0.0

    def test_neighbors(self):
        cube = Hypercube(3)
        assert sorted(cube.neighbors(0)) == [1, 2, 4]
        assert sorted(cube.neighbors(5)) == [1, 4, 7]

    def test_neighbor_by_dimension(self):
        cube = Hypercube(4)
        assert cube.neighbor(0b1010, 0) == 0b1011
        assert cube.neighbor(0b1010, 3) == 0b0010
        with pytest.raises(ValueError):
            cube.neighbor(0, 4)

    def test_numpy_labels_accepted_as_plain_ints(self):
        cube = Hypercube(3)
        for label in (np.int64(2), np.int32(2), np.uint8(2)):
            neighbor = cube.neighbor(label, 0)
            assert neighbor == 3 and type(neighbor) is int
            assert sorted(cube.neighbors(label)) == [0, 3, 6]
            assert cube.are_adjacent(label, np.int64(6))
            assert cube.distance(label, np.uint8(5)) == 3
            assert type(cube.validate_node(label)) is int
        with pytest.raises(TypeError):
            cube.neighbor(True, 0)
        with pytest.raises(ValueError):
            cube.neighbor(np.int64(8), 0)

    def test_adjacency(self):
        cube = Hypercube(5)
        assert cube.are_adjacent(0, 16)
        assert not cube.are_adjacent(0, 3)

    def test_validate_node(self):
        cube = Hypercube(3)
        with pytest.raises(ValueError):
            cube.validate_node(8)

    def test_equality_and_hash(self):
        assert Hypercube(3) == Hypercube(3)
        assert Hypercube(3) != Hypercube(4)
        assert len({Hypercube(3), Hypercube(3), Hypercube(4)}) == 2


class TestMetrics:
    def test_distance(self):
        cube = Hypercube(5)
        assert cube.distance(0, 31) == 5
        assert cube.distance(2, 23) == 3
        assert cube.distance(14, 11) == 2

    @given(dims, st.data())
    def test_distance_is_hamming(self, d, data):
        cube = Hypercube(d)
        a = data.draw(st.integers(min_value=0, max_value=cube.n_nodes - 1))
        b = data.draw(st.integers(min_value=0, max_value=cube.n_nodes - 1))
        assert cube.distance(a, b) == popcount(a ^ b)

    @given(dims)
    def test_average_distance_formula(self, d):
        """Paper eq. (2): average distance = d*2**(d-1) / (2**d - 1)."""
        cube = Hypercube(d)
        n = cube.n_nodes
        brute = sum(cube.distance(0, j) for j in range(1, n)) / (n - 1)
        assert cube.average_distance() == pytest.approx(brute)

    @given(dims)
    def test_total_pairwise_distance(self, d):
        cube = Hypercube(d)
        brute = sum(popcount(i) for i in range(1, cube.n_nodes))
        assert cube.total_pairwise_distance() == brute


class TestNetworkxExport:
    def test_structure_matches(self):
        nx = pytest.importorskip("networkx")
        cube = Hypercube(4)
        graph = cube.to_networkx()
        assert graph.number_of_nodes() == 16
        assert graph.number_of_edges() == 4 * 16 // 2
        # regularity and diameter of the 4-cube
        assert all(deg == 4 for _, deg in graph.degree())
        assert nx.diameter(graph) == 4
        reference = nx.hypercube_graph(4)
        assert nx.is_isomorphic(graph, reference)
