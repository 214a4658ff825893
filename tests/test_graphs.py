"""Graph layer: paths, box products and their neighbour lists, adjacency
matrices and biadjacency bands."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    IntMatrix,
    adjacency_matrix,
    box_product_by_definition,
    dense_bareiss_det,
    dense_biadjacency_band,
    neighbour_lists,
)
from boxdet.graphs import Graph, biadjacency_band, box_neighbours, box_product, path


class TestGraph:
    def test_edge_normalization(self):
        g = Graph(3, frozenset({(2, 1), (3, 2)}))
        assert g.edges == frozenset({(1, 2), (2, 3)})
        assert (1, 3) not in g.edges
        assert len(g.edges) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^vertex count must be >= 1, got 0$"):
            Graph(0, frozenset())
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
            Graph(2, frozenset({(1, 1)}))
        with pytest.raises(ValueError, match=r"^self-loop at vertex 3$"):
            Graph(2, frozenset({(3, 3)}))
        with pytest.raises(ValueError, match=r"^edge \(1, 3\) is outside 1\.\.2$"):
            Graph(2, frozenset({(1, 3)}))
        with pytest.raises(ValueError, match=r"^edge \(3, 1\) is outside 1\.\.2$"):
            Graph(2, frozenset({(3, 1)}))
        with pytest.raises(ValueError, match=r"^edge \(0, 1\) is outside 1\.\.2$"):
            Graph(2, frozenset({(0, 1)}))

    def test_a_generator_is_read_as_its_set(self):
        """A one-pass generator of pairs gives the edges and the errors of
        the frozenset of the same pairs."""
        pairs = [(2, 1), (3, 2), (2, 3)]
        g = Graph(3, (pair for pair in pairs))
        assert g == Graph(3, frozenset(pairs))
        assert g.edges == frozenset({(1, 2), (2, 3)})
        for bad in ([(1, 2), (2, 2)], [(3, 1)], [(0, 1)], [(1, 2, 3)]):
            with pytest.raises(ValueError) as from_set:
                Graph(2, frozenset(bad))
            with pytest.raises(ValueError) as from_generator:
                Graph(2, (pair for pair in bad))
            assert str(from_generator.value) == str(from_set.value), bad


class TestPath:
    def test_examples(self):
        p1 = path(1)
        assert p1.n_vertices == 1 and len(p1.edges) == 0
        p2 = path(2)
        assert (1, 2) in p2.edges
        p4 = path(4)
        assert p4.edges == frozenset({(1, 2), (2, 3), (3, 4)})
        for n in range(1, 12):
            assert len(path(n).edges) == n - 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            path(0)


class TestBoxProduct:
    def test_two_by_two_is_the_four_cycle(self):
        g = box_product(path(2), path(2))
        assert g.n_vertices == 4
        assert g.edges == frozenset({(1, 2), (3, 4), (1, 3), (2, 4)})

    def test_two_by_three(self):
        g = box_product(path(2), path(3))
        assert g.n_vertices == 6
        assert g.edges == frozenset(
            {(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)}
        )

    def test_edge_count_law(self):
        for n in range(1, 7):
            for m in range(1, 7):
                g = box_product(path(n), path(m))
                assert g.n_vertices == n * m
                assert len(g.edges) == n * (m - 1) + m * (n - 1)

    def test_three_by_four_size(self):
        g = box_product(path(3), path(4))
        assert g.n_vertices == 12
        assert len(g.edges) == 17

    def test_single_vertex_is_an_identity(self):
        assert box_product(path(1), path(2)) == path(2)
        assert box_product(path(4), path(1)) == path(4)


@st.composite
def small_graphs(draw) -> Graph:
    """A graph on 1 to 5 vertices with a random set of edges, so loose
    vertices, several components and odd cycles all appear."""
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, edges)


class TestBoxNeighbours:
    @settings(max_examples=300)
    @given(small_graphs(), small_graphs())
    def test_product_of_any_two_graphs_is_the_definition(self, g, h):
        """The lists hold each product edge of the definition once at each
        end, symmetric and with no duplicates, and box_product has the same
        edges."""
        expected = box_product_by_definition(g, h)
        neighbours = box_neighbours(g, h)
        assert len(neighbours) == expected.n_vertices + 1
        assert neighbours[0] == []
        for u, row in enumerate(neighbours):
            assert len(row) == len(set(row)), (u, row)
            for v in row:
                assert u in neighbours[v], (u, v)
        edges = {(u, v) for u, row in enumerate(neighbours) for v in row if u < v}
        assert edges == expected.edges
        assert box_product(g, h) == expected

    def test_grids_are_the_definition(self):
        for n in range(1, 8):
            for m in range(1, 8):
                g = box_product(path(n), path(m))
                assert g == box_product_by_definition(path(n), path(m)), (n, m)
                neighbours = box_neighbours(path(n), path(m))
                assert [sorted(row) for row in neighbours] == neighbour_lists(g), (n, m)


class TestAdjacencyMatrix:
    def test_frozen_small_paths(self):
        assert adjacency_matrix(path(1)) == IntMatrix([[0]])
        assert adjacency_matrix(path(2)) == IntMatrix([[0, 1], [1, 0]])

    def test_frozen_four_cycle(self):
        a = adjacency_matrix(box_product(path(2), path(2)))
        assert a == IntMatrix(
            [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
        )

    def test_symmetric_zero_diagonal_binary(self):
        a = adjacency_matrix(box_product(path(3), path(5)))
        n = a.size
        for i in range(n):
            assert a.rows[i][i] == 0
            for j in range(n):
                assert a.rows[i][j] == a.rows[j][i]
                assert a.rows[i][j] in (0, 1)

    def test_row_sums_are_degrees(self):
        for n in range(1, 6):
            for m in range(1, 6):
                g = box_product(path(n), path(m))
                a = adjacency_matrix(g)
                assert sum(sum(row) for row in a.rows) == 2 * len(g.edges)

    def test_block_structure(self):
        """The product's adjacency matrix, read as n x n blocks of size m,
        has the m-path adjacency on the diagonal, the identity on the first
        off-diagonals, and zero blocks everywhere else."""
        for n in range(1, 9):
            for m in range(1, 9):
                a = adjacency_matrix(box_product(path(n), path(m)))
                inner = adjacency_matrix(path(m)).rows
                for bi in range(n):
                    for bj in range(n):
                        block = [
                            a.rows[bi * m + r][bj * m : (bj + 1) * m]
                            for r in range(m)
                        ]
                        if bi == bj:
                            expected = [list(row) for row in inner]
                        elif abs(bi - bj) == 1:
                            expected = [
                                [1 if r == c else 0 for c in range(m)]
                                for r in range(m)
                            ]
                        else:
                            expected = [[0] * m for _ in range(m)]
                        assert [list(row) for row in block] == expected


@st.composite
def bipartite_graphs(draw) -> Graph:
    """Classes of a and b vertices, as often balanced as not, under a
    random labelling, joined by a random set of cross edges; sparse draws
    leave isolated vertices and several components."""
    a = draw(st.integers(0, 6))
    b = draw(st.one_of(st.just(a), st.integers(0, 6)).filter(lambda b: a + b))
    labels = draw(st.permutations(range(1, a + b + 1)))
    pairs = [(u, v) for u in labels[:a] for v in labels[a:]]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(a + b, frozenset(edges))


class TestBiadjacencyBand:
    def test_is_the_band_of_the_biadjacency_matrix(self):
        graphs = [box_product(path(n), path(m)) for n in range(1, 9) for m in range(1, 9)]
        graphs += [path(n) for n in range(1, 20)]
        graphs.append(Graph(6, frozenset({(1, 5), (2, 3), (3, 6)})))
        for g in graphs:
            band = biadjacency_band(neighbour_lists(g))
            assert band == dense_biadjacency_band(adjacency_matrix(g)), g

    def test_single_vertex_is_one_empty_row(self):
        assert biadjacency_band(neighbour_lists(path(1))) == (1, 0, [{}])

    def test_odd_cycle_is_rejected(self):
        triangle = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
        five_cycle = Graph(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}))
        for g in (triangle, five_cycle):
            with pytest.raises(ValueError, match="odd cycle"):
                biadjacency_band(neighbour_lists(g))

    @given(bipartite_graphs())
    def test_determinant_from_the_band(self, g):
        """In colour-class order the adjacency matrix is [[0, C], [C^T, 0]]:
        its determinant is 0 when the classes differ in size and
        (-1)**k det(C)**2 when both have k vertices.  A random C may meet
        pivots other than +1 and -1, so det(C) comes from dense elimination."""
        a = adjacency_matrix(g)
        k, other, rows = biadjacency_band(neighbour_lists(g))
        assert (k, other, rows) == dense_biadjacency_band(a)
        if k != other:
            assert dense_bareiss_det(a) == 0
        else:
            c = IntMatrix([[row.get(j, 0) for j in range(k)] for row in rows])
            d = dense_bareiss_det(c)
            assert (-1) ** k * d * d == dense_bareiss_det(a)
