"""Paths, box products, and adjacency matrices, dense or as a band.

Vertices are the 1-based integers 1..n throughout; the 0-based shift happens
only when an adjacency matrix or band is emitted.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .exact_linalg import IntMatrix


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: a vertex count and a set of unordered edges.

    Edges are stored as (u, v) pairs with u < v; loops and out-of-range
    endpoints are rejected at construction.
    """

    n_vertices: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n_vertices}")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise ValueError(
                    f"edge ({u}, {v}) is outside 1..{self.n_vertices}"
                )
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))


def path(n: int) -> Graph:
    """The path on vertices 1..n with edges between consecutive integers."""
    if n < 1:
        raise ValueError(f"a path needs at least one vertex, got {n}")
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))


def box_product(g: Graph, h: Graph) -> Graph:
    """Box (Cartesian) product, with (i, j) relabeled as (i-1)*m + j.

    m is the vertex count of h.  Two product vertices are adjacent when they
    agree in one coordinate and are adjacent in the other, giving
    n*|E(h)| + m*|E(g)| edges.
    """
    n, m = g.n_vertices, h.n_vertices
    edges = set()
    for i in range(1, n + 1):
        base = (i - 1) * m
        for j, jp in h.edges:
            edges.add((base + j, base + jp))
    for i, ip in g.edges:
        for j in range(1, m + 1):
            edges.add(((i - 1) * m + j, (ip - 1) * m + j))
    return Graph(n * m, frozenset(edges))


def adjacency_matrix(g: Graph) -> IntMatrix:
    """Symmetric 0/1 matrix with zero diagonal, indexed by vertex order."""
    n = g.n_vertices
    rows = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        rows[u - 1][v - 1] = 1
        rows[v - 1][u - 1] = 1
    return IntMatrix.from_rows(rows)


def adjacency_band(g: Graph) -> tuple[int, list[list[int]]]:
    """The adjacency matrix as ``(low, rows)`` for
    :func:`~boxdet.exact_linalg.bareiss_band_det`, built from the edges with
    no dense row: ``low`` is the largest label difference of an edge (at
    least 1), and row i runs from column max(0, i - low) to the vertex's
    last neighbour, empty if it has none."""
    low = max((v - u for u, v in g.edges), default=1)
    starts = [max(0, i - low) for i in range(g.n_vertices)]
    ends = starts[:]  # one past each row's last neighbour
    for u, v in g.edges:
        if v > ends[u - 1]:
            ends[u - 1] = v
        if u > ends[v - 1]:
            ends[v - 1] = u
    rows = [[0] * (end - start) for start, end in zip(starts, ends)]
    for u, v in g.edges:
        rows[u - 1][v - 1 - starts[u - 1]] = 1
        rows[v - 1][u - 1 - starts[v - 1]] = 1
    return low, rows
