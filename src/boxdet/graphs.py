"""Paths, box products, and adjacency matrices, dense or as a band.

Vertices are the 1-based integers 1..n throughout; the 0-based shift happens
only when an adjacency matrix or band is emitted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NoReturn

from .exact_linalg import BandRow, IntMatrix


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: a vertex count and a set of unordered edges.

    Edges are stored as (u, v) pairs with u < v; loops and out-of-range
    endpoints are rejected at construction.
    """

    n_vertices: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        n = self.n_vertices
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        # Validate and normalise in one pass; unpacking rejects any edge
        # that is not a pair.
        edges = frozenset(
            (u, v) if 0 < u < v <= n else (v, u) if 0 < v < u <= n else _reject(u, v, n)
            for u, v in self.edges
        )
        object.__setattr__(self, "edges", edges)


def _reject(u: int, v: int, n: int) -> NoReturn:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    raise ValueError(f"edge ({u}, {v}) is outside 1..{n}")


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
    return Graph(n * m, edges)


def adjacency_matrix(g: Graph) -> IntMatrix:
    """Symmetric 0/1 matrix with zero diagonal, indexed by vertex order."""
    n = g.n_vertices
    rows = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        rows[u - 1][v - 1] = 1
        rows[v - 1][u - 1] = 1
    return IntMatrix(rows)


def adjacency_band(g: Graph) -> list[BandRow]:
    """The adjacency matrix's rows for
    :func:`~boxdet.exact_linalg.bareiss_band_det`, built from the edges with
    no dense row: row i is ``(start, entries)``, stored from column
    min(i, first neighbour) through max(i - 1, last neighbour), so a vertex
    with no neighbour is ``(i, [])``."""
    starts = list(range(g.n_vertices))
    ends = starts[:]  # one past each row's last stored column
    for u, v in g.edges:  # u < v
        if u - 1 < starts[v - 1]:
            starts[v - 1] = u - 1
        if v > ends[u - 1]:
            ends[u - 1] = v
    rows = [[0] * (end - start) for start, end in zip(starts, ends)]
    for u, v in g.edges:
        rows[u - 1][v - 1 - starts[u - 1]] = 1
        rows[v - 1][u - 1 - starts[v - 1]] = 1
    return list(zip(starts, rows))
