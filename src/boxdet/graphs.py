"""Paths, box products, and the band rows of a bipartite graph's
biadjacency matrix.

Vertices are the 1-based integers 1..n throughout; the 0-based shift happens
only when a band is emitted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NoReturn

from .exact_linalg import BandRow


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: a vertex count and a set of unordered edges.

    Any iterable of pairs is stored as a frozenset of (u, v) pairs with
    u < v; loops and out-of-range endpoints are rejected at construction.
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
    return Graph(n, ((i, i + 1) for i in range(1, n)))


def box_product(g: Graph, h: Graph) -> Graph:
    """Box (Cartesian) product, with (i, j) relabeled as (i-1)*m + j.

    m is the vertex count of h.  Two product vertices are adjacent when they
    agree in one coordinate and are adjacent in the other, giving
    n*|E(h)| + m*|E(g)| edges.
    """
    n, m = g.n_vertices, h.n_vertices
    within = ((base + j, base + jp) for base in range(0, n * m, m) for j, jp in h.edges)
    across = (
        ((i - 1) * m + j, (ip - 1) * m + j) for i, ip in g.edges for j in range(1, m + 1)
    )
    return Graph(n * m, chain(within, across))


def biadjacency_band(g: Graph) -> tuple[int, int, list[BandRow]]:
    """2-colour a bipartite graph and return ``(k0, k1, rows)``: the sizes
    of its two colour classes and the band rows of its biadjacency matrix C
    for :func:`~boxdet.exact_linalg.bareiss_band_det`.

    In colour-class order the adjacency matrix is [[0, C], [C^T, 0]], with
    C of size k0 x k1.  Each component is coloured by breadth-first search
    from its smallest vertex, which gets colour 0, and each class is
    numbered in vertex order.  Row r of C, for the r-th colour-0 vertex, is
    ``(start, entries)`` from its first neighbour's class-1 position
    through its last, so a vertex with no neighbour is ``(r, [])``.  Raises
    ValueError if the graph has an odd cycle.
    """
    n = g.n_vertices
    neighbours: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    colour = [-1] * (n + 1)
    for root in range(1, n + 1):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        queue = [root]
        for u in queue:  # the queue grows while it is read
            for v in neighbours[u]:
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    raise ValueError(f"edge ({u}, {v}) closes an odd cycle")
    sizes = [0, 0]
    position = [0] * (n + 1)
    for v in range(1, n + 1):
        position[v] = sizes[colour[v]]
        sizes[colour[v]] += 1
    rows: list[BandRow] = []
    for v in range(1, n + 1):
        if colour[v] == 0:
            cols = [position[w] for w in neighbours[v]]
            start = min(cols, default=position[v])
            entries = [0] * (max(cols, default=start - 1) + 1 - start)
            for c in cols:
                entries[c - start] = 1
            rows.append((start, entries))
    return sizes[0], sizes[1], rows
