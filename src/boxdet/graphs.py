"""Paths, box products, and the rows of a bipartite graph's biadjacency
matrix.

Vertices are the 1-based integers 1..n throughout; the 0-based shift happens
only when the rows are emitted.  One rule builds a box product:
:func:`box_neighbours` lists each product vertex's neighbours straight from
the two factors' edges.  :func:`box_product` is the Graph of those lists,
and :func:`biadjacency_band` colours such lists directly, so ``direct``
builds no set of the grid's edges.
"""
from __future__ import annotations

from collections.abc import Iterable

from ._record import FrozenRecord


class Graph(FrozenRecord):
    """Undirected simple graph: a vertex count and a set of unordered edges.

    Any iterable of pairs is stored as a frozenset of (u, v) pairs with
    u < v; loops and out-of-range endpoints are rejected at construction.
    """

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        n = n_vertices
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        # Validate and normalise in one pass; unpacking rejects any edge
        # that is not a pair.
        edges = frozenset(
            (u, v) if 0 < u < v <= n else (v, u) if 0 < v < u <= n else _reject(u, v, n)
            for u, v in edges
        )
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", edges)


def _reject(u: int, v: int, n: int):
    """Raise the ValueError for an edge that :class:`Graph` refuses; it
    never returns."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    raise ValueError(f"edge ({u}, {v}) is outside 1..{n}")


def path(n: int) -> Graph:
    """The path on vertices 1..n with edges between consecutive integers."""
    if n < 1:
        raise ValueError(f"a path needs at least one vertex, got {n}")
    return Graph(n, ((i, i + 1) for i in range(1, n)))


def box_neighbours(g: Graph, h: Graph) -> list[list[int]]:
    """Neighbour lists of the box (Cartesian) product, with (i, j) relabeled
    as (i-1)*m + j; index 0 is unused.

    m is the vertex count of h.  Two product vertices are adjacent when they
    agree in one coordinate and are adjacent in the other, so each edge of h
    joins its two ends in every row i, and each edge of g joins its two rows
    in every column j.  Each product edge comes from one factor edge, so each
    list holds each neighbour once, and v is in u's list exactly when u is
    in v's.
    """
    m = h.n_vertices
    size = g.n_vertices * m
    neighbours: list[list[int]] = [[] for _ in range(size + 1)]
    for base in range(0, size, m):
        for j, jp in h.edges:
            neighbours[base + j].append(base + jp)
            neighbours[base + jp].append(base + j)
    for i, ip in g.edges:
        step = (ip - i) * m
        for u in range((i - 1) * m + 1, i * m + 1):
            neighbours[u].append(u + step)
            neighbours[u + step].append(u)
    return neighbours


def box_product(g: Graph, h: Graph) -> Graph:
    """Box (Cartesian) product, with (i, j) relabeled as (i-1)*m + j: the
    graph whose edges are those of :func:`box_neighbours`.

    m is the vertex count of h; the product has n*|E(h)| + m*|E(g)| edges.
    """
    neighbours = box_neighbours(g, h)
    return Graph(
        g.n_vertices * h.n_vertices,
        ((u, v) for u, row in enumerate(neighbours) for v in row if u < v),
    )


def biadjacency_band(
    neighbours: list[list[int]],
) -> tuple[int, int, list[dict[int, int]]]:
    """2-colour a bipartite graph, given as neighbour lists, and return
    ``(k0, k1, rows)``: the sizes of its two colour classes and the rows of
    its biadjacency matrix C for :func:`~boxdet.exact_linalg.bareiss_band_det`.

    ``neighbours[v]`` lists the neighbours of vertex v in 1..n, with n =
    ``len(neighbours) - 1`` and index 0 unused, as :func:`box_neighbours`
    gives them; v must be in u's list exactly when u is in v's.  In
    colour-class order the adjacency
    matrix is [[0, C], [C^T, 0]], with C of size k0 x k1.  Each component
    is coloured by breadth-first search from its smallest vertex, which gets
    colour 0, and each class is numbered in vertex order.  Row r of C, for
    the r-th colour-0 vertex, maps the class-1 position of each of its
    neighbours to 1, so a vertex with no neighbour is ``{}``.  Raises
    ValueError if the graph has an odd cycle.
    """
    n = len(neighbours) - 1
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
    rows = [
        {position[w]: 1 for w in neighbours[v]}
        for v in range(1, n + 1)
        if colour[v] == 0
    ]
    return sizes[0], sizes[1], rows
