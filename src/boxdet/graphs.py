"""The grid's neighbour lists, and the rows of a bipartite graph's
biadjacency matrix.

Vertices are the 1-based integers 1..n throughout; the 0-based shift happens
only when the rows are emitted.  :func:`grid_neighbours` lists each grid
vertex's neighbours straight from n and m, and :func:`biadjacency_band`
colours such lists directly, so ``direct`` builds no set of the grid's
edges.
"""
from __future__ import annotations


def grid_neighbours(n: int, m: int) -> list[list[int]]:
    """Neighbour lists of the n x m grid P_n box P_m, with vertex (i, j)
    labelled (i-1)*m + j; index 0 is unused.

    By the grid's definition (i, j) is joined to (i, j+1) and to (i+1, j):
    label u to u + 1 when u is not the last of its row, and to u + m when
    it is not in the last row.  Each edge is appended once at each end, so
    each list holds each neighbour once, and v is in u's list exactly when
    u is in v's.
    """
    size = n * m
    neighbours: list[list[int]] = [[] for _ in range(size + 1)]
    for base in range(0, size, m):
        for u in range(base + 1, base + m):
            neighbours[u].append(u + 1)
            neighbours[u + 1].append(u)
    for u in range(1, size - m + 1):
        neighbours[u].append(u + m)
        neighbours[u + m].append(u)
    return neighbours


def biadjacency_band(
    neighbours: list[list[int]],
) -> tuple[int, int, list[dict[int, int]]]:
    """2-colour a bipartite graph, given as neighbour lists, and return
    ``(k0, k1, rows)``: the sizes of its two colour classes and the rows of
    its biadjacency matrix C for :func:`~boxdet.exact_linalg.bareiss_band_det`.

    ``neighbours[v]`` lists the neighbours of vertex v in 1..n, with n =
    ``len(neighbours) - 1`` and index 0 unused, as :func:`grid_neighbours`
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
