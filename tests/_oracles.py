"""Oracles and helpers used only by the tests; none of them is in the package.

The oracles share no code with the library paths they check:

* the characteristic polynomial comes from cofactor expansion over
  polynomial-entry matrices and from the rolling three-term recurrence
  (the check on the binomial expansion);
* products and powers come from the plain double-loop convolution, and
  sums and differences coefficient by coefficient (the check on the
  package's one zero-skipping product, ``polynomials._mul_into``, and on
  the reduced powers of the identity suite);
* pseudo-remainders come from dense schoolbook pseudo-division that
  rescales the whole dividend at every step, and remainders by a divisor
  led by +1 or -1 from it, the scaling undone (the check on the monic
  remainder routine, ``polynomials._rem``, and on the remainders the
  resultant and the identity suite's reduced powers rest on);
* polynomials are evaluated at a matrix by Horner's rule with plain
  list-of-rows sums and products, and q_k(-A(P_m)) also comes from the
  unfolded matrix recurrence Q_k = B Q_{k-1} - Q_{k-2} (both the check on
  the block method's closed-form parity half, which is expanded back to a
  dense half here);
* determinants come from dense Bareiss elimination over every row and
  column (the check on the banded production routine, which must return
  its value when every pivot it meets is +1 or -1 and raise otherwise) and
  from first-row cofactor expansion, and resultants from the Sylvester
  matrix;
* det(H)**2 of an interval matrix H, whose rows are runs of ones, comes
  from expanding the runs into a dense H and eliminating it densely (the
  check on the block method's union-find over the runs' ends);
* a graph is a vertex count and a validated frozenset of edges, and a path
  is such a graph;
* a box product's edges come from its definition, tested on every pair of
  product vertices (the check on the grid's neighbour lists built from n
  and m);
* a graph's neighbour lists are read off its edges and sorted, the input
  of the breadth-first colouring;
* a graph's dense adjacency matrix is written from its edges, and a
  bipartite graph's colour classes and biadjacency rows are read from it
  by repeated sweeps with no queue (the check on the breadth-first rows
  built from a graph's neighbour lists);
* a polynomial's parity is read from its coefficient support;
* eigenvalues come from the known path-spectrum cosine formula, and random
  matrices are drawn from a seeded generator.
"""
from __future__ import annotations

import enum
import itertools
import math
import operator
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from boxdet._record import FrozenRecord
from boxdet.polynomials import IntPoly

COFACTOR_SIZE_LIMIT = 10
ZERO = IntPoly(())
ONE = IntPoly((1,))
X = IntPoly((0, 1))


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of Python ints, row-major, dimension >= 1; any
    iterable of rows is stored as a tuple of tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        if not rows:
            raise ValueError("matrix dimension must be >= 1")
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)


def cofactor_det(m: IntMatrix) -> int:
    """Determinant by first-row cofactor expansion; the independent oracle.

    Factorial cost, so the size is capped at 10 (~3.6M terms at the limit).
    Zero entries contribute nothing and are skipped.
    """
    if m.size > COFACTOR_SIZE_LIMIT:
        raise ValueError(
            f"cofactor expansion is capped at size {COFACTOR_SIZE_LIMIT}, got {m.size}"
        )
    return _expand(m.rows)


def _expand(rows: tuple[tuple[int, ...], ...]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, c in enumerate(rows[0]):
        if c == 0:
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in rows[1:])
        term = c * _expand(minor)
        total += -term if j % 2 else term
    return total


def sylvester_matrix(f: IntPoly, g: IntPoly) -> IntMatrix:
    """Sylvester matrix of f and g; its determinant equals resultant(f, g).

    deg(g) rows of shifted f-coefficients (descending) stacked on deg(f)
    rows of shifted g-coefficients.  Requires deg(f) + deg(g) >= 1 since a
    0x0 matrix is not representable.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("Sylvester matrix requires nonzero polynomials")
    n = int(f.degree)
    m = int(g.degree)
    if n + m == 0:
        raise ValueError("both polynomials are constant; the matrix would be empty")
    fdesc = tuple(reversed(f.coeffs))
    gdesc = tuple(reversed(g.coeffs))
    rows = []
    for i in range(m):
        rows.append((0,) * i + fdesc + (0,) * (m - 1 - i))
    for i in range(n):
        rows.append((0,) * i + gdesc + (0,) * (n - 1 - i))
    return IntMatrix(rows)


def sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) as the determinant of the Sylvester matrix, for any
    nonzero f and g; two constants have the empty matrix, of determinant 1."""
    if f.degree + g.degree == 0:
        return 1
    return dense_bareiss_det(sylvester_matrix(f, g))


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


def adjacency_matrix(g: Graph) -> IntMatrix:
    """Symmetric 0/1 matrix with zero diagonal, indexed by vertex order."""
    n = g.n_vertices
    rows = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        rows[u - 1][v - 1] = 1
        rows[v - 1][u - 1] = 1
    return IntMatrix(rows)


def box_product_by_definition(g: Graph, h: Graph) -> Graph:
    """The box product of g and h, with (i, j) labelled (i-1)*m + j for m
    the vertex count of h, from its definition: every pair of product
    vertices is tested, and two are adjacent when they agree in one
    coordinate and are adjacent in the other."""
    n, m = g.n_vertices, h.n_vertices
    vertices = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    edges = set()
    for u, (i, j) in enumerate(vertices, 1):
        for v, (ip, jp) in enumerate(vertices, 1):
            if u < v and (
                (i == ip and (min(j, jp), max(j, jp)) in h.edges)
                or (j == jp and (min(i, ip), max(i, ip)) in g.edges)
            ):
                edges.add((u, v))
    return Graph(n * m, edges)


def neighbour_lists(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours in increasing order, indexed by vertex with
    index 0 unused: the input :func:`boxdet.graphs.biadjacency_band`
    takes."""
    neighbours: list[list[int]] = [[] for _ in range(g.n_vertices + 1)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    return [sorted(row) for row in neighbours]


class Parity(enum.Enum):
    """Coefficient-support classification of a polynomial.

    EVEN means every odd-degree coefficient vanishes, ODD the reverse; the
    zero polynomial counts as EVEN by convention.
    """

    EVEN = "even"
    ODD = "odd"
    NEITHER = "neither"


def parity(p: IntPoly) -> Parity:
    """Classify p as EVEN, ODD, or NEITHER by its coefficient support."""
    even = all(c == 0 for c in p.coeffs[1::2])
    odd = all(c == 0 for c in p.coeffs[0::2])
    if even:
        return Parity.EVEN
    if odd:
        return Parity.ODD
    return Parity.NEITHER


def _poly_det(rows: list[list[IntPoly]]) -> IntPoly:
    """First-row cofactor expansion over polynomial entries; exponential."""
    if len(rows) == 1:
        return rows[0][0]
    total = ZERO
    for j, entry in enumerate(rows[0]):
        if entry.is_zero:
            continue
        minor = [
            [row[i] for i in range(len(row)) if i != j] for row in rows[1:]
        ]
        term = convolve(entry, _poly_det(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


def charpoly_by_cofactor(n: int) -> IntPoly:
    """det(A(P_n) - x I) expanded symbolically; keep n small (n <= 8)."""
    if n == 0:
        return ONE
    minus_x = IntPoly((0, -1))
    rows = [
        [
            minus_x if i == j else (ONE if abs(i - j) == 1 else ZERO)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _poly_det(rows)


def recurrence_charpolys():
    """q_0, q_1, q_2, ... by ``q_k = -x * q_{k-1} - q_{k-2}``, keeping only
    the last two; O(k) polynomial operations to reach q_k.  -x * q is q's
    coefficients negated and shifted up one degree."""
    prev, cur = ONE, IntPoly((0, -1))
    yield prev
    while True:
        yield cur
        prev, cur = cur, sub(IntPoly((0, *(-c for c in cur.coeffs))), prev)


def recurrence_charpoly(n: int) -> IntPoly:
    """q_n by the rolling recurrence; O(n**2) coefficient operations."""
    return next(itertools.islice(recurrence_charpolys(), n, None))


def dense_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of lc(b)**(deg a - deg b + 1) * a modulo b.

    Coefficient lists, ascending, a and b nonzero with deg a >= deg b.
    """
    db = len(b) - 1
    lb = b[-1]
    scale = len(a) - 1 - db + 1
    r = list(a)
    while r and len(r) - 1 >= db:
        if r[-1] == 0:
            r.pop()
            continue
        lead = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= lead * c
        r.pop()
        scale -= 1
    while r and r[-1] == 0:
        r.pop()
    factor = lb**scale
    return [c * factor for c in r]


def dense_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a mod b for a unit lc(b): the dense pseudo-remainder of a, padded
    with zeros to at least b's length, scaled by lc(b)**steps again, which
    undoes the scaling.  A shorter a is its own remainder."""
    a = list(a) + [0] * (len(b) - len(a))
    scale = b[-1] ** (len(a) - len(b) + 1)
    return [c * scale for c in dense_prem(a, b)]


def add(p: IntPoly, q: IntPoly) -> IntPoly:
    """p + q, coefficient by coefficient."""
    return IntPoly(a + b for a, b in itertools.zip_longest(p.coeffs, q.coeffs, fillvalue=0))


def sub(p: IntPoly, q: IntPoly) -> IntPoly:
    """p - q, coefficient by coefficient."""
    return IntPoly(a - b for a, b in itertools.zip_longest(p.coeffs, q.coeffs, fillvalue=0))


def convolve(p: IntPoly, q: IntPoly) -> IntPoly:
    """p * q by the plain double loop over every coefficient pair, zero
    coefficients included."""
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IntPoly(tuple(out))


def repeated_power(p: IntPoly, a: int) -> IntPoly:
    """p ** a as a products by :func:`convolve`, starting from 1."""
    result = ONE
    for _ in range(a):
        result = convolve(result, p)
    return result


def identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def add_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Entrywise sum of two matrices given as lists of rows."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale_rows(c: int, a: list[list[int]]) -> list[list[int]]:
    return [[c * x for x in row] for row in a]


def mul_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Matrix product by the row-times-column definition."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matpoly_eval(p: IntPoly, b: list[list[int]]) -> list[list[int]]:
    """Evaluate an integer polynomial at a square integer matrix, both the
    matrix and the result given as lists of rows.

    Horner's rule: deg(p) matrix multiplications, all exact.  The constant
    term scales the identity (b**0 == I by convention).
    """
    n = len(b)
    if p.is_zero:
        return scale_rows(0, identity_rows(n))
    eye = identity_rows(n)
    result = scale_rows(p.coeffs[-1], eye)
    for c in reversed(p.coeffs[:-1]):
        result = add_rows(mul_rows(result, b), scale_rows(c, eye))
    return result


def recurrence_block_matrices(m: int):
    """Q_0, Q_1, Q_2, ... with Q_k = q_k(-B) for the m-path adjacency matrix
    B, as lists of rows, by Q_{-1} = 0, Q_0 = I and Q_k = B Q_{k-1} - Q_{k-2}.

    B is tridiagonal with unit off-diagonals, so row i of B Q is the sum of
    rows i-1 and i+1 of Q: each step is O(m^2) additions.  Nothing is
    folded, so the period 2(m+1) and the shift identity are checked, not
    assumed.
    """
    zero = [0] * m
    prev = [zero] * m
    cur = [[int(i == j) for j in range(m)] for i in range(m)]
    while True:
        yield cur
        padded = [zero, *cur, zero]
        prev, cur = cur, [
            list(map(operator.sub, map(operator.add, padded[i], padded[i + 2]), prev[i]))
            for i in range(m)
        ]


def expand_block_band(runs: Iterable[tuple[int, int]], m: int) -> list[list[int]]:
    """The dense half that :func:`boxdet.det_methods.block_runs` describes,
    up to its one global sign: one row per run ``(start, end)``, 1 on half
    columns start..end-1 and 0 elsewhere, over the m // 2 half columns, half
    column c being the 1-based column j = 2c + 2.  A nonempty run reaching
    outside them raises IndexError."""
    dense = []
    for r, (start, end) in enumerate(runs):
        if start < end and (start < 0 or end > m // 2):
            raise IndexError(f"half row {r} runs over columns {start}..{end - 1}")
        dense.append([int(start <= c < end) for c in range(m // 2)])
    return dense


def parity_half(dense: list[list[int]], n: int) -> list[list[int]]:
    """The rows of a dense m x m matrix whose 1-based index has the parity
    of n, over its even 1-based columns: the half of q_n(-B) that
    :func:`boxdet.det_methods.block_runs` describes."""
    return [row[1::2] for row in dense[1 - n % 2 :: 2]]


def dense_bareiss_det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (two-step) elimination.

    Intermediate entries are minors of the input, so they stay integral and
    growth is bounded; each elimination step divides by the previous pivot
    exactly.  A zero pivot is repaired by swapping with the first nonzero
    entry below it (flipping the sign); if the whole column is zero the
    determinant is zero.  Row swaps are mandatory here, not an edge case:
    adjacency matrices have zero diagonals.
    """
    return dense_bareiss(m)[0]


def dense_bareiss(m: IntMatrix) -> tuple[int, list[int]]:
    """:func:`dense_bareiss_det` and the pivots it divides by, in step
    order, up to the step whose column is zero.  Pivot k is a leading minor
    of the swapped matrix, so all are +1 or -1 exactly when elimination
    with unit pivots and the same swaps goes through."""
    n = m.size
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    pivots = []
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0, pivots
        pivot_row = a[k]
        pivot = pivot_row[k]
        pivots.append(pivot)
        for i in range(k + 1, n):
            row = a[i]
            factor = row[k]
            if factor:
                for j in range(k + 1, n):
                    num = row[j] * pivot - factor * pivot_row[j]
                    q, r = divmod(num, prev)
                    if r:
                        raise ArithmeticError(
                            f"inexact division at step {k}: {num} by {prev}"
                        )
                    row[j] = q
            elif prev != 1:
                for j in range(k + 1, n):
                    num = row[j] * pivot
                    q, r = divmod(num, prev)
                    if r:
                        raise ArithmeticError(
                            f"inexact division at step {k}: {num} by {prev}"
                        )
                    row[j] = q
            else:
                for j in range(k + 1, n):
                    row[j] *= pivot
        prev = pivot
    return sign * a[n - 1][n - 1], pivots


def dense_biadjacency_band(
    a: IntMatrix,
) -> tuple[int, int, list[dict[int, int]]]:
    """The colour-class sizes and biadjacency rows of the bipartite graph
    with adjacency matrix ``a``, as :func:`boxdet.graphs.biadjacency_band`
    defines them.

    The smallest uncoloured vertex gets colour 0, and colours spread along
    nonzero entries, sweeping over the whole matrix until a sweep changes
    nothing; then the next component starts.  Classes are numbered in
    vertex order, and row r, for the r-th colour-0 vertex, maps the class-1
    position of each of its nonzero entries to that entry, ``{}`` if it has
    none.  ValueError if a nonzero entry joins two vertices of one colour.
    """
    n = a.size
    colour: list[int | None] = [None] * n
    for root in range(n):
        if colour[root] is not None:
            continue
        colour[root] = 0
        changed = True
        while changed:
            changed = False
            for u, row in enumerate(a.rows):
                for v, x in enumerate(row):
                    if x and colour[u] is not None and colour[v] is None:
                        colour[v] = 1 - colour[u]
                        changed = True
    for u, row in enumerate(a.rows):
        for v, x in enumerate(row):
            if x and colour[u] == colour[v]:
                raise ValueError(f"vertices {u} and {v} are adjacent and alike")
    zeros, ones = ([v for v in range(n) if colour[v] == c] for c in (0, 1))
    rows = [{j: a.rows[u][v] for j, v in enumerate(ones) if a.rows[u][v]} for u in zeros]
    return len(zeros), len(ones), rows


def random_matrix(rng: random.Random, size: int, low: int = -5, high: int = 5) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(low, high) for _ in range(size)] for _ in range(size)]
    )


def path_eigenvalues(n: int) -> list[float]:
    """Known path spectrum, 2 cos(k pi / (n+1)); floating, test-only."""
    return [2.0 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)]


def grid_eigenvalue_product(n: int, m: int) -> float:
    """Floating determinant of the grid graph: eigenvalues of a box product
    are pairwise sums, so the determinant is the product of those sums."""
    product = 1.0
    for a in path_eigenvalues(n):
        for b in path_eigenvalues(m):
            product *= a + b
    return product
