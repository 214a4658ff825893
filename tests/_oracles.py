"""Independent oracles used only by the tests.

Nothing here shares code with the library paths it checks: the
characteristic polynomial comes from cofactor expansion over
polynomial-entry matrices and from the rolling three-term recurrence (the
check on the binomial expansion), products and powers come from the plain
double-loop convolution (the check on the zero-skipping product and on
square-and-multiply), pseudo-remainders come from dense
schoolbook pseudo-division that rescales the whole dividend at every step
(the check on the windowed routine), polynomials are evaluated at a matrix
by Horner's rule over their coefficients with plain list-of-rows sums and
products, q_k(-A(P_m)) also comes from the unfolded matrix recurrence
Q_k = B Q_{k-1} - Q_{k-2} (both the check on the block method's closed-form
parity halves, which are expanded back to a dense matrix here), determinants
come from dense Bareiss elimination over every row and column (the check
on the banded production routine), bands are read from dense matrices
entry by entry (the check on the band built from a graph's edges),
eigenvalues come from the known path-spectrum cosine formula, and random
matrices are drawn from a seeded generator.
"""
from __future__ import annotations

import itertools
import math
import random
from operator import add, sub

from boxdet.exact_linalg import IntMatrix
from boxdet.polynomials import ONE, ZERO, IntPoly


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
        term = entry * _poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
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
    the last two; O(k) polynomial operations to reach q_k."""
    minus_x = IntPoly((0, -1))
    prev, cur = ONE, minus_x
    yield prev
    while True:
        yield cur
        prev, cur = cur, minus_x * cur - prev


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
            list(map(sub, map(add, padded[i], padded[i + 2]), prev[i]))
            for i in range(m)
        ]


def expand_block_bands(
    n: int,
    halves: tuple[list[tuple[int, list[int]]], list[tuple[int, list[int]]]],
    m: int,
) -> list[list[int]]:
    """The dense m x m matrix that :func:`boxdet.det_methods.block_bands`
    describes for q_n: half h = 0 (odd) or 1 (even) holds the rows of 1-based
    i of that parity, half row r is i = 2r + h + 1, and half column c,
    counted from the row's start, is the column j = 2c + 1 + (h + n) % 2,
    since the folded step count s has the parity of n.  A stored entry
    outside 1..m raises IndexError."""
    dense = [[0] * m for _ in range(m)]
    for h, rows in enumerate(halves):
        for r, (start, row) in enumerate(rows):
            if start < 0:
                raise IndexError(f"half row {r} starts at column {start}")
            for c, x in enumerate(row, start):
                if x:
                    dense[2 * r + h][2 * c + (h + n) % 2] = x
    return dense


def dense_bareiss_det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (two-step) elimination.

    Intermediate entries are minors of the input, so they stay integral and
    growth is bounded; each elimination step divides by the previous pivot
    exactly.  A zero pivot is repaired by swapping with the first nonzero
    entry below it (flipping the sign); if the whole column is zero the
    determinant is zero.  Row swaps are mandatory here, not an edge case:
    adjacency matrices have zero diagonals.
    """
    n = m.size
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        pivot = pivot_row[k]
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
    return sign * a[n - 1][n - 1]


def dense_band(m: IntMatrix) -> list[tuple[int, list[int]]]:
    """The band rows of a dense matrix read entry by entry: row i from
    column min(i, its first nonzero entry) through column max(i - 1, its
    last nonzero entry), so a zero row is ``(i, [])``."""
    rows = []
    for i, row in enumerate(m.rows):
        cols = [j for j, x in enumerate(row) if x]
        start = min([i] + cols)
        end = max([i] + [j + 1 for j in cols])
        rows.append((start, list(row[start:end])))
    return rows


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
