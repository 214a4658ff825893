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
products (the check on the block method's matrix recurrence), determinants
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


def dense_band(m: IntMatrix) -> tuple[int, list[list[int]]]:
    """The band of a dense matrix read entry by entry: the farthest any
    nonzero entry lies below the diagonal (at least 1), and each row from
    column max(0, i - low) to its last nonzero entry, empty if it has none."""
    nonzero = [[j for j, x in enumerate(row) if x] for row in m.rows]
    low = max([1] + [i - cols[0] for i, cols in enumerate(nonzero) if cols])
    return low, [
        list(row[max(0, i - low) : cols[-1] + 1]) if cols else []
        for i, (row, cols) in enumerate(zip(m.rows, nonzero))
    ]


def random_matrix(rng: random.Random, size: int, low: int = -5, high: int = 5) -> IntMatrix:
    return IntMatrix.from_rows(
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
