"""Arbitrary-precision integer matrices and exact determinants.

Two independent determinant routes are deliberately kept side by side:
:func:`bareiss_det` (fraction-free elimination kept inside the matrix's
band, the production engine) and :func:`cofactor_det` (first-row
expansion, a small brute-force oracle capped at size 10).  Every exact
division inside Bareiss is checked; a nonzero remainder means a logic bug
and raises immediately instead of corrupting the result.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .polynomials import IntPoly

COFACTOR_SIZE_LIMIT = 10


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of Python ints, row-major, dimension >= 1."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        if not rows:
            raise ValueError("matrix dimension must be >= 1")
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zeros(n: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * n for _ in range(n)))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch")
        return IntMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in row) for row in self.rows))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar: int) -> "IntMatrix":
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix(tuple(tuple(a * scalar for a in row) for row in self.rows))

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch")
        cols = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )


def bareiss_det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (two-step) elimination, kept inside
    the matrix's band.

    Intermediate entries are minors of the input, so they stay integral and
    growth is bounded; each elimination step divides by the previous pivot
    exactly.  A zero pivot is repaired by swapping with the first nonzero
    entry below it (flipping the sign); if the whole column is zero the
    determinant is zero.  Row swaps are mandatory here, not an edge case:
    adjacency matrices have zero diagonals.

    The band is read from the matrix: with lower bandwidth ``low`` (at
    least 1), only rows k+1..k+low can be nonzero in column k, so step k
    touches only that window.  A row below the window has never been
    eliminated, and its Bareiss value is its input times the previous
    pivot, so it waits unscaled and is multiplied once when it enters.
    Each row keeps its rightmost nonzero column (swapped with the row), and
    an update stops there, since every entry past it stays 0.  A row with
    no entry in the pivot column is only scaled by pivot / prev, so it is
    left alone when the two are equal.  A matrix of size N with both
    bandwidths b costs O(N b^2) steps; a full one costs what dense
    elimination does.
    """
    n = m.size
    a = [list(row) for row in m.rows]
    low = 1
    right = [-1] * n
    for i, row in enumerate(a):
        nonzero = list(compress(range(n), row))
        if nonzero:
            low = max(low, i - nonzero[0])
            right[i] = nonzero[-1]
    sign = 1
    prev = 1
    for k in range(n - 1):
        last = min(k + low, n - 1)
        if k + low < n and prev != 1:  # row k + low enters the window
            entering = a[last]
            entering[k : right[last] + 1] = [
                x * prev for x in entering[k : right[last] + 1]
            ]
        if a[k][k] == 0:
            for i in range(k + 1, last + 1):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    right[k], right[i] = right[i], right[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, last + 1):
            row = a[i]
            factor = row[k]
            if factor:
                right[i] = max(right[k], right[i])
                nums = [
                    x * pivot - factor * y
                    for x, y in zip(
                        row[k + 1 : right[i] + 1], pivot_row[k + 1 : right[i] + 1]
                    )
                ]
            elif pivot == prev:
                continue  # the row would be scaled by pivot / prev = 1
            else:
                nums = [x * pivot for x in row[k + 1 : right[i] + 1]]
            if prev != 1:
                for j, num in enumerate(nums):
                    q, r = divmod(num, prev)
                    if r:
                        raise ArithmeticError(
                            f"inexact division at step {k}: {num} by {prev}"
                        )
                    nums[j] = q
            row[k + 1 : right[i] + 1] = nums
        prev = pivot
    return sign * a[n - 1][n - 1]


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
    return IntMatrix(tuple(rows))
