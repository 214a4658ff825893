"""Arbitrary-precision integer matrices and exact determinants.

Two independent determinant routes are deliberately kept side by side:
:func:`bareiss_band_det` (fraction-free elimination on band rows, the
production engine, with :func:`bareiss_det` reading the band from a dense
matrix) and :func:`cofactor_det` (first-row expansion, a small brute-force
oracle capped at size 10).  Every exact division inside Bareiss is checked;
a nonzero remainder means a logic bug and raises immediately instead of
corrupting the result.
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

    @property
    def size(self) -> int:
        return len(self.rows)


def bareiss_det(m: IntMatrix) -> int:
    """Exact determinant by :func:`bareiss_band_det` on the band read from
    the matrix: ``low`` is the farthest any nonzero entry lies below the
    diagonal (at least 1), and each row runs to its last nonzero entry."""
    n = m.size
    low = 1
    right = [-1] * n
    for i, row in enumerate(m.rows):
        nonzero = list(compress(range(n), row))
        if nonzero:
            low = max(low, i - nonzero[0])
            right[i] = nonzero[-1]
    return bareiss_band_det(
        low, [list(row[max(0, i - low) : right[i] + 1]) for i, row in enumerate(m.rows)]
    )


def bareiss_band_det(low: int, a: list[list[int]]) -> int:
    """Exact determinant by fraction-free (two-step) elimination of a band
    matrix, given as its lower bandwidth ``low`` >= 1 and its rows.

    Row i (there is at least one) is a list whose first entry is column
    max(0, i - low), as in LAPACK band storage, and which ends anywhere at
    or past the row's last nonzero entry, even empty or left of the
    diagonal.  Elimination rewrites the rows in place.

    Intermediate entries are minors of the input, so they stay integral and
    growth is bounded; each elimination step divides by the previous pivot
    exactly.  A zero pivot is repaired by swapping with the first nonzero
    entry below it (flipping the sign, and swapping the rows' first
    columns); if the whole column is zero the determinant is zero.  Row
    swaps are mandatory here, not an edge case: adjacency matrices have
    zero diagonals.

    Only rows k+1..k+low can be nonzero in column k, so step k touches only
    that window.  A row below the window has never been eliminated, and its
    Bareiss value is its input times the previous pivot, so it waits
    unscaled and is multiplied once when it enters.  An update runs to the
    farther of the two rows' right ends, the shorter one padded with zeros
    so that both are zipped whole.  A row with no entry in the pivot column is only scaled by
    pivot / prev: it is left alone when the two are equal, and multiplied
    by the quotient when prev divides pivot, as when pivots of -1 and 1
    alternate in ``det_block``'s matrices.  A matrix of size N with both
    bandwidths b costs O(N b^2) steps and O(N b) memory.
    """
    n = len(a)
    first = [max(0, i - low) for i in range(n)]  # column of each row's entry 0
    sign = 1
    prev = 1
    for k in range(n - 1):
        last = min(k + low, n - 1)
        if k + low < n and prev != 1:  # row k + low enters the window
            a[last][:] = [x * prev for x in a[last]]
        j = k - first[k]
        if j >= len(a[k]) or not a[k][j]:
            for i in range(k + 1, last + 1):
                j = k - first[i]
                if j < len(a[i]) and a[i][j]:
                    a[k], a[i] = a[i], a[k]
                    first[k], first[i] = first[i], first[k]
                    sign = -sign
                    break
            else:
                return 0
        j = k - first[k]
        pivot = a[k][j]
        tail = a[k][j + 1 :]
        ratio, rem = divmod(pivot, prev)
        for i in range(k + 1, last + 1):
            row = a[i]
            j = k - first[i]
            factor = row[j] if j < len(row) else 0
            if factor:
                gap = len(tail) - (len(row) - j - 1)
                if gap > 0:
                    row += [0] * gap
                elif gap < 0:
                    tail += [0] * -gap
                nums = [x * pivot - factor * y for x, y in zip(row[j + 1 :], tail)]
            elif pivot == prev:
                continue  # the row would be scaled by pivot / prev = 1
            elif not rem:  # prev divides pivot, so no entry needs dividing
                row[j + 1 :] = [x * ratio for x in row[j + 1 :]]
                continue
            else:
                nums = [x * pivot for x in row[j + 1 :]]
            if prev != 1:
                for col, num in enumerate(nums):
                    q, r = divmod(num, prev)
                    if r:
                        raise ArithmeticError(
                            f"inexact division at step {k}: {num} by {prev}"
                        )
                    nums[col] = q
            row[j + 1 :] = nums
        prev = pivot
    j = n - 1 - first[n - 1]
    return sign * a[n - 1][j] if j < len(a[n - 1]) else 0


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
