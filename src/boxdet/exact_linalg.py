"""Exact determinants of sparse integer matrices.

:func:`bareiss_band_det` is fraction-free elimination on rows given as
``{column: entry}`` maps, with every pivot made positive: the engine under
``direct``.  Every exact division inside it is checked; a nonzero remainder
means a logic bug and raises immediately instead of corrupting the result.
"""
from __future__ import annotations


def bareiss_band_det(rows: list[dict[int, int]]) -> int:
    """Exact determinant by fraction-free (two-step) elimination of a
    square matrix, given as its rows, each a map from column to entry; a
    column missing from a row holds 0, and no rows is the empty matrix, of
    determinant 1.  The rows are copied without their zero entries, and are
    never changed; a nonzero entry outside columns 0..n-1 raises
    ValueError.  The lower bandwidth ``low`` is the farthest a nonzero
    entry lies left of its diagonal, at least 1.

    Intermediate entries are minors of the input, so they stay integral and
    growth is bounded; each elimination step divides by the previous pivot
    exactly.  A zero pivot is repaired by swapping with the first nonzero
    entry below it (flipping the sign); if the whole column is zero the
    determinant is zero.  Row swaps are mandatory here, not an edge case:
    adjacency matrices have zero diagonals.

    Only rows k+1..k+low can be nonzero in column k, so step k touches only
    that window, and drops column k from every row in it.  A row below the
    window has never been eliminated, and its Bareiss value is its input
    times the previous pivot, so it waits unscaled and is multiplied once
    when it enters.  A negative pivot's row is negated, flipping the sign,
    so every pivot is positive.  A row with no entry in the pivot column is
    left as it is if the pivot equals prev; any other is updated in place.
    A matrix of size N with both bandwidths b costs O(N b^2) steps and
    O(N b) memory.
    """
    n = len(rows)
    if not n:
        return 1
    a = [{col: x for col, x in row.items() if x} for row in rows]
    spans = [(i, min(row), max(row)) for i, row in enumerate(a) if row]
    for i, left, right in spans:
        if left < 0 or right >= n:
            raise ValueError(f"row {i} has a nonzero entry outside columns 0..{n - 1}")
    low = max([1] + [i - left for i, left, _ in spans])
    sign = 1
    prev = 1
    for k in range(n - 1):
        last = min(k + low, n - 1)
        if k + low < n and prev != 1:  # row k + low enters the window
            a[last] = {col: x * prev for col, x in a[last].items()}
        if not a[k].get(k):
            for i in range(k + 1, last + 1):
                if a[i].get(k):
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        tail = a[k]
        pivot = tail.pop(k)
        if pivot < 0:  # Bareiss on the input with row k negated
            pivot, sign, tail = -pivot, -sign, {col: -y for col, y in tail.items()}
        for i in range(k + 1, last + 1):
            row = a[i]
            factor = row.pop(k, 0)
            if not factor and pivot == prev:
                continue
            if pivot != 1:
                for col in row:
                    row[col] *= pivot
            if factor:
                for col, y in tail.items():
                    row[col] = row.get(col, 0) - factor * y
            if prev != 1:
                for col, num in row.items():
                    q, r = divmod(num, prev)
                    if r:
                        raise ArithmeticError(
                            f"inexact division at step {k}: {num} by {prev}"
                        )
                    row[col] = q
        prev = pivot
    return sign * a[n - 1].get(n - 1, 0)
