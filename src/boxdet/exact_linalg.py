"""Exact determinants of sparse integer matrices.

:func:`bareiss_band_det` is fraction-free elimination on rows given as
``{column: entry}`` maps: the engine under ``direct``.  Every exact division
inside it is checked; a nonzero remainder means a logic bug and raises
immediately instead of corrupting the result.
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
    when it enters.  A row with no entry in the pivot column is only scaled
    by pivot / prev: by the quotient when prev divides pivot, as when every
    pivot is -1 or 1, and not at all when that quotient is 1.  Any other
    row is divided by prev entry by entry, each division checked, unless
    prev is a unit: then the row is negated, or left as it is.  A matrix
    of size N with both bandwidths b costs O(N b^2) steps and O(N b) memory.
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
        ratio, rem = divmod(pivot, prev)
        for i in range(k + 1, last + 1):
            row = a[i]
            factor = row.pop(k, 0)
            if not factor and not rem:  # prev divides pivot, so no entry needs dividing
                if ratio != 1:
                    a[i] = {col: x * ratio for col, x in row.items()}
                continue
            nums = {col: x * pivot for col, x in row.items()}
            if factor:
                for col, y in tail.items():
                    nums[col] = nums.get(col, 0) - factor * y
            if prev == -1:  # division by a unit is exact
                nums = {col: -num for col, num in nums.items()}
            elif prev != 1:
                for col, num in nums.items():
                    q, r = divmod(num, prev)
                    if r:
                        raise ArithmeticError(
                            f"inexact division at step {k}: {num} by {prev}"
                        )
                    nums[col] = q
            a[i] = nums
        prev = pivot
    return sign * a[n - 1].get(n - 1, 0)
