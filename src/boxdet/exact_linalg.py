"""Exact determinants of integer band matrices.

:func:`bareiss_band_det` is fraction-free elimination on band rows: the
engine under ``direct`` and ``block``, and the only code that knows band
storage.  Every exact division inside it is checked; a nonzero remainder
means a logic bug and raises immediately instead of corrupting the result.
"""
from __future__ import annotations

BandRow = tuple[int, list[int]]  # (start column, entries); see bareiss_band_det


def bareiss_band_det(rows: list[BandRow]) -> int:
    """Exact determinant by fraction-free (two-step) elimination of a band
    matrix, given as its rows; no rows is the empty matrix, of determinant
    1.  Row i is ``(start, entries)``: the column of its first stored entry
    (ValueError if negative), then the entries up to anywhere at or past
    its last nonzero one, even none or left of the diagonal.  The lower bandwidth ``low`` is
    the farthest a nonempty row starts left of its diagonal, at least 1.
    Rows that start right of column max(0, i - low) are first left-padded
    to start there, as in LAPACK band storage; elimination rewrites the
    entry lists in place.

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
    so that both are zipped whole.  A row with no entry in the pivot column
    is only scaled by pivot / prev: by the quotient when prev divides
    pivot, as when pivots of -1 and 1 alternate in ``det_block``'s
    half-bands, and not at all when that quotient is 1.  A matrix of size
    N with both bandwidths b costs O(N b^2) steps and O(N b) memory.
    """
    n = len(rows)
    if not n:
        return 1
    low = max([1] + [i - start for i, (start, entries) in enumerate(rows) if entries])
    first = [max(0, i - low) for i in range(n)]  # column of each row's entry 0
    for (start, entries), base in zip(rows, first):
        if start > base:
            entries[:0] = [0] * (start - base)
        elif start < 0:
            raise ValueError(f"a row starts at column {start}, left of column 0")
    a = [entries for _, entries in rows]
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
            elif not rem:  # prev divides pivot, so no entry needs dividing
                if ratio != 1:
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
