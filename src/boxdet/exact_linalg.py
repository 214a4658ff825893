"""Exact determinants of sparse integer matrices.

:func:`bareiss_band_det` is integer elimination over unit pivots on rows
given as ``{column: entry}`` maps: the engine under ``direct``.  Every pivot
must be +1 or -1, as on every grid band it has met: each grid with even
``nm``, a short side of 1 to 32 and a long side up to 200.  Any other pivot
raises ValueError, so a matrix outside that contract gets a loud error and
never a wrong value.
"""
from __future__ import annotations

from itertools import chain, compress
from operator import sub


def bareiss_band_det(rows: list[dict[int, int]]) -> int:
    """Exact determinant by integer elimination of a square matrix whose
    pivots are all +1 or -1, given as its rows, each a map from column to
    entry; a column missing from a row holds 0, and no rows is the empty
    matrix, of determinant 1.  The rows are copied without their zero
    entries, and are never changed; a nonzero entry outside columns 0..n-1
    raises ValueError.  The lower bandwidth ``low`` is the farthest a
    nonzero entry lies left of its diagonal, at least 1.

    A zero pivot is repaired by swapping with the first nonzero entry below
    it (flipping the sign); if the whole column is zero the determinant is
    zero.  Row swaps are mandatory here, not an edge case: adjacency
    matrices have zero diagonals.  A pivot of -1 has its row negated,
    flipping the sign, and any pivot other than +1 or -1 raises ValueError
    naming it and its step.

    Only rows k+1..k+low can be nonzero in column k, so step k touches only
    that window, and drops column k from every row in it.  Each window row
    with an entry in the pivot column has that entry times the pivot row
    subtracted; an entry cancelled to 0 is deleted, so every row holds only
    nonzero entries.  A matrix of size N with both bandwidths b costs
    O(N b^2) steps and O(N b) memory.
    """
    n = len(rows)
    if not n:
        return 1
    a = list(map(dict, rows))
    if 0 in chain.from_iterable(map(dict.values, a)):
        a = [{col: x for col, x in row.items() if x} for row in a]
    nonempty = list(filter(None, a))
    lefts = list(map(min, nonempty))
    if lefts and (min(lefts) < 0 or max(map(max, nonempty)) >= n):
        i = next(i for i, row in enumerate(a) if row and (min(row) < 0 or max(row) >= n))
        raise ValueError(f"row {i} has a nonzero entry outside columns 0..{n - 1}")
    low = max([1, *map(sub, compress(range(n), a), lefts)])
    sign = 1
    for k in range(n - 1):
        if k not in a[k]:
            for i in range(k + 1, min(k + 1 + low, n)):
                if k in a[i]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        tail = a[k]
        pivot = tail.pop(k)
        if pivot == -1:
            sign, tail = -sign, {col: -y for col, y in tail.items()}
        elif pivot != 1:
            raise ValueError(f"pivot must be +1 or -1, got {pivot} at step {k}")
        for row in a[k + 1 : k + 1 + low]:
            if k in row:
                factor = row.pop(k)
                for col, y in tail.items():
                    x = row.get(col, 0) - factor * y
                    if x:
                        row[col] = x
                    else:
                        del row[col]
    return sign * a[n - 1].get(n - 1, 0)
