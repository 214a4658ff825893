"""How fast the host runs right now, measured by a frozen reference kernel.

The shared hosts this benchmark runs on change speed by up to a factor of
two over seconds to minutes (other tenants share the cores), and their CPUs
differ in speed and drift partly apart, which swamps the differences a
benchmark is meant to show.  So the
benchmark keeps to one CPU, and every operation is bracketed by runs of a
fixed kernel that does the same kinds of work as boxdet (fraction-free
elimination on small-integer rows, big-integer matrix products, a
polynomial coefficient recurrence) but never changes with the program.  An
operation's time is scaled by REFERENCE_S over the mean kernel time around
it: the times reported are those of a host that runs the kernel in
REFERENCE_S, and raw times are kept beside them.
"""
from __future__ import annotations

import gc
import time

REFERENCE_S = 0.007  # kernel time on a shared 2-vCPU VM in a slow spell


def _eliminate() -> int:
    n, m = 6, 7
    size = n * m
    rows = [
        [int(abs(i // m - j // m) + abs(i % m - j % m) == 1) for j in range(size)]
        for i in range(size)
    ]
    for i in range(size):
        rows[i][i] = 3
    prev = 1
    for k in range(size - 1):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(k + 1, size):
            row = rows[i]
            factor = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
        prev = pivot
    return rows[-1][-1]


def _matmul() -> int:
    m = 10
    big = 7**300
    a = [[(i * m + j) * big for j in range(m)] for i in range(m)]
    cols = [[int(abs(i - j) == 1) for i in range(m)] for j in range(m)]
    for _ in range(6):
        a = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return a[0][0]


def _recurrence() -> int:
    q = [[1], [0, -1]]
    for _ in range(2, 120):
        c = [0] + [-x for x in q[-1]]
        for i, x in enumerate(q[-2]):
            c[i] -= x
        q.append(c)
    return q[-1][0]


def sample() -> float:
    """Seconds the kernel takes now, with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _eliminate()
        _matmul()
        _recurrence()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
