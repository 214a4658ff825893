"""Independent oracles used only by the tests.

Nothing here shares code with the library paths it checks: the
characteristic polynomial comes from cofactor expansion over
polynomial-entry matrices, polynomials are evaluated at a matrix by Horner's
rule over their coefficients (the check on the block method's matrix
recurrence), eigenvalues come from the known path-spectrum cosine formula,
and random matrices are drawn from a seeded generator.
"""
from __future__ import annotations

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


def matpoly_eval(p: IntPoly, b: IntMatrix) -> IntMatrix:
    """Evaluate an integer polynomial at a square integer matrix.

    Horner's rule: deg(p) matrix multiplications, all exact.  The constant
    term scales the identity (b**0 == I by convention).
    """
    n = b.size
    if p.is_zero:
        return IntMatrix.zeros(n)
    eye = IntMatrix.identity(n)
    result = eye * p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        result = result @ b + eye * c
    return result


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
