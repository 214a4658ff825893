"""Exact integer polynomial arithmetic.

A polynomial is a dense list of arbitrary-precision integer coefficients in
ascending degree order: ``IntPoly((1, 0, -2))`` is ``1 - 2x^2``.  The zero
polynomial is the empty tuple and its degree is ``float("-inf")``, so degree
comparisons behave correctly without a sentinel integer colliding with
degree 0.

The module also provides the characteristic polynomials ``det(A - xI)`` of
path graphs (:func:`path_charpoly`).  They satisfy the recurrence
``q_n = -x * q_{n-1} - q_{n-2}``, solved by the Chebyshev expansion
``q_n = (-1)**n U_n(x/2)``, so q_n is built from its binomial coefficients
in O(n) exactly checked steps, with no earlier q_k kept; a bounded cache
holds the most recently used values.  Under this determinant convention the
leading coefficient of the n-vertex path polynomial is ``(-1)**n``, not +1;
that fact is asserted on every value rather than assumed.

Division is exact too, and only by divisors led by +1 or -1, as every
path polynomial is: :func:`pseudo_rem` returns such a remainder, and
:func:`resultant` runs Euclid's algorithm over them, raising ValueError on
a remainder led by anything else.  Both rest on ``_rem``, which rejects
such a divisor, negates one led by -1 once and then walks only its nonzero
terms, about half of a path polynomial's.
"""
from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from functools import lru_cache

from ._record import FrozenRecord

NEG_INFINITY = float("-inf")


class IntPoly(FrozenRecord):
    """Dense integer polynomial; ``coeffs[i]`` multiplies ``x**i``.

    Always normalized: the highest stored coefficient is nonzero, and the
    zero polynomial stores no coefficients at all.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        coeffs = tuple(coeffs)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", coeffs[:end])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def leading_coefficient(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return IntPoly(tuple(summed))

    __radd__ = __add__

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        diff = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            diff[i] -= c
        return IntPoly(tuple(diff))

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        # Path polynomials vanish at every other degree, so skip zero
        # coefficients in both factors.
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPoly":
        if exponent < 0:
            raise ValueError("polynomial exponent must be >= 0")
        result = ONE
        base = self
        k = exponent
        while True:
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base


ZERO = IntPoly(())
ONE = IntPoly((1,))


@lru_cache(maxsize=256)
def path_charpoly(n: int) -> IntPoly:
    """Characteristic polynomial ``det(A - xI)`` of the path on n vertices.

    n=0 gives 1 (the empty-matrix determinant) and n=1 gives -x; in general
    the coefficient of ``x**(n-2k)`` is ``(-1)**(n-k) C(n-k, k)``.  Each
    binomial comes from the one before by
    ``C(n-k, k) = C(n-k+1, k-1) (n-2k+2)(n-2k+1) / (k(n-k+1))``, and every
    such division is checked to be exact.  The 256 most recently used values
    are cached (``path_charpoly.cache_info()``); the cache is thread-safe.
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    coeffs = [0] * (n + 1)
    coeffs[n] = -1 if n % 2 else 1
    binom = 1  # C(n-k, k)
    for k in range(1, n // 2 + 1):
        binom, rest = divmod(binom * (n - 2 * k + 2) * (n - 2 * k + 1), k * (n - k + 1))
        if rest:
            raise ArithmeticError(f"inexact binomial step at n={n}, k={k}")
        coeffs[n - 2 * k] = -binom if (n - k) % 2 else binom
    q = IntPoly(tuple(coeffs))
    assert q.degree == n and q.leading_coefficient == (-1) ** n
    return q


def pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact remainder of a modulo b when b has a unit leading coefficient.

    Because lc(b) is +1 or -1, schoolbook division stays in the integers and
    the remainder r is the unique polynomial with deg r < deg b and
    a = q*b + r over the integers.  Divisibility of a by b is then just
    ``pseudo_rem(a, b).is_zero``.
    """
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    return IntPoly(tuple(_rem(a.coeffs, b.coeffs)))


def _rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a mod b for ascending coefficient lists, b led by +1 or -1; any
    other lead raises ValueError.

    A divisor led by -1 is negated once, since the remainder by -b is the
    remainder by b.  Each step then subtracts only b's nonzero terms below
    its leading one; the top coefficient that term would cancel is dropped
    at the end, with every column at or above deg b.
    """
    if b[-1] not in (1, -1):
        raise ValueError(f"divisor leading coefficient must be +1 or -1, got {b[-1]}")
    if b[-1] == -1:
        b = [-d for d in b]
    db = len(b) - 1
    terms = [(j, d) for j, d in enumerate(b[:-1]) if d]
    r = list(a)
    for top in range(len(r) - 1, db - 1, -1):
        lead = r[top]
        if lead:
            low = top - db
            for j, d in terms:
                r[low + j] -= lead * d
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    return r


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant of two nonzero integer polynomials, by Euclid's algorithm.

    Res(f, g) = lc(f)**deg(g) * product of g over the roots of f.  Each step
    takes r = a mod b and uses
    Res(a, b) = (-1)**(deg a * deg b) * lc(b)**(deg a - deg r) * Res(b, r),
    so no root is ever evaluated.  Every divisor must be led by +1 or -1, as
    on path polynomials; any other lead raises ValueError.  Zero exactly
    when f and g share a root.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant requires nonzero polynomials")
    a, b = f.coeffs, g.coeffs
    sign = 1
    if len(a) < len(b):
        a, b, sign = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1))
    while len(b) > 1:
        r = _rem(a, b)
        if not r:
            return 0  # common factor
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        if b[-1] == -1 and (len(a) - len(r)) % 2:
            sign = -sign
        a, b = b, r
    return sign * b[0] ** (len(a) - 1)


def poly_to_json(p: IntPoly) -> str:
    """Ascending coefficients as a JSON array of decimal strings.

    Strings, not numbers, so arbitrarily large coefficients survive any
    JSON reader bit-exactly.  The zero polynomial serializes as ``[]``.
    """
    return json.dumps([str(c) for c in p.coeffs])
