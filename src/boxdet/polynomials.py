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

Division is exact too: :func:`pseudo_rem` divides by a polynomial with a
unit leading coefficient, and :func:`resultant` runs the subresultant
remainder sequence, checking every division it makes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

NEG_INFINITY = float("-inf")


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; ``coeffs[i]`` multiplies ``x**i``.

    Always normalized: the highest stored coefficient is nonzero, and the
    zero polynomial stores no coefficients at all.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
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

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "IntPoly | int") -> "IntPoly":
        return (-self) + other

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
    lb = b.leading_coefficient
    if lb not in (1, -1):
        raise ValueError(f"divisor leading coefficient must be +1 or -1, got {lb}")
    if a.degree < b.degree:
        return a
    # The remainder by -b is the remainder by b, and by a divisor with
    # leading coefficient 1 the pseudo-remainder is the remainder itself.
    monic = b.coeffs if lb == 1 else tuple(-c for c in b.coeffs)
    return IntPoly(tuple(_prem(a.coeffs, monic)))


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Pseudo-remainder of lc(b)**(deg a - deg b + 1) * a modulo b.

    Coefficient lists, ascending, b nonzero and len(a) >= len(b); zero top
    coefficients of a count as steps.  Each step scales by lc(b) only the
    window under the divisor; a coefficient below it takes the scalings it
    missed in one multiplication when it enters.  A step whose top
    coefficient is already zero scales nothing, and the remainder takes
    those scalings at the end.  With lc(b) = 1 there is nothing to scale.
    """
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    lift = 1  # lb ** (steps that scaled the window so far)
    skipped = 0
    for top in range(len(r) - 1, db - 1, -1):
        low = top - db
        if lift != 1:
            r[low] *= lift
        lead = r[top]
        if not lead:
            skipped += 1
        elif lb == 1:
            for i, d in enumerate(b, low):
                r[i] -= lead * d
        else:
            for i, d in enumerate(b, low):
                r[i] = lb * r[i] - lead * d
            lift *= lb
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    if skipped and lb != 1:
        factor = lb**skipped
        r = [c * factor for c in r]
    return r


def _exact_div(values: Iterable[int], divisor: int) -> list[int]:
    out = []
    for v in values:
        q, rem = divmod(v, divisor)
        if rem:
            raise ArithmeticError(
                f"inexact division {v} / {divisor} in the remainder sequence"
            )
        out.append(q)
    return out


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant of two nonzero integer polynomials.

    Res(f, g) = lc(f)**deg(g) * product of g over the roots of f, computed
    exactly over the integers by the subresultant polynomial remainder
    sequence (no root is ever evaluated).  Zero exactly when f and g share
    a root.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant requires nonzero polynomials")
    a, b = f, g
    sign = 1
    if a.degree < b.degree:
        if a.degree % 2 and b.degree % 2:
            sign = -sign
        a, b = b, a
    if b.degree == 0:
        return sign * b.coeffs[0] ** int(a.degree)

    acoeffs, bcoeffs = a.coeffs, b.coeffs
    g_ = 1
    h = 1
    while True:
        da = len(acoeffs) - 1
        db = len(bcoeffs) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        rem = _prem(acoeffs, bcoeffs)
        if not rem:
            return 0  # common factor
        acoeffs = bcoeffs
        bcoeffs = _exact_div(rem, g_ * h**delta)
        g_ = acoeffs[-1]
        if delta:
            h = _exact_div([g_**delta], h ** (delta - 1))[0]
        if len(bcoeffs) - 1 == 0:
            break

    da = len(acoeffs) - 1
    tail = _exact_div([bcoeffs[-1] ** da], h ** (da - 1))[0]
    return sign * tail


def poly_to_json(p: IntPoly) -> str:
    """Ascending coefficients as a JSON array of decimal strings.

    Strings, not numbers, so arbitrarily large coefficients survive any
    JSON reader bit-exactly.  The zero polynomial serializes as ``[]``.
    """
    return json.dumps([str(c) for c in p.coeffs])
