"""Exact integer polynomial arithmetic.

Inside the package a polynomial is a dense sequence, a tuple or a list, of
arbitrary-precision integer coefficients in ascending degree order:
``(1, 0, -2)`` is ``1 - 2x^2``.  ``_mul_into`` adds a product into a list,
skipping zero coefficients, and ``_rem`` divides.  :class:`IntPoly` is the
normalised record at the API, with no arithmetic operators: it stores no
zero top coefficient, so the zero polynomial stores the empty tuple, and its
degree is ``float("-inf")``, so degree comparisons behave correctly without
a sentinel integer colliding with degree 0.

The module also provides the characteristic polynomials ``det(A - xI)`` of
path graphs (:func:`path_charpoly`).  They satisfy the recurrence
``q_n = -x * q_{n-1} - q_{n-2}``, solved by the Chebyshev expansion
``q_n = (-1)**n U_n(x/2)``, so q_n is built from its binomial coefficients
in O(n) exactly checked steps, with no earlier q_k kept; a bounded cache
holds the most recently used values.  Under this determinant convention the
leading coefficient of the n-vertex path polynomial is ``(-1)**n``, not +1;
that fact is asserted on every value rather than assumed.

Division is exact too, and only by divisors led by +1 or -1, as every
path polynomial is.  ``_rem`` returns such a remainder, and
:func:`resultant` runs Euclid's algorithm over them, raising ValueError on
a remainder led by anything else.  ``_rem`` rejects such a divisor,
negates one led by -1 once and then walks only its nonzero terms, about
half of a path polynomial's.  It keeps that prepared form for the last
tuple divisor, matched by identity, so the identity suite's many dividends
by one q_k check and scan it once; a list is prepared on every call.

Path polynomials keep that contract, argued here for either parity.
Write q_k(x) = x**(k % 2) * F_k(x**2), with q_{-1} = 0, so F_{-1} = 0.
Modulo q_s the q_j follow the recurrence, and the shift identity
q_{s+t} = -q_{s-t} (mod q_s), 0 <= t <= s, gives q_{2s} = -1 and
q_{2s-1} = x, so q_{2s+1} = 0 and q_{2s+2} = 1: the starting pair
(q_{-1}, q_0) again, and q_l mod q_s has period 2(s+1) in l.  So for
k = l mod 2(s+1), q_s divides q_l - e*q_j, with (e, j) = (+1, k) when
k <= s and (-1, 2s-k) otherwise; j has l's parity, so that difference is
x**(l % 2) * G(x**2) with G = F_l - e*F_j.  F_s(x**2) divides q_s, hence
x**(l % 2) * G(x**2), and is prime to x, as F_s(0) is +-1 for even s and
+-(s+1)/2 for odd s; so it divides G(x**2).  F_s is led by +-1, so
G = Q*F_s + R over the integers with deg R < deg F_s; F_s(x**2) divides
R(x**2), so R = 0 and F_l mod F_s = e*F_j mod F_s, of either parity.
F_j has degree j // 2, below s // 2 unless j = s, where the remainder is
0 as for j = -1, or s is odd, l even and j = s - 1: then
F_{s-1} = -F_s - F_{s-2}, the recurrence at odd s, and the remainder is
-e*F_{s-2}.  Euclid divides only by halves of positive degree, s >= 2,
and by -F_s as by F_s, so each remainder of :func:`resultant` on two
halves is, up to sign, a half led by +1 or -1, the next divisor.
The halves the resultant method divides are these shifted, H_k(z) =
+-F_k(z + 2) in z = x**2 - 2, each a path polynomial of half the index
(see ``det_methods``).  The shift y -> z + 2 is a ring automorphism that
keeps degrees and leading coefficients, so F_l = Q*F_s + R shifts to
H_l = +-Q(z + 2)*H_s +- R(z + 2) with deg R(z + 2) < deg H_s: H_l mod
H_s is +-R(z + 2), 0 or the shift of +-F_j, that is +-H_j, and Euclid
on two z-halves meets, up to sign, only z-halves led by +1 or -1.  The
rule stays in documentation and tests: picking the index by it would
compute the gcd of the indices, the closed form's route, and
:func:`resultant` would no longer check anything independently.
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
    zero polynomial stores no coefficients at all.  A record, with no
    arithmetic operators.
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


# The last tuple divisor _rem saw, with its length less one and its terms
# below the lead, negated when it is led by -1: (b, db, terms).  Matched by
# identity, and held, so that no other tuple can take its id; a tuple cannot
# change, so the prepared form stays right while it is held.
_prepared: tuple = (None, 0, [])


def _rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a mod b for ascending coefficient lists, b nonempty and led by +1
    or -1; any other lead raises ValueError.

    With a unit lead, division stays in the integers: r is the unique
    polynomial with deg r < deg b and a = q*b + r, so a shorter a is its
    own remainder.  A divisor led by -1 is negated once, since the
    remainder by -b is the remainder by b.  Each step then subtracts only
    b's nonzero terms below its leading one; the top coefficient that term
    would cancel is dropped at the end, with every column at or above
    deg b.  The last tuple divisor stays prepared; a list, which can change
    between calls, is prepared on every call.
    """
    global _prepared
    last, db, terms = _prepared
    if b is not last:
        lead = b[-1]
        if lead not in (1, -1):
            raise ValueError(f"divisor leading coefficient must be +1 or -1, got {lead}")
        db = len(b) - 1
        terms = [(j, d) for j, d in enumerate(b[:-1]) if d]
        if lead == -1:
            terms = [(j, -d) for j, d in terms]
        if type(b) is tuple:
            _prepared = (b, db, terms)
    r = list(a)
    for top in range(len(r) - 1, db - 1, -1):
        lead = r[top]
        if lead:
            low = top - db
            for j, d in terms:
                r[low + j] -= lead * d
    del r[db:]
    if not any(r):
        return []
    while r[-1] == 0:
        r.pop()
    return r


def _mul_into(r: list[int], a: Sequence[int], b: Sequence[int], scale: int = 1) -> list[int]:
    """Add scale * a * b into r, in place, for ascending coefficient
    sequences, and return r, first padded with zeros to the product's
    length.  Path polynomials vanish at every other degree, so zero
    coefficients of both factors are skipped."""
    r += [0] * (len(a) + len(b) - 1 - len(r))
    terms = [(j, d * scale) for j, d in enumerate(b) if d]
    for i, c in enumerate(a):
        if c:
            for j, d in terms:
                r[i + j] += c * d
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
    return _resultant(f.coeffs, g.coeffs)


def _resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """:func:`resultant` on ascending coefficient sequences, each nonempty
    with a nonzero last coefficient."""
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
