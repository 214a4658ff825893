"""Four independent determinants for box products of paths, plus the
algebraic identity suite that justifies them.

The routes, for the grid graph P_n box P_m:

* direct: 2-colour the grid from its neighbour lists, built from its
  definition; the determinant is 0 when the colour classes differ in
  size, and (-1)**k det(C)**2 when both have k vertices, with C the
  biadjacency matrix.  C's band, of width about min(n, m)/2, is built from
  those lists and eliminated inside over unit pivots, at most about
  (nm/2) * (min(n, m)/2)**2 entry updates (219,648 of that bound's
  1,620,000 at 60 x 60); no nm x nm matrix and no set of the grid's edges
  is built.
* block: det(q_n(-B)) where B is the m-path adjacency matrix and q_n the
  n-path characteristic polynomial, using the block view of the product's
  adjacency matrix over the ring generated by B.  q_n(-B) = U_n(B/2) comes
  from its closed form (the method of images), after n folds onto a step
  count s in -1..m.  Its two parity halves have one determinant up to a
  known sign, so direct's two-block rule gives the sign.  One half H is an
  interval matrix, so det(H)**2 is a union-find pass over its m/2 rows' runs.
* resultant: the product of q_m over the roots of q_n, computed with no
  root ever materialized as (-1)**(n*m) * Res(q_n, q_m), using
  lc(q_n) = (-1)**n.  Each q_k is +-x**(k % 2) times a polynomial H_k in
  z = x**2 - 2, and H_k is a path polynomial of half the index, q_{k//2}
  for odd k, or the difference q_{k//2} - q_{k//2-1} for even k; so the
  remainder sequence runs on those half-degree polynomials, with about
  half the coefficient bits of the halves in x**2, and q_n and q_m are
  never built.  The sign and the 0 for odd nm are direct's two-block
  rule, as for block: q_k(0) = -q_{k-2}(0) gives q_k(0) = (-1)**(k/2)
  for even k, so the constant q_k(0) of the even side, when the other is
  odd, is (-1)**(n*m/2).
* closed: the gcd rule, 0 when gcd(n+1, m+1) > 1, else (-1)**(n*m/2).

All "evaluate at every root of q_k" identities are checked as exact
divisibility by q_k, which is stronger than any pointwise floating check and
needs no eigenvalue formula.
"""
from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache

from ._record import FrozenRecord
from .exact_linalg import bareiss_band_det
from .graphs import biadjacency_band, grid_neighbours
from .polynomials import IntPoly, _mul_into, _rem, _resultant, path_charpoly, resultant

DEFAULT_DIRECT_CEILING = 400
DEFAULT_BLOCK_CEILING = 60

# One row per method, in report order: its DetReport field and JSON key
# (det_<field> is its function), its spelling after --methods, and the
# verify_all keyword of its ceiling, None when it has none.
METHODS = (
    ("direct", "direct", "ceiling"),
    ("block", "block", "block_ceiling"),
    ("resultant", "resultant", None),
    ("closed_form", "closed", None),
)
METHOD_NAMES = tuple(name for name, _, _ in METHODS)

IDENTITY_NAMES = (
    "splitting", "shift", "annihilation", "power", "product_n_plus_1", "symmetry"
)


class SizeLimitError(ValueError):
    """A method was asked to run beyond its configured size ceiling."""


def _require_positive(**params: int) -> None:
    for name, value in params.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


class DetReport(FrozenRecord):
    """Results of every determinant method that ran for one (n, m) pair.

    One field per row of METHODS, in its order, holds that method's value,
    or None when it was skipped (size ceiling) or not asked for.
    ``agree``, derived from the values, holds exactly when all computed
    values coincide.  Elapsed times are wall-clock seconds, and
    ``elapsed=None`` stores a new empty dict.
    """

    __slots__ = ("n", "m", *METHOD_NAMES, "elapsed")

    def __init__(
        self,
        n: int,
        m: int,
        direct: int | None,
        block: int | None,
        resultant: int | None,
        closed_form: int,
        elapsed: dict[str, float] | None = None,
    ) -> None:
        if closed_form not in (-1, 0, 1):
            raise ValueError(f"closed form value out of range: {closed_form}")
        values = (n, m, direct, block, resultant, closed_form)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "elapsed", {} if elapsed is None else elapsed)

    @property
    def agree(self) -> bool:
        return len(set(self.results().values())) <= 1

    def results(self) -> dict[str, int]:
        """Computed values only, keyed by method name."""
        values = {name: getattr(self, name) for name in METHOD_NAMES}
        return {k: v for k, v in values.items() if v is not None}

    def to_json_dict(self) -> dict:
        results = self.results()
        return {
            "n": self.n,
            "m": self.m,
            "results": {
                k: str(results[k]) if k in results else None for k in METHOD_NAMES
            },
            "agree": self.agree,
            "elapsed_ms": {k: v * 1000.0 for k, v in self.elapsed.items()},
        }


class IdentityReport(FrozenRecord):
    """Outcome of one identity check.  ``witness`` is the nonzero residue
    (a polynomial or an integer) when the check failed and None when it
    passed; ``passed`` is derived from it."""

    __slots__ = ("identity", "params", "witness")

    def __init__(
        self, identity: str, params: dict[str, int], witness: IntPoly | int | None = None
    ) -> None:
        if identity not in IDENTITY_NAMES:
            raise ValueError(f"unknown identity name: {identity}")
        for name, value in zip(self.__slots__, (identity, params, witness)):
            object.__setattr__(self, name, value)

    @property
    def passed(self) -> bool:
        return self.witness is None


def _bipartite_det(k0: int, k1: int, det_squared: Callable[[], int]) -> int:
    """Determinant of [[0, C], [C^T, 0]], with C of size k0 x k1: 0 unless
    k0 = k1 = k, since the rank is at most 2 min(k0, k1), and else
    (-1)**k det(C)**2, since swapping the two block rows (k**2
    transpositions) leaves diag(C^T, C).  ``det_squared`` returns det(C)**2
    and is called only when k0 = k1."""
    if k0 != k1:
        return 0
    d2 = det_squared()
    return -d2 if k0 % 2 else d2


def det_direct(n: int, m: int, ceiling: int = DEFAULT_DIRECT_CEILING) -> int:
    """Determinant of the grid adjacency matrix, from the band of its
    biadjacency matrix C, assembled literally from the grid's edges: each
    vertex's neighbours, listed straight from the grid's definition
    (:func:`~boxdet.graphs.grid_neighbours`).

    The grid is bipartite, so in colour-class order its adjacency matrix is
    [[0, C], [C^T, 0]]: singular when the classes differ in size (odd nm),
    and of determinant (-1)**k det(C)**2 when both have k vertices, with
    det(C) by elimination over pivots of +1 and -1, which raises
    ValueError on any other (:func:`_bipartite_det`).  The shorter side
    varies fastest, so vertex (i, j) of the grid, i along the longer side,
    gets label (i-1)*min(n, m) + j and C, its classes numbered in label
    order, has bandwidth about min(n, m)/2.
    Swapping n and m only relabels vertices, a permutation similarity, so
    the determinant is unchanged.
    """
    _require_positive(n=n, m=m)
    if n * m > ceiling:
        raise SizeLimitError(
            f"matrix size {n * m} exceeds the direct-method ceiling of {ceiling}"
        )
    k0, k1, rows = biadjacency_band(grid_neighbours(max(n, m), min(n, m)))
    return _bipartite_det(k0, k1, lambda: bareiss_band_det(rows) ** 2)


def block_runs(n: int, m: int) -> Iterator[tuple[int, int]]:
    """The rows of the parity half of q_n(-B) that :func:`det_block` reads,
    for the m-path adjacency matrix B, from its closed form.

    n folds onto s in -1..m and a sign, since q_k(-B) has period 2(m+1) in
    k and Q_{m+j} = -Q_{m-j}; s has the parity of n.  By the method of
    images, entry (i, j), 1-based, is that sign when j = i + s (mod 2) and
    max(i - s, s - i + 2) <= j <= min(i + s, 2m - s - i), else 0.  The half
    holds the rows i of the parity of n, so its columns are the even j,
    column j at half column j // 2 - 1; it is empty for even n and m = 1.
    Each row is one run of the sign, yielded as the ``(start, end)`` of the
    half columns start..end-1 it covers; det(H)**2 cannot see the sign.
    """
    s = min(k := n % (2 * (m + 1)), 2 * m - k)
    for i in range(2 - n % 2, m + 1, 2):
        yield (max(i - s, s - i + 2) - 1) // 2, (min(i + s, 2 * m - s - i) + 1) // 2


def _runs_det_squared(runs: Iterable[tuple[int, int]], k: int) -> int:
    """det(H)**2 for the k x k matrix H whose r-th row is 1 on columns a..b-1
    of the r-th run (a, b), b <= k.  Taking from each column the one left of
    it leaves rows e_a - e_b, or e_a when b = k: the incidence matrix of the
    edges {a, b} on nodes 0..k with node k grounded, of determinant +-1 for a
    spanning tree and 0 otherwise (the matrix-tree lemma).  Union-find with
    path halving returns 0 at the first empty run or edge closing a cycle."""
    parent = list(range(k + 1))
    for a, b in runs:
        if b <= a:
            return 0
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return 0
        parent[a] = b
    return 1


def det_block(n: int, m: int, ceiling: int = DEFAULT_BLOCK_CEILING) -> int:
    """Block reduction: det q_n(-B) from the half of :func:`block_runs`.

    With the odd indices first, B = [[0, D], [D^T, 0]].  For odd n,
    q_n(-B) is symmetric, [[0, X], [X^T, 0]].  For even n it is
    diag(p(D D^T), p(D^T D)) = diag(Y, Z) for one polynomial p, and as
    D D^T has the eigenvalues of D^T D and, when m is odd, one more 0,
    det Y = p(0)**(m % 2) det Z with p(0) = q_n(0) = (-1)**(n/2).
    Either way det q_n(-B) = (-1)**(nm/2) det(H)**2 for the half H = X or
    Z, and 0 for odd nm: :func:`_bipartite_det` for the grid's colour
    classes of ceil(nm/2) and floor(nm/2) vertices.
    """
    _require_positive(n=n, m=m)
    if m > ceiling:
        raise SizeLimitError(
            f"path size {m} exceeds the block-method ceiling of {ceiling}"
        )
    k0, k1 = (n * m + 1) // 2, n * m // 2
    return _bipartite_det(k0, k1, lambda: _runs_det_squared(block_runs(n, m), m // 2))


def _z_half(k: int) -> tuple[int, ...]:
    """The coefficients of H_k, with q_k(x) = +-x**(k % 2) * H_k(x**2 - 2),
    of degree j = k // 2 and led by (-1)**j: q_j for odd k, the tuple
    path_charpoly(j) holds, and q_j - q_{j-1} for even k (q_{-1} = 0),
    built on every call.  path_charpoly is looked up in this module, so
    that a patched one is seen, and its cache stays the only one holding
    path polynomials; q_k itself is never built.  Raises ArithmeticError
    on any other degree or lead."""
    j = k // 2
    h = path_charpoly(j).coeffs
    if not k % 2:
        below = path_charpoly(j - 1).coeffs if j else ()
        # A list first: tuple() of an iterator with no length hint resizes
        # its guess, and CPython then strands the tuple in a free list.
        h = tuple([a - b for a, b in itertools.zip_longest(h, below, fillvalue=0)])
    if len(h) != j + 1 or h[-1] != (-1) ** j:
        raise ArithmeticError(f"H_{k} is not of degree {j} led by {(-1) ** j}")
    return h


def det_resultant(n: int, m: int) -> int:
    """Root product via the resultant, no roots computed.

    Res(q_n, q_m) = lc(q_n)**m * prod q_m(root) and lc(q_n) = (-1)**n, so
    the determinant (the bare root product) is (-1)**(n*m) * Res(q_n, q_m).
    With t = x/2 and z = x**2 - 2 = 2 T_2(t), the Chebyshev compositions
    U_{2j+1} = 2t U_j(T_2) and U_{2j} = (U_j + U_{j-1})(T_2) give
    q_{2j+1}(x) = (-1)**(j+1) x q_j(z) and
    q_{2j}(x) = (-1)**j (q_j - q_{j-1})(z): q_k = x**(k % 2) F_k(x**2)
    with F_k(y) = (-1)**(j + k % 2) H_k(y - 2), j = k // 2, for the
    half-index halves H_k of :func:`_z_half`.  Three facts follow from
    Res(f, g) = lc(f)**deg g * prod g(roots of f):
    Res(F(x**2), G(x**2)) = Res(F, G)**2, Res(x, g) = g(0) and
    Res(f, x) = (-1)**deg f * f(0).  For odd nm, x divides q_n and q_m and
    the value is 0.  Otherwise it is c * Res(F_n, F_m)**2, with c = q_m(0)
    for odd n, q_n(0) for odd m (deg q_n even), and 1 when both are even;
    (-1)**(n*m) is then 1.  From q_k = -x q_{k-1} - q_{k-2},
    q_k(0) = -q_{k-2}(0), so q_k(0) = (-1)**(k/2) for even k, and c is
    (-1)**(n*m/2) in all three cases: the two-block rule of
    :func:`_bipartite_det` for colour classes of nm/2 vertices, whose
    unequal classes for odd nm give the 0.  The shift y -> z + 2 keeps
    leads and degrees, so Res(F_n, F_m) = +-Res(H_n, H_m), and the squares
    agree: the remainder sequence (``polynomials._resultant``) runs on the
    coefficient tuples of H_n and H_m, built and checked on every call.
    """
    _require_positive(n=n, m=m)
    f, g = _z_half(n), _z_half(m)
    return _bipartite_det((n * m + 1) // 2, n * m // 2, lambda: _resultant(f, g) ** 2)


def det_closed_form(n: int, m: int) -> int:
    """The gcd rule: 0 unless gcd(n+1, m+1) = 1, in which case (-1)**(n*m/2).

    In the coprime branch n*m is provably even (n+1 and m+1 cannot both be
    even); the explicit check below guards this implementation's gcd, not
    the mathematics, and fails loudly if it ever trips.
    """
    _require_positive(n=n, m=m)
    if math.gcd(n + 1, m + 1) != 1:
        return 0
    if (n * m) % 2:
        raise RuntimeError(
            f"gcd({n + 1}, {m + 1}) reported coprime but {n}*{m} is odd; "
            "the gcd implementation is broken"
        )
    return -1 if (n * m // 2) % 2 else 1


def verify_all(
    n: int,
    m: int,
    ceiling: int = DEFAULT_DIRECT_CEILING,
    *,
    block_ceiling: int = DEFAULT_BLOCK_CEILING,
    methods: frozenset[str] | set[str] = frozenset(METHOD_NAMES),
) -> DetReport:
    """Run every requested method, in METHODS order, and compare.

    Each runs as ``det_<name>(n, m)``, plus its row's ceiling if it has
    one, which it checks before doing any work; one that raises
    SizeLimitError is recorded as skipped: its value is None and it has no
    elapsed entry.  The closed form always runs (it is O(log) arithmetic
    and anchors the report).
    """
    _require_positive(n=n, m=m)
    unknown = set(methods) - set(METHOD_NAMES)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")

    ceilings = {"ceiling": ceiling, "block_ceiling": block_ceiling}
    values: dict[str, int | None] = dict.fromkeys(METHOD_NAMES)
    elapsed: dict[str, float] = {}
    for name, _, keyword in METHODS:
        if name not in methods and name != "closed_form":
            continue
        # Looked up by name at each call, so a wrapper rebound over a
        # module-level det_* name sees every call.
        run = globals()["det_" + name]
        args = (n, m) if keyword is None else (n, m, ceilings[keyword])
        start = time.perf_counter()
        try:
            values[name] = run(*args)
        except SizeLimitError:
            continue
        elapsed[name] = time.perf_counter() - start

    return DetReport(n=n, m=m, **values, elapsed=elapsed)


# --- identity checks -------------------------------------------------------
# Each check returns an IdentityReport rather than asserting, so suite
# runners can collect failures with their witnesses.


def check_splitting(k: int) -> IdentityReport:
    """q_k = q_i * q_{k-i} - q_{i-1} * q_{k-i-1} for every i in 1..k-1,
    as an exact polynomial identity (vacuous for k = 1); a failure's
    witness is the difference of the two sides."""
    _require_positive(k=k)
    q = [path_charpoly(j).coeffs for j in range(k + 1)]
    for i in range(1, k):
        r = _mul_into(list(q[k]), q[i], q[k - i], -1)
        _mul_into(r, q[i - 1], q[k - i - 1])
        if any(r):
            return IdentityReport("splitting", {"k": k, "i": i}, IntPoly(r))
    return IdentityReport("splitting", {"k": k})


def _residue_report(identity: str, params: dict, a: Sequence[int]) -> IdentityReport:
    """Whether q_k divides the polynomial of coefficient list a, for
    k = params["k"]; only a failure's remainder, its witness, is an IntPoly."""
    residue = _rem(a, path_charpoly(params["k"]).coeffs)
    return IdentityReport(identity, params, IntPoly(residue) if residue else None)


def check_shift(k: int, s: int) -> IdentityReport:
    """At every root of q_k, q_{k+s} = -q_{k-s}; checked as q_k dividing
    q_{k+s} + q_{k-s}."""
    _require_positive(k=k)
    if not 0 <= s <= k:
        raise ValueError(f"shift must satisfy 0 <= s <= k, got s={s}, k={k}")
    r = list(path_charpoly(k + s).coeffs)
    for i, c in enumerate(path_charpoly(k - s).coeffs):
        r[i] += c
    return _residue_report("shift", {"k": k, "s": s}, r)


def check_annihilation(k: int, t: int) -> IdentityReport:
    """q_{t(k+1)-1} vanishes at every root of q_k; checked as divisibility."""
    _require_positive(k=k, t=t)
    return _residue_report(
        "annihilation", {"k": k, "t": t}, path_charpoly(t * (k + 1) - 1).coeffs
    )


def check_power(k: int, a: int, b: int) -> IdentityReport:
    """At every root of q_k, q_{a(k+1)+b} = q_{k+1}**a * q_b; checked as
    q_k dividing the difference, built by :func:`~boxdet.polynomials._mul_into`
    in a copy of q_{a(k+1)+b}'s coefficients, padded if shorter, and
    divided in full.  The power comes already reduced modulo q_k, as a
    coefficient tuple (:func:`_path_power`), so the product subtracted has
    degree below 2k; q_k divides what the reduction drops, so the residue,
    and any witness, is the remainder of the unreduced difference."""
    _require_positive(k=k, a=a)
    if not 0 <= b <= k:
        raise ValueError(f"offset must satisfy 0 <= b <= k, got b={b}, k={k}")
    r = list(path_charpoly(a * (k + 1) + b).coeffs)
    _mul_into(r, _path_power(k + 1, a), path_charpoly(b).coeffs, -1)
    return _residue_report("power", {"k": k, "a": a, "b": b}, r)


@lru_cache(maxsize=4)
def _path_power(k: int, a: int) -> tuple[int, ...]:
    """The coefficient tuple of q_k**a modulo q_{k-1}, of degree below
    k - 1 and without zero top coefficients: the power that
    check_power(k - 1, a, b) needs once per offset b.  Built as
    _path_power(k, a - 1) times the base q_k mod q_{k-1}, reduced again, so
    no product reaches degree 2(k - 1).  identity_suite runs a upwards
    and b innermost, so the base and the previous power are among the few
    most recent, which are all the cache keeps."""
    q_below = path_charpoly(k - 1).coeffs
    if a == 1:
        return tuple(_rem(path_charpoly(k).coeffs, q_below))
    return tuple(_rem(_mul_into([], _path_power(k, a - 1), _path_power(k, 1)), q_below))


def check_product_n_plus_1(n: int) -> IdentityReport:
    """The product of q_{n+1} over the roots of q_n is (-1)**(n(n+1)/2).

    Since n(n+1) is even, the lc correction (-1)**(n(n+1)) is +1 and the
    claim is exactly Res(q_n, q_{n+1}) = (-1)**(n(n+1)/2).
    """
    _require_positive(n=n)
    res = resultant(path_charpoly(n), path_charpoly(n + 1))
    expected = -1 if (n * (n + 1) // 2) % 2 else 1
    witness = None if res == expected else res
    return IdentityReport("product_n_plus_1", {"n": n}, witness)


def check_symmetry(n: int, m: int) -> IdentityReport:
    """Swapping the two path sizes cannot change the root product (the two
    box products are isomorphic graphs).

    det_resultant squares Res(F_n, F_m), so this check cannot see the sign
    that swapping the arguments of a resultant brings; the argument-swap
    test of ``resultant`` in test_polynomials covers that sign."""
    return _symmetry_report(n, m, det_resultant(n, m), det_resultant(m, n))


def _symmetry_report(n: int, m: int, forward: int, backward: int) -> IdentityReport:
    return IdentityReport("symmetry", {"n": n, "m": m}, forward - backward or None)


# The default size bound of each family, in IDENTITY_NAMES order, and the
# fixed ranges of the annihilation multiplier t and the power exponent a.
SUITE_MAX_K = (30, 20, 15, 10, 20, 8)
MULTIPLIERS = range(1, 6)
EXPONENTS = range(1, 5)


def identity_suite(max_k: int | None = None) -> list[IdentityReport]:
    """Every identity check, family by family in IDENTITY_NAMES order and
    parameters ascending.

    ``max_k`` bounds the size parameter of every family (k, or n and m), as
    ``boxdet identities --max-k`` does; by default each family has its own
    bound from SUITE_MAX_K.  t runs over MULTIPLIERS and a over EXPONENTS.
    A bound below 1 is rejected, since it would pass an empty suite.
    Symmetry reads each det_resultant(n, m) once, from a table for this call.
    """
    if max_k is not None:
        _require_positive(max_k=max_k)
    split, shift, annih, power, prod, sym = (
        SUITE_MAX_K if max_k is None else (max_k,) * len(SUITE_MAX_K)
    )
    sizes = range(1, sym + 1)
    products = {(n, m): det_resultant(n, m) for n in sizes for m in sizes}
    return [
        *(check_splitting(k) for k in range(1, split + 1)),
        *(check_shift(k, s) for k in range(1, shift + 1) for s in range(k + 1)),
        *(check_annihilation(k, t) for k in range(1, annih + 1) for t in MULTIPLIERS),
        *(
            check_power(k, a, b)
            for k in range(1, power + 1)
            for a in EXPONENTS
            for b in range(k + 1)
        ),
        *(check_product_n_plus_1(n) for n in range(1, prod + 1)),
        *(_symmetry_report(n, m, d, products[m, n]) for (n, m), d in products.items()),
    ]
