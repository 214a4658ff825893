"""The four determinant methods, their agreement, and the identity suite."""
from __future__ import annotations

import gc
import inspect
import itertools
import math
import operator
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    ONE,
    X,
    ZERO,
    IntMatrix,
    add,
    adjacency_matrix,
    box_product_by_definition,
    cofactor_det,
    convolve,
    dense_bareiss_det,
    dense_prem,
    dense_rem,
    expand_block_band,
    grid_eigenvalue_product,
    matpoly_eval,
    parity_half,
    path,
    recurrence_block_matrices,
    repeated_power,
    scale_rows,
    sub,
    sylvester_matrix,
    sylvester_resultant,
)
from boxdet.det_methods import (
    DEFAULT_BLOCK_CEILING,
    EXPONENTS,
    IDENTITY_NAMES,
    METHOD_NAMES,
    METHODS,
    DetReport,
    IdentityReport,
    SizeLimitError,
    _path_power,
    _runs_det_squared,
    _square_half,
    block_runs,
    check_annihilation,
    check_power,
    check_product_n_plus_1,
    check_shift,
    check_splitting,
    check_symmetry,
    det_block,
    det_closed_form,
    det_direct,
    det_resultant,
    identity_suite,
    verify_all,
)
from boxdet.exact_linalg import bareiss_band_det
from boxdet.polynomials import (
    IntPoly,
    _resultant,
    path_charpoly,
    resultant,
)


class TestFrozenValues:
    def test_det_direct(self):
        assert det_direct(1, 1) == 0
        assert det_direct(1, 2) == -1
        assert det_direct(4, 4) == 0

    def test_det_block(self):
        assert det_block(2, 2) == 0
        assert det_block(1, 2) == -1
        assert det_block(3, 4) == 1

    def test_det_resultant(self):
        assert det_resultant(1, 2) == -1
        assert det_resultant(2, 2) == 0
        assert det_resultant(2, 3) == -1

    def test_det_closed_form(self):
        assert det_closed_form(5, 5) == 0
        assert det_closed_form(2, 3) == -1
        assert det_closed_form(1, 1) == 0
        assert det_closed_form(100, 101) == 1

    def test_positivity_preconditions(self):
        for fn in (det_direct, det_block, det_resultant, det_closed_form):
            with pytest.raises(ValueError):
                fn(0, 3)
            with pytest.raises(ValueError):
                fn(3, 0)


class TestCeiling:
    def test_default_ceiling_names_the_limit(self):
        with pytest.raises(SizeLimitError, match="400"):
            det_direct(21, 20)

    def test_custom_ceiling(self):
        with pytest.raises(SizeLimitError, match="3"):
            det_direct(2, 2, ceiling=3)
        assert det_direct(2, 2, ceiling=4) == 0

    def test_size_limit_is_a_value_error(self):
        assert issubclass(SizeLimitError, ValueError)

    def test_block_default_ceiling_names_the_limit(self):
        with pytest.raises(SizeLimitError, match="60"):
            det_block(1, 61)
        assert det_block(1, 60) == det_closed_form(1, 60)

    def test_block_custom_ceiling(self):
        with pytest.raises(SizeLimitError, match="3"):
            det_block(2, 4, ceiling=3)
        assert det_block(1, 61, ceiling=61) == det_closed_form(1, 61)


def _up_to_sign(half: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """The dense half and its negation: q_n(-B)'s half is one of the two."""
    return half, scale_rows(-1, half)


def _interval_case(k: int):
    """k runs over the columns 0..k-1, as the edges {a, b}, a < b, of a
    spanning tree on the nodes 0..k: in a random order of the nodes, each
    node after the first is joined to a random earlier one.  When
    ``broken`` < k, that run is then replaced by two arbitrary ends.  Each
    row gets a sign."""
    return st.tuples(
        st.permutations(range(k + 1)),
        st.tuples(*(st.integers(0, i - 1) for i in range(1, k + 1))),
        st.integers(0, 2 * k),
        st.tuples(st.integers(0, k), st.integers(0, k)),
        st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k),
    )


class TestBlockRecurrence:
    """The closed-form parity half of q_n(-B) against the matrix recurrence
    and Horner's rule, the two-block rule on the recurrence's matrices, the
    union-find route against elimination, and det_block against the closed
    form."""

    def test_matches_horner_through_two_periods(self):
        """n runs over two full periods 2(m+1), so the folded step count is
        checked on both sides of every wrap, 0 included."""
        for m in range(1, 13):
            minus_b = scale_rows(-1, adjacency_matrix(path(m)).rows)
            for n in range(1, 4 * (m + 1)):
                horner = matpoly_eval(path_charpoly(n), minus_b)
                half = expand_block_band(block_runs(n, m), m)
                assert parity_half(horner, n) in _up_to_sign(half), (n, m)
                assert det_block(n, m) == dense_bareiss_det(IntMatrix(horner)), (n, m)

    def test_matches_the_recurrence_up_to_the_default_ceiling(self):
        for m in range(1, DEFAULT_BLOCK_CEILING + 1):
            matrices = recurrence_block_matrices(m)
            for n, expected in itertools.islice(enumerate(matrices), 1, 4 * (m + 1)):
                half = expand_block_band(block_runs(n, m), m)
                assert parity_half(expected, n) in _up_to_sign(half), (n, m)

    def test_every_stored_entry_lies_in_its_half(self):
        """Every run of a half row lies inside the half: no nonempty run
        starts left of its first column or runs past its last one, and no
        entry lies farther than max(1, ceil(s/2)) from the half's diagonal
        on either side, since Q_s has bandwidth |s|."""
        for m in range(1, 13):
            for n in range(1, 4 * (m + 1)):
                k = n % (2 * (m + 1))
                s = k if k <= m else 2 * m - k
                runs = list(block_runs(n, m))
                width = max(1, (s + 1) // 2)
                assert len(runs) == (m + n % 2) // 2, (n, m)  # i = 2 - n % 2, ... <= m
                for r, (start, end) in enumerate(runs):
                    assert 0 <= start and max(start, end) <= m // 2, (n, m, r)
                    for c in range(start, end):
                        assert abs(r - c) <= width, (n, m, r, c)

    def test_union_find_matches_elimination_of_the_half(self):
        """For every n in one period and every m up to the default ceiling,
        det(H)**2 by union-find over the runs equals the square of the dense
        elimination of the expanded half, for each even nm (the half is
        square exactly then)."""
        for m in range(1, DEFAULT_BLOCK_CEILING + 1):
            for n in range(1, 2 * (m + 1) + 1):
                if n * m % 2:
                    continue
                half = expand_block_band(block_runs(n, m), m)
                expected = dense_bareiss_det(IntMatrix(half)) ** 2 if half else 1
                assert _runs_det_squared(block_runs(n, m), m // 2) == expected, (n, m)

    @settings(deadline=None)
    @given(st.integers(1, 12).flatmap(_interval_case))
    def test_union_find_on_random_interval_matrices(self, case):
        """Square matrices whose rows are runs of one sign, against dense
        elimination and, up to size 10, cofactor expansion.  Unbroken cases
        are spanning trees, of determinant +-1; the broken run may be empty,
        reversed or close a cycle.  Every unbroken case has a run that ends at
        column k, the grounded node."""
        order, picks, broken, ends, signs = case
        k = len(picks)
        runs = [tuple(sorted((order[i], order[j]))) for i, j in enumerate(picks, 1)]
        if broken < k:
            runs[broken] = ends
        dense = [
            [sign if a <= c < b else 0 for c in range(k)]
            for (a, b), sign in zip(runs, signs)
        ]
        value = _runs_det_squared(iter(runs), k)
        assert value == dense_bareiss_det(IntMatrix(dense)) ** 2
        if k <= 10:
            assert value == cofactor_det(IntMatrix(dense)) ** 2

    def test_even_half_is_the_odd_half_transposed_for_odd_n(self):
        """For odd n, q_n(-B) is [[0, X], [X^T, 0]] with the odd indices
        first: rows and columns of one parity meet only zeros, and the even
        rows over the odd columns are the transpose of the odd rows over
        the even columns."""
        for m in range(1, 21):
            matrices = recurrence_block_matrices(m)
            for n, q in itertools.islice(enumerate(matrices), 1, 2 * (m + 1) + 1, 2):
                for h in (0, 1):
                    assert not any(x for row in q[h::2] for x in row[h::2]), (n, m)
                x = [row[1::2] for row in q[0::2]]
                y = [row[0::2] for row in q[1::2]]
                assert y == [list(col) for col in zip(*x)], (n, m)

    def test_halves_share_one_determinant_up_to_q_n_0_for_even_n(self):
        """For even n, q_n(-B) is diag(Y, Z) with the odd indices first, and
        det Y = q_n(0)**(m % 2) det Z with q_n(0) = (-1)**(n/2): Y and Z are
        one polynomial in D D^T and in D^T D, which share their nonzero
        eigenvalues, and D D^T has one more, 0, when m is odd."""

        def det(rows):
            return dense_bareiss_det(IntMatrix(rows)) if rows else 1

        for m in range(1, 41):
            matrices = recurrence_block_matrices(m)
            for n, q in itertools.islice(enumerate(matrices), 2, 2 * (m + 1) + 1, 2):
                for h in (0, 1):
                    assert not any(x for row in q[h::2] for x in row[1 - h :: 2]), (n, m)
                y = [row[0::2] for row in q[0::2]]
                z = [row[1::2] for row in q[1::2]]
                sign = -1 if (n // 2) * (m % 2) % 2 else 1
                assert det(y) == sign * det(z), (n, m)

    def test_core_runs_once_for_even_nm_and_never_for_odd_nm(self, monkeypatch):
        """Every n reads one half of m // 2 runs over m // 2 columns, and odd
        nm nothing."""
        import boxdet.det_methods as dm

        calls = []

        def spy(runs, k):
            runs = list(runs)
            calls.append((len(runs), k))
            return _runs_det_squared(runs, k)

        monkeypatch.setattr(dm, "_runs_det_squared", spy)
        for m in range(1, 21):
            for n in range(1, 2 * (m + 1) + 1):
                calls.clear()
                assert det_block(n, m) == det_closed_form(n, m), (n, m)
                assert calls == ([] if n * m % 2 else [(m // 2, m // 2)]), (n, m)

    def test_never_reaches_the_elimination_core(self, monkeypatch):
        import boxdet.det_methods as dm
        import boxdet.exact_linalg as el

        def fail(rows):
            raise AssertionError("det_block called bareiss_band_det")

        monkeypatch.setattr(dm, "bareiss_band_det", fail)
        monkeypatch.setattr(el, "bareiss_band_det", fail)
        for m in range(1, 21):
            for n in range(1, 2 * (m + 1) + 1):
                assert det_block(n, m) == det_closed_form(n, m), (n, m)

    def test_agrees_with_closed_form_through_two_periods_up_to_the_ceiling(self):
        for m in range(1, DEFAULT_BLOCK_CEILING + 1):
            for n in range(1, 4 * (m + 1) + 1):
                assert det_block(n, m) == det_closed_form(n, m), (n, m)

    @given(st.integers(1, 10**12), st.integers(1, 20))
    def test_agrees_with_closed_form_at_any_n(self, n, m):
        assert det_block(n, m) == det_closed_form(n, m)

    def test_cost_does_not_grow_with_n(self):
        start = time.perf_counter()
        assert det_block(10**12, 40) == det_closed_form(10**12, 40) == 1
        assert time.perf_counter() - start < 1.0

    def test_cost_is_linear_in_m(self):
        """At (500, 1000) the folded step count is s = 500, so elimination of
        the half would take about m s**2 / 8 = 3 * 10**7 steps; union-find
        takes about m / 2."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            value = det_block(500, 1000, ceiling=10**4)
            best = min(best, time.perf_counter() - start)
        assert value == det_closed_form(500, 1000) == 1
        assert best < 0.05

    def test_memory_follows_the_step_count_not_m_squared(self):
        """Past the default ceiling, det_block(4, 3000) reads the 1500 runs
        of one half of q_4(-A(P_3000)) one at a time into a union-find
        parent list of 1501 entries; an m x m matrix would hold 9 million."""
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert det_block(4, 3000, ceiling=3000) == det_closed_form(4, 3000) != 0
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert elapsed < 2.0


class TestDirectBand:
    def test_cost_past_the_default_ceiling(self):
        """Banded elimination keeps N = 2000 within seconds, in either
        orientation of the arguments."""
        start = time.perf_counter()
        assert det_direct(100, 20, ceiling=2000) == det_closed_form(100, 20)
        assert det_direct(20, 100, ceiling=2000) == det_closed_form(20, 100)
        assert time.perf_counter() - start < 10.0

    def test_long_strip_memory_and_time(self):
        """5 x 2000, far past the default ceiling: the band of the
        biadjacency matrix holds about nm * min(n, m) / 4 entries where the
        dense adjacency matrix would hold (nm)**2.  Both orientations build
        the same band; memory is traced apart from the timing, since tracing
        every allocation slows the run tenfold."""
        start = time.perf_counter()
        assert det_direct(5, 2000, ceiling=10**4) == det_closed_form(5, 2000)
        assert det_direct(2000, 5, ceiling=10**4) == det_closed_form(2000, 5)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            det_direct(5, 2000, ceiling=10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 2.0
        assert peak < 32 * 2**20

    def test_orientation_does_not_change_the_value(self):
        for n in range(1, 13):
            for m in range(1, 13):
                assert det_direct(n, m) == det_direct(m, n), (n, m)

    def test_agrees_with_the_whole_adjacency_matrix_up_to_12(self):
        for n in range(1, 13):
            for m in range(1, 13):
                grid = box_product_by_definition(path(n), path(m))
                whole = dense_bareiss_det(adjacency_matrix(grid))
                assert det_direct(n, m) == whole, (n, m)

    def test_core_runs_once_on_half_the_grid_and_only_for_even_nm(self, monkeypatch):
        import boxdet.det_methods as dm

        sizes = []

        def spy(rows):
            sizes.append(len(rows))
            return bareiss_band_det(rows)

        monkeypatch.setattr(dm, "bareiss_band_det", spy)
        for n in range(1, 13):
            for m in range(1, 13):
                sizes.clear()
                det_direct(n, m)
                assert sizes == ([] if n * m % 2 else [n * m // 2]), (n, m)

    def test_builds_the_grid_once_from_n_and_m(self, monkeypatch):
        """direct assembles the grid once, as neighbour lists built from
        the two side lengths, the longer one giving the rows."""
        import boxdet.det_methods as dm
        import boxdet.graphs as graphs

        calls = []

        def spy(n, m):
            calls.append((n, m))
            return graphs.grid_neighbours(n, m)

        monkeypatch.setattr(dm, "grid_neighbours", spy)
        for n, m in ((1, 7), (7, 1), (4, 5), (5, 4), (19, 21), (20, 20)):
            calls.clear()
            assert det_direct(n, m) == det_closed_form(n, m), (n, m)
            assert calls == [(max(n, m), min(n, m))], (n, m)


def _squared(p: IntPoly) -> IntPoly:
    """p(x**2)."""
    return IntPoly(tuple(c for a in p.coeffs for c in (a, 0)))


def _checked_resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) from the Sylvester oracle, which takes any nonzero f and g,
    checked against cofactor expansion of the Sylvester matrix wherever
    that matrix has size 1 to 10."""
    value = sylvester_resultant(f, g)
    if 1 <= f.degree + g.degree <= 10:
        assert value == cofactor_det(sylvester_matrix(f, g)), (f, g)
    return value


# Integer polynomials of degree 0 to 3, with a nonzero leading coefficient.
small_int_polys = st.tuples(
    st.lists(st.integers(-5, 5), max_size=3),
    st.integers(-5, 5).filter(bool),
).map(lambda parts: IntPoly((*parts[0], parts[1])))


class TestResultantHalves:
    def test_matches_the_full_route_up_to_60(self):
        for n in range(1, 61):
            for m in range(1, 61):
                full = (-1) ** (n * m) * resultant(path_charpoly(n), path_charpoly(m))
                assert det_resultant(n, m) == full, (n, m)

    def test_library_resultant_on_every_half_pair_up_to_24(self):
        """The inputs det_resultant hands to resultant, against the Sylvester
        oracle: every remainder of these sequences is led by +1 or -1."""
        halves = {k: IntPoly(_square_half(k)) for k in range(1, 25)}
        for n, f in halves.items():
            for m, g in halves.items():
                assert resultant(f, g) == sylvester_resultant(f, g), (n, m)

    def test_one_half_degree_sequence_for_even_nm_and_none_for_odd_nm(
        self, monkeypatch
    ):
        import boxdet.det_methods as dm

        degrees = []

        def spy(f, g):
            degrees.append((len(f) - 1, len(g) - 1))
            return _resultant(f, g)

        monkeypatch.setattr(dm, "_resultant", spy)
        for n in range(1, 31):
            for m in range(1, 31):
                degrees.clear()
                assert det_resultant(n, m) == det_closed_form(n, m), (n, m)
                assert degrees == ([] if n * m % 2 else [(n // 2, m // 2)]), (n, m)

    def test_every_remainder_is_plus_or_minus_a_path_half(self, monkeypatch):
        """Every nonzero remainder of the sequence det_resultant runs is +F_j
        or -F_j for some path half F_j.  A fact about path polynomials that
        this test asserts; no code path relies on it."""
        import boxdet.polynomials as polynomials

        halves = {_square_half(j) for j in range(40)}
        halves |= {tuple(-c for c in h) for h in halves}
        rem = polynomials._rem
        seen = []

        def spy(a, b):
            r = rem(a, b)
            seen.append(tuple(r))
            return r

        monkeypatch.setattr(polynomials, "_rem", spy)
        count = 0
        for n in range(1, 40):
            for m in range(1, 40):
                seen.clear()
                det_resultant(n, m)
                assert all(r in halves for r in seen if r), (n, m)
                count += sum(map(bool, seen))
        assert count > 1000

    def test_remainder_is_the_half_the_fold_names(self):
        """For s >= 2, l != s with deg F_l >= deg F_s, and k = l mod 2(s+1),
        F_l mod F_s is +F_k when k <= s and -F_{2s-k} otherwise, 0 when that
        index is s or -1 (F_{-1} = 0), of either parity; but for odd s, even
        l and index s - 1, it is the opposite sign times F_{s-2}: the rule
        argued in the polynomials module from the shift identity and the
        period 2(s+1).  Asserted here only; no code path picks the index."""
        halves = {j: _square_half(j) for j in range(240)}
        count = exceptions = 0
        for s in range(2, 60):
            for l in range(240):
                if l == s or l // 2 < s // 2:
                    continue
                k = l % (2 * (s + 1))
                sign, j = (1, k) if k <= s else (-1, 2 * s - k)
                if s % 2 and not l % 2 and j == s - 1:
                    sign, j = -sign, s - 2
                    exceptions += 1
                named = [] if j in (s, -1) else [sign * c for c in halves[j]]
                assert dense_rem(halves[l], halves[s]) == named, (l, s)
                count += 1
        assert (count, exceptions) == (12_122, 360)

    def test_last_divisor_has_the_degree_of_the_index_gcd(self, monkeypatch):
        """The last divisor Euclid meets on the halves of q_n and q_m, for
        even nm, has degree (gcd(n+1, m+1) - 1) // 2, since the gcd of q_n
        and q_m is q_{gcd(n+1, m+1) - 1} up to sign: of degree 0 exactly
        when the closed form is nonzero.  Asserted here only."""
        import boxdet.polynomials as polynomials

        rem = polynomials._rem
        steps = []

        def spy(a, b):
            r = rem(a, b)
            steps.append((len(b) - 1, len(r) - 1))
            return r

        monkeypatch.setattr(polynomials, "_rem", spy)
        count = 0
        for n in range(1, 60):
            for m in range(1, 60):
                if n * m % 2:
                    continue
                steps.clear()
                det_resultant(n, m)
                # No step: one half is a constant.  Else Euclid stopped at a
                # zero remainder, or at a constant one.
                divisor, r = steps[-1] if steps else (0, 0)
                degree = divisor if r < 0 else r
                assert degree == (math.gcd(n + 1, m + 1) - 1) // 2, (n, m)
                assert (degree == 0) == (det_closed_form(n, m) != 0), (n, m)
                count += 1
        assert count == 2_581

    def test_rejects_a_coefficient_of_the_other_parity(self, monkeypatch):
        """Also when both q_k are already cached: _square_half reads
        path_charpoly through det_methods on every call, so a patched one
        is seen, and the unpatched one again once it is back."""
        import boxdet.det_methods as dm

        f, g = _square_half(4), _square_half(3)
        with monkeypatch.context() as patch:
            patch.setattr(dm, "path_charpoly", lambda k: add(path_charpoly(k), X))
            with pytest.raises(ArithmeticError):
                det_resultant(4, 3)
        assert _square_half(4) == f and _square_half(3) == g

    def test_halves_keep_no_path_polynomial_alive(self):
        """After det_resultant reads 256 halves and path_charpoly then
        computes 256 other q_k, the memory still held is that of the q_k in
        path_charpoly's cache, its only store of path polynomials, with
        room for the cache's own bookkeeping.  A half is a slice of q_k's
        coefficient tuple."""

        def size(q):
            # A zero coefficient is the one shared 0 object.
            return sys.getsizeof(q) + sys.getsizeof(q.coeffs) + sum(
                sys.getsizeof(c) for c in q.coeffs if c
            )

        path_charpoly.cache_clear()
        tracemalloc.start()
        try:
            for k in range(256, 512):
                det_resultant(2, k)
            for k in range(256):
                path_charpoly(k)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path_charpoly.cache_info().currsize == 256
        assert held <= 1.2 * sum(size(path_charpoly(k)) for k in range(256))
        half = _square_half(300)
        assert all(map(operator.is_, half, path_charpoly(300).coeffs[::2]))

    @given(small_int_polys, small_int_polys)
    def test_resultant_of_polynomials_in_x_squared(self, f, g):
        """Res(F(x**2), G(x**2)) = Res(F, G)**2."""
        assert _checked_resultant(_squared(f), _squared(g)) == (
            _checked_resultant(f, g) ** 2
        )

    @given(small_int_polys)
    def test_resultant_with_x(self, f):
        """Res(x, g) = g(0) and Res(f, x) = (-1)**deg f * f(0)."""
        assert _checked_resultant(X, f) == f.coeffs[0]
        assert _checked_resultant(f, X) == (-1) ** f.degree * f.coeffs[0]


class TestResultantCost:
    def test_long_path_memory_and_time(self):
        """q_3000 is built from its own coefficients, with no q_0..q_2999
        kept.  For n = 2 the remainder sequence divides F_3000, of degree
        1500, by the linear F_2, and each division step works only on the
        divisor's nonzero terms; F_1 is constant, so n = 1 divides nothing."""
        for n in (1, 2):
            path_charpoly.cache_clear()
            tracemalloc.start()
            try:
                start = time.perf_counter()
                assert det_resultant(n, 3000) == det_closed_form(n, 3000), n
                elapsed = time.perf_counter() - start
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20, n
            assert elapsed < 1.0, n


class TestAgreement:
    def test_four_way_agreement_up_to_12(self):
        for n in range(1, 13):
            for m in range(1, 13):
                values = {
                    det_direct(n, m),
                    det_block(n, m),
                    det_resultant(n, m),
                    det_closed_form(n, m),
                }
                assert len(values) == 1, (n, m, values)

    def test_zero_iff_non_coprime_up_to_20(self):
        for n in range(1, 21):
            for m in range(1, 21):
                is_zero = det_resultant(n, m) == 0
                assert is_zero == (math.gcd(n + 1, m + 1) != 1), (n, m)

    def test_square_grids_always_singular(self):
        for n in range(1, 13):
            assert det_direct(n, n) == 0
        for n in (1, 2, 3, 10, 100, 1000, 10**6):
            assert det_closed_form(n, n) == 0

    def test_unit_or_zero_range(self):
        for n in range(1, 13):
            for m in range(1, 13):
                report = verify_all(n, m)
                assert set(report.results().values()) <= {-1, 0, 1}

    def test_block_identity_at_matrix_level(self):
        for n in range(1, 9):
            for m in range(1, 9):
                grid = box_product_by_definition(path(n), path(m))
                assembled = adjacency_matrix(grid)
                minus_b = scale_rows(-1, adjacency_matrix(path(m)).rows)
                reduced = IntMatrix(matpoly_eval(path_charpoly(n), minus_b))
                assert dense_bareiss_det(reduced) == dense_bareiss_det(assembled), (n, m)

    def test_resultant_bridge_against_direct_assembly(self):
        for n in range(1, 7):
            for m in range(1, 7):
                grid = box_product_by_definition(path(n), path(m))
                direct = dense_bareiss_det(adjacency_matrix(grid))
                assert det_resultant(n, m) == direct, (n, m)

    def test_numeric_eigenvalue_product_cross_check(self):
        """Floating oracle from the known path spectrum: the product of all
        pairwise eigenvalue sums must land on the exact determinant."""
        for n in range(1, 11):
            for m in range(1, 11):
                approx = grid_eigenvalue_product(n, m)
                assert abs(approx - det_closed_form(n, m)) < 1e-6, (n, m)

    def test_closed_form_guard_trips_on_a_broken_gcd(self, monkeypatch):
        import boxdet.det_methods as dm

        monkeypatch.setattr(dm.math, "gcd", lambda a, b: 1)
        with pytest.raises(RuntimeError):
            det_closed_form(1, 1)


class TestVerifyAll:
    def test_all_methods_present_and_agreeing(self):
        report = verify_all(2, 3)
        assert (report.direct, report.block, report.resultant) == (-1, -1, -1)
        assert report.closed_form == -1
        assert report.agree
        assert set(report.elapsed) == {"direct", "block", "resultant", "closed_form"}

    def test_trivial_pair(self):
        report = verify_all(1, 1)
        assert report.results() == {
            "direct": 0,
            "block": 0,
            "resultant": 0,
            "closed_form": 0,
        }
        assert report.agree

    def test_large_pair_skips_direct(self):
        report = verify_all(50, 60)
        assert report.direct is None
        assert report.block == report.resultant == report.closed_form == 1
        assert report.agree
        assert "direct" not in report.elapsed

    def test_block_ceiling_skips_block(self):
        report = verify_all(2, 3, block_ceiling=2)
        assert report.block is None
        assert report.direct == report.resultant == report.closed_form == -1

    def test_block_ceiling_reaches_det_block(self):
        report = verify_all(1, 70, block_ceiling=80)
        assert report.block == report.closed_form == -1

    def test_methods_filter(self):
        report = verify_all(4, 4, methods={"closed_form"})
        assert report.direct is None and report.block is None
        assert report.resultant is None
        assert report.closed_form == 0
        assert report.agree

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            verify_all(2, 2, methods={"cofactor"})

    def test_json_dict_shape(self):
        data = verify_all(2, 3).to_json_dict()
        assert data["n"] == 2 and data["m"] == 3
        assert data["results"] == {
            "direct": "-1",
            "block": "-1",
            "resultant": "-1",
            "closed_form": "-1",
        }
        assert data["agree"] is True
        assert set(data["elapsed_ms"]) == {"direct", "block", "resultant", "closed_form"}
        assert all(isinstance(v, float) for v in data["elapsed_ms"].values())


class TestMethodTable:
    def test_rows(self):
        """Each row: the DetReport field and JSON key, the spelling after
        --methods, and the verify_all keyword of its ceiling."""
        assert METHODS == (
            ("direct", "direct", "ceiling"),
            ("block", "block", "block_ceiling"),
            ("resultant", "resultant", None),
            ("closed_form", "closed", None),
        )
        assert METHOD_NAMES == ("direct", "block", "resultant", "closed_form")
        assert DetReport.__slots__ == ("n", "m", *METHOD_NAMES, "elapsed")
        keywords = inspect.signature(verify_all).parameters
        for _, _, keyword in METHODS:
            assert keyword is None or keyword in keywords, keyword

    @pytest.mark.parametrize("n, m", [(2, 3), (50, 60), (100, 101)])
    def test_json_results_in_table_order(self, n, m):
        """Every method has a key, in table order, whether it ran or not."""
        for methods in (set(METHOD_NAMES), {"closed_form"}):
            results = verify_all(n, m, methods=methods).to_json_dict()["results"]
            assert list(results) == list(METHOD_NAMES), (n, m, methods)

    def test_each_method_is_looked_up_by_name_at_call_time(self, monkeypatch):
        """verify_all calls whatever det_<name> the module holds when it
        runs, so a wrapper rebound over that name from outside, as the
        benchmark's tracer does, sees every call.  A table that held the
        function objects themselves would bypass the wrappers."""
        import boxdet.det_methods as dm

        calls = []

        def recording(name):
            real = getattr(dm, "det_" + name)

            def wrapper(*args):
                calls.append((name, args))
                return real(*args)

            return wrapper

        for name in METHOD_NAMES:
            monkeypatch.setattr(dm, "det_" + name, recording(name))
        report = verify_all(2, 3, ceiling=7, block_ceiling=9)
        assert calls == [
            ("direct", (2, 3, 7)),
            ("block", (2, 3, 9)),
            ("resultant", (2, 3)),
            ("closed_form", (2, 3)),
        ]
        assert report.results() == dict.fromkeys(METHOD_NAMES, -1)
        calls.clear()
        report = verify_all(2, 3, methods={"closed_form"})
        assert calls == [("closed_form", (2, 3))]
        assert report.results() == {"closed_form": -1}


class TestReportValidation:
    def test_det_report_agree_is_derived_from_results(self):
        split = DetReport(n=1, m=1, direct=0, block=1, resultant=None, closed_form=0)
        assert not split.agree
        assert split.to_json_dict()["agree"] is False
        # Skipped methods (None) take no part in the comparison.
        assert DetReport(n=1, m=1, direct=0, block=None, resultant=0,
                         closed_form=0).agree
        assert DetReport(n=1, m=1, direct=None, block=None, resultant=None,
                         closed_form=1).agree

    def test_det_report_closed_form_range(self):
        with pytest.raises(ValueError):
            DetReport(n=1, m=1, direct=None, block=None, resultant=None,
                      closed_form=5)

    def test_identity_report_witness_rule(self):
        assert IdentityReport("shift", {"k": 1, "s": 0}).passed
        assert not IdentityReport("shift", {"k": 1, "s": 0}, witness=ONE).passed
        assert not IdentityReport("product_n_plus_1", {"n": 1}, witness=0).passed
        with pytest.raises(ValueError):
            IdentityReport("no_such_identity", {})


class TestIdentityChecks:
    def test_splitting_examples(self):
        assert check_splitting(2).passed
        assert check_splitting(1).passed  # vacuous range
        assert check_splitting(30).passed

    def test_shift_examples(self):
        assert check_shift(1, 1).passed
        for k in (1, 2, 5, 9):
            assert check_shift(k, 0).passed
        assert check_shift(10, 7).passed

    def test_shift_parameter_validation(self):
        with pytest.raises(ValueError):
            check_shift(3, 4)
        with pytest.raises(ValueError):
            check_shift(3, -1)
        with pytest.raises(ValueError):
            check_shift(0, 0)

    def test_annihilation_examples(self):
        assert check_annihilation(1, 2).passed
        for k in (1, 3, 7):
            assert check_annihilation(k, 1).passed
        assert check_annihilation(4, 3).passed

    def test_annihilation_parameter_validation(self):
        with pytest.raises(ValueError):
            check_annihilation(0, 1)
        with pytest.raises(ValueError):
            check_annihilation(3, 0)

    def test_power_examples(self):
        assert check_power(1, 1, 0).passed
        assert check_power(2, 2, 1).passed
        assert check_power(5, 3, 5).passed

    def test_power_parameter_validation(self):
        with pytest.raises(ValueError):
            check_power(3, 1, 5)
        with pytest.raises(ValueError):
            check_power(3, 1, -1)
        with pytest.raises(ValueError):
            check_power(3, 0, 1)

    def test_product_n_plus_1_examples(self):
        for n, expected in ((1, -1), (2, -1), (3, 1), (4, 1), (20, 1)):
            report = check_product_n_plus_1(n)
            assert report.passed, (n, expected)

    def test_symmetry_examples(self):
        assert check_symmetry(1, 2).passed
        assert check_symmetry(2, 1).passed
        assert check_symmetry(4, 4).passed
        assert check_symmetry(3, 8).passed

    def test_reports_carry_their_parameters(self):
        report = check_shift(5, 2)
        assert report.identity == "shift"
        assert report.params == {"k": 5, "s": 2}
        assert report.witness is None


def _dense_residue(a: IntPoly, b: IntPoly) -> IntPoly | None:
    """a modulo b, for b led by +1 or -1, from the dense pseudo-division
    oracle with its lc(b)**steps factor taken off; None when it is zero."""
    if a.degree < b.degree:
        rem = list(a.coeffs)
    else:
        scale = b.leading_coefficient ** (len(a.coeffs) - b.degree)
        rem = [c * scale for c in dense_prem(list(a.coeffs), list(b.coeffs))]
    return IntPoly(tuple(rem)) if rem else None


class TestIdentitySuite:
    def test_full_default_bounds_pass(self):
        reports = identity_suite()
        assert len(reports) == 679
        failures = [r for r in reports if not r.passed]
        assert failures == []

    def test_family_counts_at_default_bounds(self):
        reports = identity_suite()
        by_family: dict[str, int] = {}
        for r in reports:
            by_family[r.identity] = by_family.get(r.identity, 0) + 1
        assert by_family == {
            "splitting": 30,
            "shift": 230,       # sum of k+1 for k = 1..20
            "annihilation": 75,  # 15 * 5
            "power": 260,        # 4 * sum of k+1 for k = 1..10
            "product_n_plus_1": 20,
            "symmetry": 64,      # 8 * 8
        }

    def test_reduced_bounds(self):
        reports = identity_suite(2)
        assert all(r.passed for r in reports)
        assert len(reports) == 2 + 5 + 10 + 20 + 2 + 4
        with pytest.raises(ValueError, match="max_k must be >= 1"):
            identity_suite(0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_one_bound_sets_every_family(self, k):
        """t runs to 5 and a to 4 whatever the bound; every size parameter
        runs to k."""
        reports = identity_suite(k)
        counts = {name: 0 for name in IDENTITY_NAMES}
        for r in reports:
            counts[r.identity] += 1
        steps = sum(j + 1 for j in range(1, k + 1))
        assert counts == {
            "splitting": k,
            "shift": steps,
            "annihilation": 5 * k,
            "power": 4 * steps,
            "product_n_plus_1": k,
            "symmetry": k * k,
        }
        assert [r.identity for r in reports] == sorted(
            (r.identity for r in reports), key=IDENTITY_NAMES.index
        )

    def test_matches_a_reference_built_check_by_check(self):
        """identity_suite(12) against each check rebuilt here, in suite
        order: q_{k+1}**a is taken anew for every power check, by repeated
        plain convolution, and every residue comes from the dense
        pseudo-division oracle, unscaled by lc(q_k)**steps."""
        q = path_charpoly

        def witness(a: IntPoly, k: int) -> IntPoly | None:
            return _dense_residue(a, q(k))

        ks = range(1, 13)
        expected = [
            *(("splitting", {"k": k}, None) for k in ks),
            *(
                ("shift", {"k": k, "s": s}, witness(add(q(k + s), q(k - s)), k))
                for k in ks
                for s in range(k + 1)
            ),
            *(
                ("annihilation", {"k": k, "t": t}, witness(q(t * (k + 1) - 1), k))
                for k in ks
                for t in range(1, 6)
            ),
            *(
                (
                    "power",
                    {"k": k, "a": a, "b": b},
                    witness(
                        sub(q(a * (k + 1) + b), convolve(repeated_power(q(k + 1), a), q(b))),
                        k,
                    ),
                )
                for k in ks
                for a in range(1, 5)
                for b in range(k + 1)
            ),
            *(("product_n_plus_1", {"n": n}, None) for n in ks),
            *(("symmetry", {"n": n, "m": m}, None) for n in ks for m in ks),
        ]
        reports = identity_suite(12)
        assert [(r.identity, r.params, r.witness) for r in reports] == expected
        assert all(r.passed for r in reports)

    def test_power_cache_is_bounded_and_builds_each_power_once(self):
        """check_power takes q_{k+1}**a from a small cache; the suite asks
        for each (k, a) in one run of offsets b, so it builds each power
        once and keeps only the last few."""
        _path_power.cache_clear()
        identity_suite(20)
        info = _path_power.cache_info()
        assert info.maxsize is not None and info.maxsize <= 8
        assert info.currsize <= info.maxsize
        assert info.misses == 20 * 4
        for k in range(1, 21):
            for a in range(1, 5):
                assert len(_path_power(k + 1, a)) <= k, (k, a)

    def test_power_is_the_full_power_reduced(self):
        """_path_power multiplies and reduces one factor at a time; the old
        route, the full power reduced once by the dense oracle, is the
        reference."""
        _path_power.cache_clear()
        for k in range(1, 42):
            for a in EXPONENTS:
                power = repeated_power(path_charpoly(k), a).coeffs
                full = dense_rem(power, path_charpoly(k - 1).coeffs)
                assert _path_power(k, a) == tuple(full), (k, a)

    def test_reports_repeat_in_one_process_and_after_every_cache_is_cleared(
        self, monkeypatch
    ):
        import boxdet.polynomials as polynomials

        first = identity_suite(20)
        assert identity_suite(20) == first
        path_charpoly.cache_clear()
        _path_power.cache_clear()
        monkeypatch.setattr(polynomials, "_prepared", (None, 0, []))
        assert identity_suite(20) == first
        assert all(r.passed for r in first)

    @pytest.mark.parametrize("k", (1, 5, 12))
    def test_one_root_product_per_ordered_pair(self, monkeypatch, k):
        """identity_suite(k) computes det_resultant once for each ordered
        pair (n, m), n, m <= k; check_symmetry alone still makes two calls."""
        import boxdet.det_methods as dm

        calls = []

        def spy(n: int, m: int) -> int:
            calls.append((n, m))
            return det_resultant(n, m)

        monkeypatch.setattr(dm, "det_resultant", spy)
        identity_suite(k)
        assert len(calls) == k * k
        assert sorted(calls) == list(itertools.product(range(1, k + 1), repeat=2))
        calls.clear()
        check_symmetry(3, 5)
        assert calls == [(3, 5), (5, 3)]

    def test_suite_symmetry_reports_are_check_symmetry(self):
        reports = [r for r in identity_suite(12) if r.identity == "symmetry"]
        assert reports == [
            check_symmetry(n, m) for n in range(1, 13) for m in range(1, 13)
        ]

    def test_symmetry_witness_survives_a_fault(self, monkeypatch):
        """With det_resultant off by 7 at (4, 7) only, the suite and
        check_symmetry both report forward - backward there and its
        negative at (7, 4), and pass every other pair."""
        import boxdet.det_methods as dm

        def faulty(n: int, m: int) -> int:
            return det_resultant(n, m) + (7 if (n, m) == (4, 7) else 0)

        monkeypatch.setattr(dm, "det_resultant", faulty)
        witness = faulty(4, 7) - faulty(7, 4)
        assert witness == 7
        expected = {(4, 7): witness, (7, 4): -witness}
        suite = [r for r in identity_suite(8) if r.identity == "symmetry"]
        assert {(r.params["n"], r.params["m"]): r.witness for r in suite} == {
            (n, m): expected.get((n, m)) for n in range(1, 9) for m in range(1, 9)
        }
        assert check_symmetry(4, 7).witness == witness
        assert check_symmetry(7, 4).witness == -witness
        assert check_symmetry(4, 4).passed

    @pytest.mark.parametrize(
        "k, j, first",
        [(29, 29, 1), (20, 7, 7), (20, 13, 6), (12, 0, 1), (15, 14, 1), (9, 4, 4)],
    )
    def test_splitting_witness_of_a_fault(self, monkeypatch, k, j, first):
        """With q_j perturbed below its leading term, check_splitting(k)
        fails first at the smallest i whose terms name q_j, as q_i, q_{k-i},
        q_{i-1} or q_{k-i-1} (every i when j = k), and its witness is
        q_k - (q_i q_{k-i} - q_{i-1} q_{k-i-1}) built with the plain
        convolution."""
        import boxdet.det_methods as dm

        def faulty(n: int) -> IntPoly:
            return add(path_charpoly(n), IntPoly((1, 0, 3))) if n == j else path_charpoly(n)

        monkeypatch.setattr(dm, "path_charpoly", faulty)
        q = faulty
        report = check_splitting(k)
        assert report.params == {"k": k, "i": first}
        i = first
        rhs = sub(convolve(q(i), q(k - i)), convolve(q(i - 1), q(k - i - 1)))
        assert report.witness == sub(q(k), rhs) != ZERO

    def test_shift_and_annihilation_witnesses_survive_a_fault(self, monkeypatch):
        """With the dividend q_29 and the divisor q_11 perturbed below their
        leading terms, every shift and annihilation check with k <= 25 carries
        the remainder of its unreduced dividend, q_{k+s} + q_{k-s} or
        q_{t(k+1)-1}, by the dense oracle: a witness when it is nonzero, and
        a pass when it is zero."""
        import boxdet.det_methods as dm

        faults = {29: IntPoly((1, 0, 0, 0, 0, 0, 0, 3)), 11: IntPoly((0, -2, 0, 0, 1))}

        def faulty(k: int) -> IntPoly:
            return add(path_charpoly(k), faults.get(k, ZERO))

        monkeypatch.setattr(dm, "path_charpoly", faulty)
        failed = set()
        for k in range(1, 26):
            for s in range(k + 1):
                report = check_shift(k, s)
                dividend = add(faulty(k + s), faulty(k - s))
                assert report.witness == _dense_residue(dividend, faulty(k)), (k, s)
                if not report.passed:
                    failed.add(("shift", k, k + s))
            for t in range(1, 6):
                report = check_annihilation(k, t)
                dividend = faulty(t * (k + 1) - 1)
                assert report.witness == _dense_residue(dividend, faulty(k)), (k, t)
                if not report.passed:
                    failed.add(("annihilation", k, t * (k + 1) - 1))
        for family in ("shift", "annihilation"):
            assert any(f == family and k == 11 for f, k, _ in failed), family
            assert any(f == family and j == 29 for f, _, j in failed), family

    def test_power_witness_of_a_dividend_shorter_than_the_product(
        self, monkeypatch
    ):
        """With q_30 cut to its terms below x**19, the dividend of
        check_power(k, 1, 29 - k) for k >= 15 is shorter than the product
        subtracted from it, of degree 28, so the list is padded; every
        power check with k <= 25 still carries the remainder of the
        unreduced difference by the dense oracle."""
        import boxdet.det_methods as dm

        cut = IntPoly(path_charpoly(30).coeffs[:19])

        def faulty(k: int) -> IntPoly:
            return cut if k == 30 else path_charpoly(k)

        monkeypatch.setattr(dm, "path_charpoly", faulty)
        _path_power.cache_clear()
        padded = 0
        try:
            for k in range(1, 26):
                for a in range(1, 5):
                    for b in range(k + 1):
                        report = check_power(k, a, b)
                        product = convolve(repeated_power(faulty(k + 1), a), faulty(b))
                        difference = sub(faulty(a * (k + 1) + b), product)
                        expected = _dense_residue(difference, faulty(k))
                        assert report.witness == expected, (k, a, b)
                        # The reduced power has degree k - 1, below q_{k+1}**a.
                        if faulty(a * (k + 1) + b).degree < k - 1 + b:
                            padded += 1
                            assert not report.passed, (k, a, b)
        finally:
            _path_power.cache_clear()
        assert padded == 11

    def test_power_witnesses_survive_a_fault(self, monkeypatch):
        """With one dividend q_40 and one q_{k+1} = q_13 perturbed below their
        leading terms, every failing power check carries the remainder of
        the unreduced difference, q_{a(k+1)+b} - q_{k+1}**a * q_b, by the
        dense oracle: reducing the cached power modulo q_k changes no
        witness, even where the perturbed q_13 is the divisor."""
        import boxdet.det_methods as dm

        faults = {40: IntPoly((1, 0, 0, 0, 0, 0, 0, 3)), 13: IntPoly((0, -2, *(0,) * 10, 1))}

        def faulty(k: int) -> IntPoly:
            return add(path_charpoly(k), faults.get(k, ZERO))

        monkeypatch.setattr(dm, "path_charpoly", faulty)
        _path_power.cache_clear()
        try:
            failures = [
                report
                for k in range(1, 26)
                for a in range(1, 5)
                for b in range(k + 1)
                if not (report := check_power(k, a, b)).passed
            ]
        finally:
            _path_power.cache_clear()
        touched = set()
        for report in failures:
            k, a, b = report.params["k"], report.params["a"], report.params["b"]
            touched.add(a * (k + 1) + b)
            difference = sub(
                faulty(a * (k + 1) + b), convolve(repeated_power(faulty(k + 1), a), faulty(b))
            )
            assert report.witness == _dense_residue(difference, faulty(k)), (k, a, b)
        assert {40, 13} <= touched
        assert any(r.params["k"] == 12 for r in failures)
        assert any(r.params["k"] == 13 for r in failures)
