"""Exact matrix layer: the band core on ``{column: entry}`` rows against
dense Bareiss and cofactor expansion, the Horner oracle, Sylvester."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    COFACTOR_SIZE_LIMIT,
    ONE,
    X,
    ZERO,
    IntMatrix,
    add,
    add_rows,
    adjacency_matrix,
    box_product_by_definition,
    cofactor_det,
    convolve,
    dense_bareiss,
    dense_bareiss_det,
    identity_rows,
    matpoly_eval,
    mul_rows,
    path,
    random_matrix,
    scale_rows,
    sylvester_matrix,
)
from boxdet.det_methods import DEFAULT_DIRECT_CEILING, det_closed_form, det_direct
from boxdet.exact_linalg import bareiss_band_det
from boxdet.polynomials import IntPoly, path_charpoly, resultant


def dense_rows(m: IntMatrix) -> list[dict[int, int]]:
    """The rows of m for the core, each mapping every column, zeros
    included, to its entry."""
    return [dict(enumerate(row)) for row in m.rows]


def assert_core_matches_dense(m: IntMatrix, *row_sets: list[dict[int, int]]) -> None:
    """The core on each of ``row_sets``, which all describe m, returns
    dense elimination's value when every pivot that elimination meets is +1
    or -1, and otherwise raises ValueError naming the first other pivot, up
    to sign, and its step."""
    det, pivots = dense_bareiss(m)
    bad = [(k, p) for k, p in enumerate(pivots) if p not in (1, -1)]
    for rows in row_sets:
        if not bad:
            assert bareiss_band_det(rows) == det
            continue
        k, p = bad[0]
        message = rf"^pivot must be \+1 or -1, got -?{abs(p)} at step {k}$"
        with pytest.raises(ValueError, match=message):
            bareiss_band_det(rows)


@st.composite
def banded_matrices(draw):
    """Square matrices with independent lower and upper bandwidths in 0..n,
    most of them with one of the cases banded elimination can get wrong: a
    zero diagonal (a swap at every step), an all-zero row, or a row that is
    a multiple of a nearby one (singular, with the band shifted by at most
    the distance between the two rows)."""
    size = draw(st.integers(1, 16))
    low = draw(st.integers(0, size))
    up = draw(st.integers(0, size))
    band = [(i, j) for i in range(size) for j in range(size) if -low <= j - i <= up]
    values = draw(st.lists(st.integers(-4, 4), min_size=len(band), max_size=len(band)))
    rows = [[0] * size for _ in range(size)]
    for (i, j), x in zip(band, values):
        rows[i][j] = x
    case = draw(st.sampled_from(("plain", "zero diagonal", "zero row", "dependent row")))
    if case == "zero diagonal":
        for i in range(size):
            rows[i][i] = 0
    elif case == "zero row":
        rows[draw(st.integers(0, size - 1))] = [0] * size
    elif case == "dependent row" and size > 1:
        i = draw(st.integers(0, size - 2))
        j = draw(st.integers(i + 1, min(i + 3, size - 1)))
        rows[j] = [draw(st.integers(-3, 3)) * x for x in rows[i]]
    return IntMatrix(rows)


@st.composite
def unit_pivot_band_matrices(draw):
    """L U for a unit lower triangular L of lower bandwidth 0..n-1 and an
    upper triangular U of upper bandwidth 0..n-1 with +1 or -1 on its
    diagonal, entries off it in -3..3.  Every leading minor of L U is the
    product of U's leading diagonal entries, so elimination meets no zero
    pivot and every pivot is +1 or -1.  In a third of them one diagonal
    entry of U is 0 instead, so at that step the column is zero."""
    size = draw(st.integers(1, 16))
    low = draw(st.integers(0, size - 1))
    up = draw(st.integers(0, size - 1))
    entry = st.integers(-3, 3)
    lower = [[int(i == j) for j in range(size)] for i in range(size)]
    upper = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(max(0, i - low), i):
            lower[i][j] = draw(entry)
        upper[i][i] = draw(st.sampled_from((1, -1)))
        for j in range(i + 1, min(size, i + up + 1)):
            upper[i][j] = draw(entry)
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, size - 1))
        upper[i][i] = 0
    return IntMatrix(mul_rows(lower, upper))


@st.composite
def band_inputs(draw):
    """A matrix from banded_matrices(), or from unit_pivot_band_matrices()
    so that the core often returns, with its rows for the core: each row
    maps its nonzero entries' columns to them, plus 0-2 of its zero
    columns, drawn anywhere in the row, to an explicit 0.  So zero rows are
    stored empty or as zeros only, an explicit zero often lies left of the
    row's first nonzero entry or far below the diagonal, and a swap often
    trades rows of different lengths."""
    m = draw(st.one_of(banded_matrices(), unit_pivot_band_matrices()))
    rows = []
    for row in m.rows:
        zeros = [j for j, x in enumerate(row) if not x]
        explicit = draw(st.sets(st.sampled_from(zeros), max_size=2)) if zeros else set()
        rows.append({j: x for j, x in enumerate(row) if x or j in explicit})
    return m, rows


class TestIntMatrix:
    def test_constructors(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert m.size == 2
        assert m.rows == ((1, 2), (3, 4))
        assert IntMatrix(iter([(1, 2), [3, 4]])) == m

    def test_validation(self):
        with pytest.raises(ValueError):
            IntMatrix([])
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix([[1, 2, 3], [4, 5, 6]])


class TestDeterminants:
    def test_frozen_examples(self):
        assert bareiss_band_det(dense_rows(IntMatrix(identity_rows(5)))) == 1
        assert bareiss_band_det(dense_rows(IntMatrix([[0, 1], [1, 0]]))) == -1
        # step 0 leaves 5 - 2 * 4 = -3 as the next pivot
        generic = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert dense_bareiss_det(generic) == cofactor_det(generic) == -3
        with pytest.raises(ValueError, match=r"got -3 at step 1$"):
            bareiss_band_det(dense_rows(generic))
        four_cycle = IntMatrix(
            [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
        )
        assert bareiss_band_det(dense_rows(four_cycle)) == 0
        assert cofactor_det(four_cycle) == 0
        assert cofactor_det(IntMatrix([[-1]])) == -1
        two_by_three_grid = adjacency_matrix(box_product_by_definition(path(2), path(3)))
        assert cofactor_det(two_by_three_grid) == -1

    def test_zero_pivot_needs_row_swap(self):
        m = IntMatrix([[0, 2, 1], [0, 0, 3], [5, 0, 0]])
        assert dense_bareiss_det(m) == cofactor_det(m) == 30
        with pytest.raises(ValueError, match=r"got 5 at step 0$"):
            bareiss_band_det(dense_rows(m))
        # a swap at both steps, every pivot 1
        m = IntMatrix([[0, 1, 1], [0, 0, 1], [1, 0, 0]])
        assert bareiss_band_det(dense_rows(m)) == cofactor_det(m) == 1
        assert bareiss_band_det(dense_rows(IntMatrix([[0] * 3] * 3))) == 0

    def test_cofactor_validates_bareiss_on_random_matrices(self):
        rng = random.Random(20260815)
        for trial in range(200):
            size = 1 + trial % 7
            m = random_matrix(rng, size)
            assert cofactor_det(m) == dense_bareiss_det(m)
            assert_core_matches_dense(m, dense_rows(m))

    def test_determinant_is_multiplicative(self):
        rng = random.Random(99)
        for _ in range(50):
            size = rng.randint(1, 6)
            a = random_matrix(rng, size, -4, 4)
            b = random_matrix(rng, size, -4, 4)
            product = IntMatrix(mul_rows(a.rows, b.rows))
            assert dense_bareiss_det(product) == dense_bareiss_det(a) * dense_bareiss_det(b)

    def test_scalar_scaling_law(self):
        rng = random.Random(3)
        for size in (1, 2, 3, 4):
            m = random_matrix(rng, size)
            tripled = IntMatrix(scale_rows(3, m.rows))
            assert dense_bareiss_det(tripled) == 3**size * dense_bareiss_det(m)

    def test_cofactor_size_guard(self):
        big = IntMatrix(identity_rows(COFACTOR_SIZE_LIMIT + 1))
        with pytest.raises(ValueError, match=str(COFACTOR_SIZE_LIMIT)):
            cofactor_det(big)

    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ))
    # a pivot of -2 with lower bandwidth 2
    @example([[-2, 1, 0, 0], [1, 2, 1, 0], [1, 1, 2, 1], [0, 1, 1, 2]])
    # a pivot of -3 over a row with no entry in column 0
    @example([[-3, 1, 0], [0, 2, 1], [1, 0, 2]])
    def test_bareiss_agrees_with_cofactor(self, rows):
        m = IntMatrix(rows)
        assert dense_bareiss_det(m) == cofactor_det(m)
        assert_core_matches_dense(m, dense_rows(m))

    @settings(max_examples=300, deadline=None)
    @given(banded_matrices())
    # pivots of 2
    @example(IntMatrix([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]))
    # a zero pivot sends down a row reaching further right than its partner
    @example(IntMatrix([[0, 1, 0, 5], [1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
    def test_banded_agrees_with_dense_elimination(self, m):
        assert_core_matches_dense(m, dense_rows(m))

    @settings(max_examples=300, deadline=None)
    @given(band_inputs())
    # one empty row: the whole matrix is zero
    @example((IntMatrix([[0]]), [{}]))
    # rows 1 and 2 lie left of the diagonal: a permutation matrix
    @example(
        (
            IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
            [{0: 0, 1: 0, 2: 1}, {0: 1}, {1: 1}],
        )
    )
    # the zero pivot of a long row swaps with a row of one entry
    @example(
        (
            IntMatrix([[0, 1, 0, 5], [1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]),
            [{0: 0, 1: 1, 2: 0, 3: 5}, {0: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}],
        )
    )
    # the last row has no entry on the diagonal, so its final entry is 0
    @example((IntMatrix([[1, 0], [1, 0]]), [{0: 1}, {0: 1}]))
    # a pivot of -2 with lower bandwidth 2
    @example(
        (
            IntMatrix([[-2, 1, 0, 0], [1, 2, 1, 0], [1, 1, 2, 1], [0, 1, 1, 2]]),
            [
                {0: -2, 1: 1},
                {0: 1, 1: 2, 2: 1},
                {0: 1, 1: 1, 2: 2, 3: 1},
                {1: 1, 2: 1, 3: 2},
            ],
        )
    )
    # a pivot of -3 over a row with no entry in column 0
    @example(
        (
            IntMatrix([[-3, 1, 0], [0, 2, 1], [1, 0, 2]]),
            [{0: -3, 1: 1}, {1: 2, 2: 1}, {0: 1, 2: 2}],
        )
    )
    # a row whose only entry is the one in the pivot column
    @example((IntMatrix([[1, 1], [1, 0]]), [{0: 1, 1: 1}, {0: 1}]))
    # explicit zeros left of the last row's diagonal do not widen the band
    @example(
        (
            IntMatrix([[1, 2, 0], [0, 1, 3], [0, 0, 1]]),
            [{0: 1, 1: 2}, {1: 1, 2: 3}, {0: 0, 1: 0, 2: 1}],
        )
    )
    # rows 0 and 1 start right of their diagonal, and row 2 must swap up
    @example(
        (
            IntMatrix([[0, 2, 1], [0, 0, 3], [5, 0, 0]]),
            [{1: 2, 2: 1}, {2: 3}, {0: 5}],
        )
    )
    # a zero row stored as an explicit zero far left of the diagonal
    @example(
        (
            IntMatrix([[1, 1, 0], [1, 2, 1], [0, 0, 0]]),
            [{0: 1, 1: 1}, {0: 1, 1: 2, 2: 1}, {0: 0}],
        )
    )
    # row 1 less row 0 cancels to 0 on the diagonal, so step 1 swaps
    @example(
        (
            IntMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]]),
            [{0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}],
        )
    )
    # an empty row does not end the elimination: pivot 2 still raises at step 0
    @example((IntMatrix([[2, 0], [0, 0]]), [{0: 2}, {}]))
    def test_band_core_agrees_with_dense_elimination(self, case):
        m, rows = case
        assert_core_matches_dense(m, rows)

    @settings(max_examples=200, deadline=None)
    @given(band_inputs(), st.data())
    def test_explicit_zero_entries_do_not_change_the_determinant(self, case, data):
        """Adding an explicit 0 at any of a row's zero columns, so that a
        row may seem to reach far left of its diagonal, changes neither the
        matrix nor its determinant, nor whether the core raises."""
        m, rows = case
        padded = []
        for row, dense in zip(rows, m.rows):
            zeros = [j for j, x in enumerate(dense) if not x]
            explicit = data.draw(st.sets(st.sampled_from(zeros))) if zeros else set()
            padded.append({**dict.fromkeys(explicit, 0), **row})
        assert_core_matches_dense(m, padded, rows)

    @pytest.mark.parametrize(
        "dense",
        [
            # leading minors -1, -3, -8, 20: row 0 is negated, then pivot 3 raises
            [[-1, 1, 0, 0], [1, 2, 1, 0], [0, 1, 3, 2], [0, 0, 2, -1]],
            # every leading minor is -1: row 0 is negated, then every pivot is 1
            [
                [-1, 1, 0, 0, 0],
                [1, 0, 1, 0, 0],
                [0, 1, 2, 1, 0],
                [0, 0, 1, 2, 1],
                [0, 0, 0, 1, 2],
            ],
            # lower bandwidth 2, minors -1, 1, 8, -16: pivots -1, -1, then 8 raises
            [[-1, 2, 1, 0], [1, -3, 0, 1], [2, 1, 1, 1], [0, 3, 1, -2]],
        ],
    )
    def test_unit_pivot_minus_one_agrees_with_dense_elimination(self, dense):
        """Without swaps, the core's pivot at step k is, up to sign, the
        leading principal minor of order k + 1 over that of order k.  A
        pivot of -1 has its row negated, and the core goes on while every
        minor is +1 or -1, and raises at the first that is not."""
        size = len(dense)
        minors = [
            dense_bareiss_det(IntMatrix([row[:k] for row in dense[:k]]))
            for k in range(1, size + 1)
        ]
        assert 0 not in minors and -1 in minors[:-1]
        rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
        assert dense_bareiss_det(IntMatrix(dense)) == minors[-1]
        assert_core_matches_dense(IntMatrix(dense), rows)

    def test_direct_equals_closed_form_up_to_the_default_ceiling(self):
        """Every grid of the default-ceiling domain, and four past it, has
        unit pivots on its band, so the core returns and never raises."""
        ceiling = DEFAULT_DIRECT_CEILING
        for n in range(1, math.isqrt(ceiling) + 1):
            for m in range(n, ceiling // n + 1):
                assert det_direct(n, m) == det_closed_form(n, m), (n, m)
        for n, m in [(100, 20), (200, 10), (5, 2000), (31, 200)]:
            assert det_direct(n, m, ceiling=n * m) == det_closed_form(n, m), (n, m)

    def test_empty_matrix_has_determinant_one(self):
        assert bareiss_band_det([]) == 1

    def test_entry_outside_the_columns_is_rejected(self):
        with pytest.raises(ValueError, match="row 0 .* outside columns 0..0"):
            bareiss_band_det([{0: 1, 1: 5}])
        with pytest.raises(ValueError, match="row 1 .* outside columns 0..1"):
            bareiss_band_det([{0: 1, 1: 0}, {-1: 2, 1: 1}])
        # an empty row before the bad one is skipped, not named
        with pytest.raises(ValueError, match="row 1 .* outside columns 0..1"):
            bareiss_band_det([{}, {0: 1, 2: 1}])
        # a zero entry is no entry, wherever it lies
        assert bareiss_band_det([{-1: 0, 0: 3, 1: 0}]) == 3

    def test_rows_are_not_changed(self):
        """Neither when the core returns nor when it raises."""
        rows = [{0: 1, 1: 1}, {0: 1, 1: 2}]
        assert_core_matches_dense(IntMatrix([[1, 1], [1, 2]]), rows)
        assert rows == [{0: 1, 1: 1}, {0: 1, 1: 2}]
        rows = [{1: 2, 2: 0}, {0: 2, 2: 3}, {1: 1, 2: 4}]
        assert_core_matches_dense(IntMatrix([[0, 2, 0], [2, 0, 3], [0, 1, 4]]), rows)
        assert rows == [{1: 2, 2: 0}, {0: 2, 2: 3}, {1: 1, 2: 4}]
        # the zeros are filtered out of the copy, then the range check raises
        rows = [{0: 1, 1: 0}, {-1: 2, 1: 1}]
        with pytest.raises(ValueError, match="row 1 .* outside columns 0..1"):
            bareiss_band_det(rows)
        assert rows == [{0: 1, 1: 0}, {-1: 2, 1: 1}]


class TestMatpolyEval:
    def test_frozen_examples(self):
        b = adjacency_matrix(path(2)).rows
        minus_b = scale_rows(-1, b)
        # q_2 = x^2 - 1 at -A(P_2): (-A)^2 - I = 0
        assert matpoly_eval(path_charpoly(2), minus_b) == [[0, 0], [0, 0]]
        # q_1 = -x at -A(P_2) gives A(P_2) back
        assert matpoly_eval(path_charpoly(1), minus_b) == [list(row) for row in b]
        assert matpoly_eval(X, b) == [[0, 1], [1, 0]]
        assert matpoly_eval(ONE, b) == [[1, 0], [0, 1]]
        assert matpoly_eval(ZERO, b) == [[0, 0], [0, 0]]
        assert matpoly_eval(IntPoly((7,)), b) == [[7, 0], [0, 7]]

    def test_evaluation_is_a_ring_homomorphism(self):
        rng = random.Random(41)
        for _ in range(30):
            b = random_matrix(rng, rng.randint(1, 5), -3, 3).rows
            p = IntPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 6))))
            q = IntPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 6))))
            assert matpoly_eval(add(p, q), b) == add_rows(matpoly_eval(p, b), matpoly_eval(q, b))
            assert matpoly_eval(convolve(p, q), b) == mul_rows(
                matpoly_eval(p, b), matpoly_eval(q, b)
            )

    def test_matches_scalar_evaluation_on_diagonal_input(self):
        # p(2) = 8 - 8 + 1 and p(-3) = -27 + 12 + 1
        p = IntPoly((1, -4, 0, 1))
        assert matpoly_eval(p, [[2, 0], [0, -3]]) == [[1, 0], [0, -14]]


class TestSylvester:
    def test_frozen_shape_and_value(self):
        s = sylvester_matrix(path_charpoly(1), path_charpoly(2))
        assert s.rows == ((-1, 0, 0), (0, -1, 0), (1, 0, -1))
        assert dense_bareiss_det(s) == -1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sylvester_matrix(ZERO, X)
        with pytest.raises(ValueError):
            sylvester_matrix(X, ZERO)
        with pytest.raises(ValueError):
            sylvester_matrix(ONE, IntPoly((2,)))

    def test_determinant_equals_resultant(self):
        for n in range(1, 9):
            for m in range(1, 9):
                f, g = path_charpoly(n), path_charpoly(m)
                assert dense_bareiss_det(sylvester_matrix(f, g)) == resultant(f, g)

    def test_determinant_equals_resultant_generic(self):
        """A non-monic f whose remainders stay led by +1 or -1 goes through;
        one whose remainder is led by 19 is rejected, though its Sylvester
        determinant exists."""
        f = IntPoly((4, -1, 0, 2))  # 2x^3 - x + 4
        g = IntPoly((1, 1, 1))  # x^2 + x + 1; f mod g = -x + 6
        assert dense_bareiss_det(sylvester_matrix(f, g)) == resultant(f, g)
        g = IntPoly((-1, 3, 1))  # x^2 + 3x - 1; f mod g = 19x - 2
        assert dense_bareiss_det(sylvester_matrix(f, g)) == -243
        with pytest.raises(ValueError, match=r"got 19$"):
            resultant(f, g)

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.integers(2, 6),
        st.integers(2, 6),
    )
    def test_resultant_of_inputs_with_content(self, f_low, f_lead, g_low, g_lead, c, d):
        """Contents c and d above 1 reach the Sylvester determinant as
        c**deg(g) * d**deg(f).  The library's first divisor then has a lead
        divisible by c or d, so it raises rather than return a value."""
        f0, g0 = IntPoly((*f_low, f_lead)), IntPoly((*g_low, g_lead))
        f, g = IntPoly(c * e for e in f0.coeffs), IntPoly(d * e for e in g0.coeffs)
        content = c ** int(g.degree) * d ** int(f.degree)
        assert cofactor_det(sylvester_matrix(f, g)) == (
            content * cofactor_det(sylvester_matrix(f0, g0))
        )
        with pytest.raises(ValueError, match=r"must be \+1 or -1"):
            resultant(f, g)

