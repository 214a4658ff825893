"""Exact matrix layer: Bareiss vs cofactor and vs dense elimination, the
band core on band rows, the Horner oracle, Sylvester."""
from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    COFACTOR_SIZE_LIMIT,
    X,
    IntMatrix,
    add_rows,
    adjacency_matrix,
    bareiss_det,
    cofactor_det,
    dense_bareiss_det,
    identity_rows,
    matpoly_eval,
    mul_rows,
    random_matrix,
    scale_rows,
    sylvester_matrix,
)
from boxdet.exact_linalg import bareiss_band_det
from boxdet.graphs import box_product, path
from boxdet.polynomials import ONE, ZERO, IntPoly, path_charpoly, resultant


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
def band_inputs(draw):
    """A matrix from banded_matrices() with its rows for the core, each
    stored from 0-2 columns left of its first nonzero entry (not left of
    column 0) to 0-2 columns past its last one, and a zero row as 0-2
    zeros from any column.  So zero rows are often stored empty, rows whose
    entries stop left of the diagonal are stored shorter than the band,
    rows often start right of their diagonal or start with zeros, and a
    swap often trades rows of different lengths."""
    m = draw(banded_matrices())
    rows = []
    for row in m.rows:
        nonzero = [j for j, x in enumerate(row) if x]
        if nonzero:
            start = max(0, nonzero[0] - draw(st.integers(0, 2)))
            end = nonzero[-1] + 1
        else:
            start = end = draw(st.integers(0, m.size - 1))
        rows.append((start, list(row[start : end + draw(st.integers(0, 2))])))
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
        assert bareiss_det(IntMatrix(identity_rows(5))) == 1
        assert bareiss_det(IntMatrix([[0, 1], [1, 0]])) == -1
        assert bareiss_det(IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == -3
        four_cycle = IntMatrix(
            [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
        )
        assert bareiss_det(four_cycle) == 0
        assert cofactor_det(four_cycle) == 0
        assert cofactor_det(IntMatrix([[-1]])) == -1
        two_by_three_grid = adjacency_matrix(box_product(path(2), path(3)))
        assert cofactor_det(two_by_three_grid) == -1

    def test_zero_pivot_needs_row_swap(self):
        m = IntMatrix([[0, 2, 1], [0, 0, 3], [5, 0, 0]])
        assert bareiss_det(m) == cofactor_det(m) == 30
        assert bareiss_det(IntMatrix([[0] * 3] * 3)) == 0

    def test_cofactor_validates_bareiss_on_random_matrices(self):
        rng = random.Random(20260815)
        for trial in range(200):
            size = 1 + trial % 7
            m = random_matrix(rng, size)
            assert cofactor_det(m) == bareiss_det(m)

    def test_determinant_is_multiplicative(self):
        rng = random.Random(99)
        for _ in range(50):
            size = rng.randint(1, 6)
            a = random_matrix(rng, size, -4, 4)
            b = random_matrix(rng, size, -4, 4)
            product = IntMatrix(mul_rows(a.rows, b.rows))
            assert bareiss_det(product) == bareiss_det(a) * bareiss_det(b)

    def test_scalar_scaling_law(self):
        rng = random.Random(3)
        for size in (1, 2, 3, 4):
            m = random_matrix(rng, size)
            tripled = IntMatrix(scale_rows(3, m.rows))
            assert bareiss_det(tripled) == 3**size * bareiss_det(m)

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
    def test_bareiss_agrees_with_cofactor(self, rows):
        m = IntMatrix(rows)
        assert bareiss_det(m) == cofactor_det(m)

    @settings(max_examples=300, deadline=None)
    @given(banded_matrices())
    # pivots of 2, so a row entering the window must be scaled by the last
    @example(IntMatrix([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]))
    # a zero pivot sends down a row reaching further right than its partner
    @example(IntMatrix([[0, 1, 0, 5], [1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
    def test_banded_agrees_with_dense_elimination(self, m):
        assert bareiss_det(m) == dense_bareiss_det(m)

    @settings(max_examples=300, deadline=None)
    @given(band_inputs())
    # one empty row: the whole matrix is zero
    @example((IntMatrix([[0]]), [(0, [])]))
    # rows 1 and 2 end left of the diagonal: a permutation matrix
    @example(
        (
            IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
            [(0, [0, 0, 1]), (0, [1]), (1, [1])],
        )
    )
    # the zero pivot of a long row swaps with a row of length 1
    @example(
        (
            IntMatrix([[0, 1, 0, 5], [1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]),
            [(0, [0, 1, 0, 5]), (0, [1]), (1, [1, 1]), (2, [1, 1])],
        )
    )
    # the last row ends left of the diagonal, so its final entry is 0
    @example((IntMatrix([[1, 0], [1, 0]]), [(0, [1]), (0, [1])]))
    # a row whose last stored entry is the one in the pivot column
    @example((IntMatrix([[1, 1], [1, 0]]), [(0, [1, 1]), (0, [1])]))
    # leading zeros on the last row widen the band to the whole matrix
    @example(
        (
            IntMatrix([[1, 2, 0], [0, 1, 3], [0, 0, 1]]),
            [(0, [1, 2]), (1, [1, 3]), (0, [0, 0, 1])],
        )
    )
    # rows 0 and 1 start right of their diagonal, so both are padded at entry
    @example(
        (
            IntMatrix([[0, 2, 1], [0, 0, 3], [5, 0, 0]]),
            [(1, [2, 1]), (2, [3]), (0, [5])],
        )
    )
    # an empty row starting at column 0 far below the diagonal
    @example(
        (
            IntMatrix([[1, 1, 0], [1, 2, 1], [0, 0, 0]]),
            [(0, [1, 1]), (0, [1, 2, 1]), (0, [])],
        )
    )
    def test_band_core_agrees_with_dense_elimination(self, case):
        m, rows = case
        assert bareiss_band_det(rows) == dense_bareiss_det(m)

    @settings(max_examples=200, deadline=None)
    @given(band_inputs(), st.data())
    def test_moving_starts_left_keeps_the_determinant(self, case, data):
        """Prepending zeros to rows, each moved left by 0..start columns,
        changes how far the band reaches but not the matrix."""
        m, rows = case
        moved = []
        for start, entries in rows:
            shift = data.draw(st.integers(0, start))
            moved.append((start - shift, [0] * shift + entries))
        assert bareiss_band_det(moved) == bareiss_band_det(rows) == dense_bareiss_det(m)

    def test_empty_matrix_has_determinant_one(self):
        assert bareiss_band_det([]) == 1

    def test_negative_start_is_rejected(self):
        with pytest.raises(ValueError, match="-1"):
            bareiss_band_det([(0, [1, 0]), (-1, [0, 0, 1])])
        with pytest.raises(ValueError, match="-2"):
            bareiss_band_det([(-2, [])])


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
            assert matpoly_eval(p + q, b) == add_rows(matpoly_eval(p, b), matpoly_eval(q, b))
            assert matpoly_eval(p * q, b) == mul_rows(matpoly_eval(p, b), matpoly_eval(q, b))

    def test_matches_scalar_evaluation_on_diagonal_input(self):
        # p(2) = 8 - 8 + 1 and p(-3) = -27 + 12 + 1
        p = X**3 - 4 * X + 1
        assert matpoly_eval(p, [[2, 0], [0, -3]]) == [[1, 0], [0, -14]]


class TestSylvester:
    def test_frozen_shape_and_value(self):
        s = sylvester_matrix(path_charpoly(1), path_charpoly(2))
        assert s.rows == ((-1, 0, 0), (0, -1, 0), (1, 0, -1))
        assert bareiss_det(s) == -1

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
                assert bareiss_det(sylvester_matrix(f, g)) == resultant(f, g)

    def test_determinant_equals_resultant_generic(self):
        f = 2 * X**3 - X + 4
        g = X**2 + 3 * X - 1
        assert bareiss_det(sylvester_matrix(f, g)) == resultant(f, g)

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.integers(2, 6),
        st.integers(2, 6),
    )
    def test_resultant_of_inputs_with_content(self, f_low, f_lead, g_low, g_lead, c, d):
        """The remainder sequence needs no primitive inputs: contents c and
        d above 1 reach the resultant as c**deg(g) * d**deg(f)."""
        f = c * IntPoly((*f_low, f_lead))
        g = d * IntPoly((*g_low, g_lead))
        assert resultant(f, g) == cofactor_det(sylvester_matrix(f, g))

