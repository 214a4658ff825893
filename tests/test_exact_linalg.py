"""Exact matrix layer: Bareiss vs cofactor and vs dense elimination, the
band core on band rows, the Horner oracle, Sylvester."""
from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    add_rows,
    dense_band,
    dense_bareiss_det,
    identity_rows,
    matpoly_eval,
    mul_rows,
    random_matrix,
    scale_rows,
)
from boxdet.exact_linalg import (
    COFACTOR_SIZE_LIMIT,
    IntMatrix,
    bareiss_band_det,
    bareiss_det,
    cofactor_det,
    sylvester_matrix,
)
from boxdet.graphs import adjacency_matrix, box_product, path
from boxdet.polynomials import ONE, X, ZERO, IntPoly, path_charpoly, resultant


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
    return IntMatrix.from_rows(rows)


@st.composite
def band_inputs(draw):
    """A matrix from banded_matrices() with band rows for the core: ``low``
    at or above the matrix's lower bandwidth, and each row stored from
    column max(0, i - low) to its last nonzero entry plus 0-2 stored zeros.
    So zero rows are often stored empty, rows whose entries stop left of
    the diagonal are stored shorter than the band, and a swap often trades
    rows of different lengths."""
    m = draw(banded_matrices())
    low = dense_band(m)[0] + draw(st.integers(0, 2))
    rows = []
    for i, row in enumerate(m.rows):
        start = max(0, i - low)
        end = max([start] + [j + 1 for j, x in enumerate(row) if x])
        rows.append(list(row[start : end + draw(st.integers(0, 2))]))
    return m, low, rows


class TestIntMatrix:
    def test_constructors(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m.size == 2
        assert m.rows == ((1, 2), (3, 4))

    def test_validation(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([])
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


class TestDeterminants:
    def test_frozen_examples(self):
        assert bareiss_det(IntMatrix.from_rows(identity_rows(5))) == 1
        assert bareiss_det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
        assert bareiss_det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == -3
        four_cycle = IntMatrix.from_rows(
            [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
        )
        assert bareiss_det(four_cycle) == 0
        assert cofactor_det(four_cycle) == 0
        assert cofactor_det(IntMatrix.from_rows([[-1]])) == -1
        two_by_three_grid = adjacency_matrix(box_product(path(2), path(3)))
        assert cofactor_det(two_by_three_grid) == -1

    def test_zero_pivot_needs_row_swap(self):
        m = IntMatrix.from_rows([[0, 2, 1], [0, 0, 3], [5, 0, 0]])
        assert bareiss_det(m) == cofactor_det(m) == 30
        assert bareiss_det(IntMatrix.from_rows([[0] * 3] * 3)) == 0

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
            product = IntMatrix.from_rows(mul_rows(a.rows, b.rows))
            assert bareiss_det(product) == bareiss_det(a) * bareiss_det(b)

    def test_scalar_scaling_law(self):
        rng = random.Random(3)
        for size in (1, 2, 3, 4):
            m = random_matrix(rng, size)
            tripled = IntMatrix.from_rows(scale_rows(3, m.rows))
            assert bareiss_det(tripled) == 3**size * bareiss_det(m)

    def test_cofactor_size_guard(self):
        big = IntMatrix.from_rows(identity_rows(COFACTOR_SIZE_LIMIT + 1))
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
        m = IntMatrix.from_rows(rows)
        assert bareiss_det(m) == cofactor_det(m)

    @settings(max_examples=300, deadline=None)
    @given(banded_matrices())
    # pivots of 2, so a row entering the window must be scaled by the last
    @example(IntMatrix.from_rows([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]))
    # a zero pivot sends down a row reaching further right than its partner
    @example(IntMatrix.from_rows([[0, 1, 0, 5], [1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
    def test_banded_agrees_with_dense_elimination(self, m):
        assert bareiss_det(m) == dense_bareiss_det(m)

    @settings(max_examples=300, deadline=None)
    @given(band_inputs())
    # one empty row: the whole matrix is zero
    @example((IntMatrix.from_rows([[0]]), 1, [[]]))
    # rows 1 and 2 end left of the diagonal: a permutation matrix
    @example((IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), 1, [[0, 0, 1], [1], [1]]))
    # the zero pivot of a long row swaps with a row of length 1
    @example(
        (
            IntMatrix.from_rows([[0, 1, 0, 5], [1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]),
            1,
            [[0, 1, 0, 5], [1], [1, 1], [1, 1]],
        )
    )
    # the last row ends left of the diagonal, so its final entry is 0
    @example((IntMatrix.from_rows([[1, 0], [1, 0]]), 1, [[1], [1]]))
    # a row whose last stored entry is the one in the pivot column
    @example((IntMatrix.from_rows([[1, 1], [1, 0]]), 1, [[1, 1], [1]]))
    def test_band_core_agrees_with_dense_elimination(self, case):
        m, low, rows = case
        assert bareiss_band_det(low, rows) == dense_bareiss_det(m)


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
        p = X**3 - 4 * X + 1
        assert matpoly_eval(p, [[2, 0], [0, -3]]) == [[p(2), 0], [0, p(-3)]]


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

