"""Polynomial layer: the record, the product, the path recurrence, division,
resultants."""
from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import (
    ONE,
    X,
    ZERO,
    Parity,
    add,
    charpoly_by_cofactor,
    convolve,
    dense_prem,
    dense_rem,
    parity,
    recurrence_charpoly,
    recurrence_charpolys,
    sub,
    sylvester_resultant,
    taylor_shift,
)
from boxdet.polynomials import (
    NEG_INFINITY,
    IntPoly,
    _mul_into,
    _rem,
    path_charpoly,
    poly_to_json,
    resultant,
)

coefficient_lists = st.lists(st.integers(-9, 9), max_size=8)
small_polys = coefficient_lists.map(lambda cs: IntPoly(tuple(cs)))


def evaluate(p: IntPoly, x: int) -> int:
    """p(x) by Horner's rule over the coefficients."""
    result = 0
    for c in reversed(p.coeffs):
        result = result * x + c
    return result


def mul(p: IntPoly, q: IntPoly) -> IntPoly:
    """p * q by the library's product, into an empty list."""
    return IntPoly(_mul_into([], p.coeffs, q.coeffs))


class TestIntPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
        assert IntPoly((0, 0)) == ZERO

    def test_normalization_is_linear_in_the_trailing_zeros(self):
        """One slice strips them all; a slice per zero would copy the
        tuple 100,000 times."""
        start = time.perf_counter()
        assert IntPoly((1,) + (0,) * 100_000).coeffs == (1,)
        assert time.perf_counter() - start < 1.0

    def test_zero_degree_marker(self):
        assert ZERO.is_zero
        assert ZERO.degree == NEG_INFINITY
        assert ZERO.degree < 0
        assert not ONE.is_zero
        assert ONE.degree == 0
        assert X.degree == 1

    def test_leading_coefficient(self):
        assert IntPoly((0, -1, 0, 2)).leading_coefficient == 2  # 2x^3 - x
        assert ONE.leading_coefficient == 1
        with pytest.raises(ValueError):
            ZERO.leading_coefficient

    def test_arithmetic_examples(self):
        # (x + 1)(x - 1) = x^2 - 1, and (-x)(-x) = x^2
        assert _mul_into([], (1, 1), (-1, 1)) == [-1, 0, 1]
        assert _mul_into([], (0, -1), (0, -1)) == [0, 0, 1]
        # (x^2 - 1)^2 = x^4 - 2x^2 + 1, and (x^2 - 1) * 1
        assert _mul_into([], (-1, 0, 1), (-1, 0, 1)) == [1, 0, -2, 0, 1]
        assert _mul_into([], (-1, 0, 1), (1,)) == [-1, 0, 1]
        # x^2 - 1 + 1 * 1 = x^2; 5 + x * x, r padded; x^2 - x * x = 0, r kept
        assert _mul_into([-1, 0, 1], (1,), (1,)) == [0, 0, 1]
        assert _mul_into([5], (0, 1), (0, 1)) == [5, 0, 1]
        assert _mul_into([0, 0, 1], (0, 1), (0, 1), -1) == [0, 0, 0]
        # (-x)(-x)(-x), a product of a product
        assert _mul_into([], _mul_into([], (0, -1), (0, -1)), (0, -1)) == [0, 0, 0, -1]
        # 2x = x * 2 = x + x
        assert _mul_into([], (0, 1), (2,)) == _mul_into([0, 1], (0, 1), (1,)) == [0, 2]

    def test_evaluation_examples(self):
        q2 = path_charpoly(2)
        assert evaluate(q2, 3) == 8
        assert evaluate(q2, 0) == -1
        assert evaluate(ZERO, 17) == 0
        assert evaluate(IntPoly((0, -2, 0, 1)), 5) == 115  # x^3 - 2x

    @given(small_polys, small_polys, small_polys, st.sampled_from([1, -1]), st.integers(-20, 20))
    def test_evaluation_is_a_ring_homomorphism(self, r, p, q, scale, v):
        """r + scale * p * q, added into r, evaluates to
        r(v) + scale * p(v) * q(v)."""
        total = IntPoly(_mul_into(list(r.coeffs), p.coeffs, q.coeffs, scale))
        assert evaluate(total, v) == evaluate(r, v) + scale * evaluate(p, v) * evaluate(q, v)

    @given(small_polys, small_polys)
    def test_degree_of_product(self, p, q):
        if p.is_zero or q.is_zero:
            assert mul(p, q).is_zero
        else:
            assert mul(p, q).degree == p.degree + q.degree


# Path polynomials vanish at every other degree; so do these interleavings.
parity_sparse_polys = st.one_of(
    st.integers(0, 30).map(path_charpoly),
    st.tuples(st.booleans(), st.lists(st.integers(-9, 9), max_size=6)).map(
        lambda t: IntPoly((0,) * t[0] + tuple(x for c in t[1] for x in (c, 0)))
    ),
)
product_operands = st.one_of(
    small_polys,
    parity_sparse_polys,
    st.lists(st.integers(-(10**30), 10**30), max_size=5).map(lambda cs: IntPoly(tuple(cs))),
)


class TestProducts:
    @given(product_operands, product_operands)
    @example(path_charpoly(5), path_charpoly(4))
    @example(path_charpoly(21), path_charpoly(21))
    @example(ZERO, path_charpoly(3))
    def test_product_matches_plain_convolution(self, p, q):
        assert mul(p, q) == convolve(p, q)
        assert mul(q, p) == convolve(p, q)

    @given(
        product_operands,
        product_operands,
        st.sampled_from([-3, -1, 0, 1, 3]),
        st.sampled_from([1, -1]),
        st.data(),
    )
    @example(path_charpoly(5), path_charpoly(4), -3, -1, None)
    @example(path_charpoly(21), path_charpoly(20), 0, 1, None)
    @example(IntPoly((10**30, 0, -(3**80))), path_charpoly(6), 3, -1, None)
    @example(ZERO, path_charpoly(3), 1, 1, None)
    def test_mul_into_adds_the_scaled_product_in_place(self, p, q, extra, scale, data):
        """_mul_into(r, p, q, scale) pads r to the product's length,
        len(p) + len(q) - 1, when r is shorter, keeps a longer r's length,
        adds scale * p * q into it, and returns r itself.  r has ``extra``
        coefficients more than the product, or fewer; the explicit examples,
        which cannot draw, take r = [0, -1, 2, -3, ...]."""
        size = max(len(p.coeffs) + len(q.coeffs) - 1 + extra, 0)
        if data is None:
            r = [(-1) ** i * i for i in range(size)]
        else:
            r = data.draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
        before = IntPoly(r)
        out = _mul_into(r, p.coeffs, q.coeffs, scale)
        assert out is r
        assert len(r) == max(size, len(p.coeffs) + len(q.coeffs) - 1)
        plus_or_minus = add if scale == 1 else sub
        assert IntPoly(r) == plus_or_minus(before, convolve(p, q))

    @given(small_polys, st.integers(-3, 3), st.integers(-4, 4))
    @example(path_charpoly(6), 2, -2)
    def test_taylor_shift_oracle_evaluates_at_the_shifted_point(self, p, s, x):
        """The oracle for the resultant's half-index halves: f(x + s)."""
        assert evaluate(IntPoly(taylor_shift(p.coeffs, s)), x) == evaluate(p, x + s)


class TestPathCharpoly:
    def test_frozen_small_cases(self):
        assert path_charpoly(0).coeffs == (1,)
        assert path_charpoly(1).coeffs == (0, -1)
        assert path_charpoly(2).coeffs == (-1, 0, 1)
        assert path_charpoly(3).coeffs == (0, 2, 0, -1)
        assert path_charpoly(4).coeffs == (1, 0, -3, 0, 1)

    def test_matches_symbolic_cofactor_oracle(self):
        for n in range(0, 9):
            assert path_charpoly(n) == charpoly_by_cofactor(n)

    def test_recurrence_up_to_50(self):
        minus_x = IntPoly((0, -1))
        for n in range(2, 51):
            q = path_charpoly(n)
            assert q == sub(convolve(minus_x, path_charpoly(n - 1)), path_charpoly(n - 2))

    def test_degree_parity_leading_coefficient_up_to_50(self):
        for n in range(0, 51):
            q = path_charpoly(n)
            assert q.degree == n
            assert q.leading_coefficient == (-1) ** n
            expected = Parity.EVEN if n % 2 == 0 else Parity.ODD
            assert parity(q) == expected

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            path_charpoly(-1)

    def test_matches_rolling_recurrence_up_to_400(self):
        for n, q in zip(range(0, 401), recurrence_charpolys()):
            assert path_charpoly(n) == q

    def test_matches_rolling_recurrence_at_1000_and_3000(self):
        for n in (1000, 3000):
            assert path_charpoly(n) == recurrence_charpoly(n)

    def test_cache_is_bounded(self):
        assert path_charpoly.cache_info().maxsize == 256
        for n in range(300):
            path_charpoly(n)
        assert path_charpoly.cache_info().currsize <= 256


class TestParity:
    def test_examples(self):
        assert parity(IntPoly((-1, 0, 1))) == Parity.EVEN  # x^2 - 1
        assert parity(IntPoly((0, -2, 0, 1))) == Parity.ODD  # x^3 - 2x
        assert parity(IntPoly((1, 1))) == Parity.NEITHER  # x + 1
        assert parity(ZERO) == Parity.EVEN


coefficients = st.integers(-30, 30)
# Nonzero, of degree at most 4, with leads of every size up to 3.
generic_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=5).map(
    lambda cs: IntPoly(tuple(cs))
).filter(lambda p: not p.is_zero)


class TestWindowedPrem:
    def test_examples(self):
        """Worked divisions, each of a list and of a tuple: a dividend
        shorter than the divisor comes back unchanged."""
        x2_minus_1, q_3 = (-1, 0, 1), path_charpoly(3).coeffs
        cases = (
            ((0, 0, 1), (0, -1), []),  # x^2 = (-x)(-x)
            ((0, 1), (0, -1), []),
            (q_3, path_charpoly(1).coeffs, []),  # q_3 = -x(x^2 - 2), q_1 = -x
            (x2_minus_1, x2_minus_1, []),
            ((1, 0, 0, 1), x2_minus_1, [1, 1]),  # x^3 + 1 = x(x^2 - 1) + x + 1
            ((5, 1), x2_minus_1, [5, 1]),
            ((5, 1, 0), x2_minus_1, [5, 1]),
            ((), x2_minus_1, []),
        )
        for a, b, r in cases:
            assert _rem(list(a), list(b)) == _rem(a, b) == r, (a, b)

    @given(
        st.lists(coefficients, max_size=5),
        st.lists(coefficients, max_size=4),
        st.lists(coefficients, max_size=4),
        st.sampled_from([1, -1]),
    )
    @example([], [5, 1], [0, 0], 1)  # a = r, shorter than b
    @example([2, 0, 3], [1, 2, 3], [4, 0, 9], -1)
    def test_reconstruction(self, q, r, b_low, b_lead):
        """Build a = q*b + r with deg r < deg b and a unit lead in b; the
        division hands back exactly r, by a list divisor and by a tuple."""
        b = b_low + [b_lead]
        rest = IntPoly(r[: len(b_low)])
        a = list(add(convolve(IntPoly(q), IntPoly(b)), rest).coeffs)
        assert _rem(a, b) == _rem(tuple(a), tuple(b)) == list(rest.coeffs)

    def test_dense_oracles_reject_what_they_cannot_divide(self):
        """dense_prem needs deg a >= deg b, as its factor
        lc(b)**(deg a - deg b + 1) would otherwise be a negative power, and
        dense_rem a unit lead; a shorter dividend is dense_rem's own
        remainder."""
        for a in ([5], [], [5, 1]):
            with pytest.raises(ValueError):
                dense_prem(a, [1, 0, -1])
            assert dense_rem(a, [1, 0, -1]) == a
        with pytest.raises(ValueError):
            dense_rem([0, 0, 1], [1, 2])

    def test_non_unit_leading_coefficient_rejected(self):
        for b in ([1, 2], (1, 2)):  # x^2 by 2x + 1
            with pytest.raises(ValueError, match="got 2"):
                _rem([0, 0, 1], b)

    @given(
        st.lists(coefficients, max_size=6),
        st.sampled_from([1, -1]),
        st.lists(coefficients, max_size=8),
        st.integers(0, 3),
    )
    @example([], 1, [], 0)  # deg b == 0, deg a == deg b
    @example([], -1, [5, 0, 7], 2)  # deg b == 0, zero top coefficients
    @example([1, 2], -1, [], 0)  # deg a == deg b, lc(b) = -1
    @example([0, 1], -1, [4, 0, 0, 9], 1)  # skipped steps between real ones
    @example([1, 0, 1], 1, [0], 4)  # a is zero but for its length
    def test_agrees_with_dense_pseudo_division(self, b_low, b_lead, a_low, zero_top):
        """a is padded to at least deg b + 1 coefficients and then gets
        zero_top zero coefficients on top, which still count as steps."""
        b = b_low + [b_lead]
        a = a_low + [0] * (len(b) - len(a_low)) + [0] * zero_top
        # The two dense oracles agree: pseudo-division's lc(b)**steps undone.
        scale = b_lead ** (len(a) - len(b) + 1)
        assert dense_rem(a, b) == [c * scale for c in dense_prem(a, b)]
        assert _rem(a, b) == dense_rem(a, b)
        # As a tuple, b is prepared on the first call and kept for the second.
        divisor = tuple(b)
        assert _rem(a, divisor) == _rem(a, divisor) == dense_rem(a, b)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_path_divisors_and_their_halves(self, k):
        """The divisors the library divides by: q_k, whose every other
        coefficient is zero, and its half F_k (q_k = x**(k % 2) F_k(x**2)),
        which is dense, each also negated, so that both signs of the
        leading coefficient come up for every k.  The dividends take one to
        four steps, both parities of the count, and up to two zero top
        coefficients; one is a multiple of the divisor."""
        rng = random.Random(k)
        q = list(path_charpoly(k).coeffs)
        half = q[k % 2 :: 2]
        for b in (q, [-c for c in q], half, [-c for c in half]):
            multiple = list(convolve(IntPoly(b), path_charpoly(3)).coeffs)
            assert _rem(multiple, b) == dense_prem(multiple, b) == []
            for extra in range(4):
                for zero_top in range(3):
                    a = [rng.randint(-99, 99) for _ in range(len(b) + extra)]
                    a += [0] * zero_top
                    assert _rem(a, b) == dense_rem(a, b)

    def test_kept_tuple_divisor(self):
        """_rem keeps its last tuple divisor prepared.  A dividend it divides
        leaves [], one whose top terms cancel is trimmed as the dense oracle
        says, a tuple led by 2 still raises right after a hit on another
        tuple, and a list divisor changed between two calls is read anew."""
        b = (-1, 0, 1)  # x**2 - 1
        multiple = [-1, -1, 1, 1]  # (x**2 - 1)(x + 1)
        near = [4, -1, 1, 1]  # (x**2 - 1)(x + 1) + 5
        for _ in range(2):
            assert _rem(multiple, b) == dense_prem(multiple, list(b)) == []
            assert _rem(near, b) == dense_rem(near, list(b)) == [5]
        q = path_charpoly(6).coeffs
        a = list(range(1, 11))
        assert _rem(a, q) == _rem(a, q) == dense_rem(a, list(q))
        with pytest.raises(ValueError, match="got 2"):
            _rem(a, (1, 0, 2))
        assert _rem(a, q) == dense_rem(a, list(q))
        divisor = [-1, 0, 1]
        assert _rem([0, 0, 0, 1], divisor) == [0, 1]
        divisor[0] = 1  # x**2 + 1
        assert _rem([0, 0, 0, 1], divisor) == [0, -1]


class TestResultant:
    def test_frozen_examples(self):
        assert resultant(path_charpoly(1), path_charpoly(2)) == -1
        assert resultant(path_charpoly(2), path_charpoly(3)) == -1
        assert resultant(X, X) == 0
        x2_plus_1 = IntPoly((1, 0, 1))
        assert resultant(IntPoly((-1, 0, 1)), IntPoly((-1, 1))) == 0  # x^2 - 1, x - 1
        assert resultant(IntPoly((-2, 1)), IntPoly((-3, 1))) == -1  # x - 2, x - 3
        assert resultant(IntPoly((3,)), x2_plus_1) == 9
        assert resultant(x2_plus_1, IntPoly((3,))) == 9

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            resultant(ZERO, X)
        with pytest.raises(ValueError):
            resultant(X, ZERO)

    def test_swap_sign_rule(self):
        for n in range(0, 13):
            for m in range(0, 13):
                f, g = path_charpoly(n), path_charpoly(m)
                expected = resultant(g, f) * (-1) ** (n * m)
                assert resultant(f, g) == expected

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 101, 200, 299, 300])
    def test_consecutive_path_polynomials(self, n):
        """A sequence n steps deep in which every divisor is +1 or -1."""
        assert resultant(path_charpoly(n), path_charpoly(n + 1)) == (-1) ** (n * (n + 1) // 2)

    def test_multiplicative_in_the_first_argument(self):
        # Every remainder of the three sequences is led by +1 or -1.
        f1, f2, g = IntPoly((-1, 1)), IntPoly((3, 1, 1)), IntPoly((1, 0, 1))
        assert resultant(convolve(f1, f2), g) == resultant(f1, g) * resultant(f2, g) == 10

    def test_root_product_meaning_on_factored_input(self):
        # f = (x-1)(x-2), g evaluated at 1 and 2, lc(f)^deg(g) = 1; the one
        # remainder, f - g = -x - 3, is led by -1.
        f = IntPoly((2, -3, 1))  # (x - 1)(x - 2)
        g = IntPoly((5, -2, 1))  # x^2 - 2x + 5
        assert resultant(f, g) == evaluate(g, 1) * evaluate(g, 2) == 20

    def test_remainder_led_by_a_non_unit_is_rejected(self):
        # (x-1)(x-2) mod x^2 + 1 is -3x + 1.
        with pytest.raises(ValueError, match=r"got -3$"):
            resultant(IntPoly((2, -3, 1)), IntPoly((1, 0, 1)))

    @given(generic_polys, generic_polys)
    @example(IntPoly((-3, 2, 0, 1)), IntPoly((1, 0, 1)))  # unit-led throughout
    @example(IntPoly((2, -3, 1)), IntPoly((1, 0, 1)))  # rejected at its first remainder
    @example(IntPoly((3,)), IntPoly((-2,)))  # two constants
    def test_equals_the_sylvester_determinant_or_raises(self, f, g):
        """resultant never returns a wrong value: on a divisor led by
        anything but +1 or -1 it raises instead."""
        try:
            value = resultant(f, g)
        except ValueError:
            return
        assert value == sylvester_resultant(f, g)


def from_json(text: str) -> IntPoly:
    """Decode the `charpoly` wire format: a JSON array of decimal strings."""
    return IntPoly(tuple(int(c) for c in json.loads(text)))


class TestJsonForms:
    def test_frozen_round_trip(self):
        text = poly_to_json(path_charpoly(3))
        assert text == '["0", "2", "0", "-1"]'
        assert from_json(text) == path_charpoly(3)

    def test_zero_and_big_values(self):
        assert poly_to_json(ZERO) == "[]"
        assert from_json("[]") == ZERO
        big = IntPoly((10**30, -(3**80)))
        assert from_json(poly_to_json(big)) == big
        # the wire values really are strings
        assert all(isinstance(item, str) for item in json.loads(poly_to_json(big)))

    @given(small_polys)
    def test_round_trip(self, p):
        assert from_json(poly_to_json(p)) == p
