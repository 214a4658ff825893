"""Polynomial layer: arithmetic, the path recurrence, division, resultants."""
from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import (
    X,
    Parity,
    charpoly_by_cofactor,
    convolve,
    dense_prem,
    parity,
    recurrence_charpoly,
    recurrence_charpolys,
    repeated_power,
    sylvester_resultant,
)
from boxdet.polynomials import (
    NEG_INFINITY,
    ONE,
    ZERO,
    IntPoly,
    _rem,
    path_charpoly,
    poly_to_json,
    pseudo_rem,
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
        assert (2 * X**3 - X).leading_coefficient == 2
        assert ONE.leading_coefficient == 1
        with pytest.raises(ValueError):
            ZERO.leading_coefficient

    def test_arithmetic_examples(self):
        assert (X + 1) * (X - 1) == X**2 - 1
        assert (X**2 - 1) + ONE == X**2
        assert ZERO + (X**2 - 1) == X**2 - 1
        assert X * -1 + X * -1 == -2 * X
        assert (X * -1) * (X * -1) == X**2
        assert (X**2 - 1) * ONE == X**2 - 1
        assert (X**2 - 1) ** 2 == X**4 - 2 * X**2 + 1
        assert (X * -1) ** 3 == IntPoly((0, 0, 0, -1))
        assert X**0 == ONE
        assert 2 * X == X + X
        assert (X + 2) - (X + 2) == ZERO

    def test_evaluation_examples(self):
        q2 = path_charpoly(2)
        assert evaluate(q2, 3) == 8
        assert evaluate(q2, 0) == -1
        assert evaluate(ZERO, 17) == 0
        assert evaluate(X**3 - 2 * X, 5) == 115

    @given(small_polys, small_polys, st.integers(-20, 20))
    def test_evaluation_is_a_ring_homomorphism(self, p, q, v):
        assert evaluate(p + q, v) == evaluate(p, v) + evaluate(q, v)
        assert evaluate(p - q, v) == evaluate(p, v) - evaluate(q, v)
        assert evaluate(p * q, v) == evaluate(p, v) * evaluate(q, v)

    @given(small_polys, small_polys)
    @example(X**2 + 1, X**2 - 1)  # the top coefficients cancel
    @example(X, X**3 + X)  # the subtrahend is the longer
    def test_difference_matches_coefficientwise(self, p, q):
        size = max(len(p.coeffs), len(q.coeffs))
        a = list(p.coeffs) + [0] * (size - len(p.coeffs))
        b = list(q.coeffs) + [0] * (size - len(q.coeffs))
        assert p - q == IntPoly(tuple(x - y for x, y in zip(a, b)))
        assert (p - q).coeffs[-1:] != (0,)
        assert p - 3 == p + IntPoly((-3,))

    @given(small_polys, small_polys)
    def test_degree_of_product(self, p, q):
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree


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
        assert p * q == convolve(p, q)
        assert q * p == convolve(p, q)

    @given(product_operands, st.integers(0, 8))
    @example(path_charpoly(21), 4)
    @example(ZERO, 0)
    def test_power_matches_repeated_multiplication(self, p, a):
        assert p**a == repeated_power(p, a)

    @pytest.mark.parametrize("a", range(17))
    def test_power_squares_only_while_bits_remain(self, monkeypatch, a):
        """Square-and-multiply needs bit_length(a) - 1 squarings and one
        product per set bit; a squaring after the last bit is wasted."""
        base = path_charpoly(7)
        counts = {"squarings": 0, "products": 0}
        real_mul = IntPoly.__mul__

        def counting_mul(self, other):
            counts["squarings" if self is other else "products"] += 1
            return real_mul(self, other)

        monkeypatch.setattr(IntPoly, "__mul__", counting_mul)
        base**a
        assert counts["squarings"] <= max(a.bit_length() - 1, 0)
        assert counts["products"] <= bin(a).count("1")


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
        minus_x = X * -1
        for n in range(2, 51):
            q = path_charpoly(n)
            assert q == minus_x * path_charpoly(n - 1) - path_charpoly(n - 2)

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
        assert parity(X**2 - 1) == Parity.EVEN
        assert parity(X**3 - 2 * X) == Parity.ODD
        assert parity(X + 1) == Parity.NEITHER
        assert parity(ZERO) == Parity.EVEN


def _divide_exactly(num: IntPoly, den: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Schoolbook long division for unit-lc divisors, built only from the
    ring operations so it is independent of pseudo_rem."""
    quotient, rest = ZERO, num
    while not rest.is_zero and rest.degree >= den.degree:
        step = IntPoly(
            (0,) * int(rest.degree - den.degree)
            + (rest.leading_coefficient * den.leading_coefficient,)
        )
        quotient = quotient + step
        rest = rest - step * den
    return quotient, rest


class TestPseudoRem:
    def test_examples(self):
        # x^2 = (-x)(-x) + 0
        assert pseudo_rem(X**2, X * -1).is_zero
        assert pseudo_rem(X, X * -1).is_zero
        # q_3 = -x(x^2 - 2) is a multiple of q_1 = -x
        assert pseudo_rem(path_charpoly(3), path_charpoly(1)).is_zero
        # self-division
        assert pseudo_rem(X**2 - 1, X**2 - 1).is_zero
        # x^3 + 1 mod x^2 - 1: quotient x, remainder x + 1
        assert pseudo_rem(X**3 + 1, X**2 - 1) == X + 1
        # degree of a below degree of b: a comes back unchanged
        assert pseudo_rem(X + 5, X**2 - 1) == X + 5

    def test_difference_is_divisible_by_the_divisor(self):
        """Spot-check a - r against an independent long division: the
        difference must divide exactly by b with zero residue."""
        rng = random.Random(1234)
        for divisor_size in range(1, 11):
            b = path_charpoly(divisor_size)
            for _ in range(5):
                a = IntPoly(
                    tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 21)))
                )
                r = pseudo_rem(a, b)
                assert r.is_zero or r.degree < b.degree
                quotient, residue = _divide_exactly(a - r, b)
                assert residue.is_zero
                assert quotient * b == a - r

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            pseudo_rem(X, ZERO)

    def test_non_unit_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            pseudo_rem(X**2, 2 * X + 1)

    @given(
        st.lists(st.integers(-9, 9), max_size=5),
        st.lists(st.integers(-9, 9), min_size=0, max_size=3),
        st.integers(1, 4),
        st.sampled_from([1, -1]),
    )
    def test_reconstruction(self, q_coeffs, r_coeffs, b_degree, b_lead):
        """Build a = q*b + r with deg r < deg b and unit lc(b); the division
        must hand back exactly r."""
        b = IntPoly(tuple(r_coeffs[:b_degree])) + IntPoly((0,) * b_degree + (b_lead,))
        q = IntPoly(tuple(q_coeffs))
        r = IntPoly(tuple(r_coeffs[: b_degree]))
        assert pseudo_rem(q * b + r, b) == r


coefficients = st.integers(-30, 30)
# Nonzero, of degree at most 4, with leads of every size up to 3.
generic_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=5).map(
    lambda cs: IntPoly(tuple(cs))
).filter(lambda p: not p.is_zero)


def dense_rem(a: list[int], b: list[int]) -> list[int]:
    """a mod b for a unit lc(b): the dense pseudo-remainder, scaled by
    lc(b)**steps again, which undoes the scaling."""
    scale = b[-1] ** (len(a) - len(b) + 1)
    return [c * scale for c in dense_prem(a, b)]


class TestWindowedPrem:
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
            multiple = list((IntPoly(b) * path_charpoly(3)).coeffs)
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
        assert resultant(X**2 - 1, X - 1) == 0
        assert resultant(X - 2, X - 3) == -1
        assert resultant(IntPoly((3,)), X**2 + 1) == 9
        assert resultant(X**2 + 1, IntPoly((3,))) == 9

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
        f1, f2, g = X - 1, X**2 + X + 3, X**2 + 1
        assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g) == 10

    def test_root_product_meaning_on_factored_input(self):
        # f = (x-1)(x-2), g evaluated at 1 and 2, lc(f)^deg(g) = 1; the one
        # remainder, f - g = -x - 3, is led by -1.
        f = (X - 1) * (X - 2)
        g = X**2 - 2 * X + 5
        assert resultant(f, g) == evaluate(g, 1) * evaluate(g, 2) == 20

    def test_remainder_led_by_a_non_unit_is_rejected(self):
        # (x-1)(x-2) mod x^2 + 1 is -3x + 1.
        with pytest.raises(ValueError, match=r"got -3$"):
            resultant((X - 1) * (X - 2), X**2 + 1)

    @given(generic_polys, generic_polys)
    @example(X**3 + 2 * X - 3, X**2 + 1)  # unit-led throughout
    @example((X - 1) * (X - 2), X**2 + 1)  # rejected at its first remainder
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
