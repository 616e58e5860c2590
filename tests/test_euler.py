import math
from fractions import Fraction

import pytest

from qcong.euler import (
    euler_numbers,
    euler_polynomial,
    euler_polynomial_value,
)
from test_lehmer import higher_order_euler


def test_euler_numbers_table():
    table = euler_numbers(12)
    assert table[0] == 1
    assert table[2] == -1
    assert table[4] == 5
    assert table[6] == -61
    assert table[8] == 1385
    assert table[10] == -50521
    assert table[12] == 2702765
    assert all(table[n] == 0 for n in range(1, 13, 2))
    with pytest.raises(ValueError):
        euler_numbers(-1)


def test_euler_polynomials_small():
    assert euler_polynomial(0) == [Fraction(1)]
    assert euler_polynomial(1) == [Fraction(-1, 2), Fraction(1)]
    assert euler_polynomial(2) == [Fraction(0), Fraction(-1), Fraction(1)]
    assert euler_polynomial(3) == [Fraction(1, 4), Fraction(0), Fraction(-3, 2), Fraction(1)]
    # monic of degree m
    for m in range(10):
        c = euler_polynomial(m)
        assert len(c) == m + 1 and c[-1] == 1


def test_reflection_identity():
    # E_m(x+1) + E_m(x) = 2 x^m, checked at m+2 points
    for m in range(21):
        for x in range(m + 2):
            lhs = euler_polynomial_value(m, x + 1) + euler_polynomial_value(m, x)
            assert lhs == 2 * Fraction(x) ** m


def test_euler_number_polynomial_bridge():
    table = euler_numbers(20)
    for n in range(11):
        assert euler_polynomial_value(2 * n, Fraction(1, 2)) * 4 ** n == table[2 * n]


def test_higher_order_euler_values():
    assert higher_order_euler(1, 0) == 1
    assert higher_order_euler(1, 2) == -1
    table = euler_numbers(16)
    for n in range(17):
        assert higher_order_euler(1, n) == table[n]


def test_euler_numbers_satisfy_binomial_recurrence():
    # sum_k C(2n, 2k) E_2k = 0 for n >= 1: the definition the boustrophedon
    # replaced
    table = euler_numbers(400)
    assert len(table) == 401 and table[0] == 1
    for n in range(1, 201):
        assert sum(math.comb(2 * n, 2 * k) * table[2 * k] for k in range(n + 1)) == 0
    assert all(table[n] == 0 for n in range(1, 401, 2))
    assert euler_numbers(0) == [1] and euler_numbers(1) == [1, 0]


def test_polynomial_value_matches_rational_horner():
    points = (0, 1, 7, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(5, 12), "3/4")
    for m in range(31):
        coeffs = euler_polynomial(m)
        for x in points:
            expected = Fraction(0)
            for c in reversed(coeffs):
                expected = expected * Fraction(x) + c
            value = euler_polynomial_value(m, x)
            assert type(value) is Fraction and value == expected, (m, x)
    with pytest.raises(ValueError):
        euler_polynomial_value(-1, 0)


def _recurrence_polynomials(count):
    # E_k(x) = x^k - 1/2 sum(C(k, i) E_(k-i)(x), i = 1..k), k! times the t^k
    # coefficient of (e^t + 1)/2 * sum E_m(x) t^m / m! = e^(xt): the
    # O(m^3) series recurrence that the zigzag numbers replaced
    polys = [[Fraction(1)]]
    for k in range(1, count + 1):
        coeffs = [Fraction(0)] * k + [Fraction(1)]
        for i in range(1, k + 1):
            w = Fraction(math.comb(k, i), 2)
            for j, c in enumerate(polys[k - i]):
                coeffs[j] -= w * c
        polys.append(coeffs)
    return polys


def test_euler_polynomials_match_the_series_recurrence():
    from qcong import euler

    for m, want in enumerate(_recurrence_polynomials(60)):
        assert euler_polynomial(m) == want, m
        # one common denominator, in lowest terms
        nums, den = euler._integer_form(m)
        assert den == math.lcm(*(c.denominator for c in want))
        assert [Fraction(c, den) for c in nums] == want
    assert euler._integer_form.cache_info().maxsize is not None


def test_zigzag_table_grows_and_keeps_its_prefix():
    big = euler_numbers(300)
    assert euler_numbers(40) == big[:41]
    assert euler_numbers(301)[:301] == big
