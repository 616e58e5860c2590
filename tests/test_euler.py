import math
from fractions import Fraction

import pytest

from qcong.euler import (
    euler_numbers,
    euler_polynomial,
    euler_polynomial_value,
    higher_order_euler,
)


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
    with pytest.raises(ValueError):
        higher_order_euler(0, 1)


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
