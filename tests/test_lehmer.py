import math
from fractions import Fraction

import pytest

from qcong.euler import euler_numbers, higher_order_euler
from qcong.lehmer import lehmer_euler_numbers


def _series_power_reference(r, alpha, count):
    """n! [t^n] f^(-alpha), f = sum t^(rl)/(rl)!, by truncated series
    inversion and alpha products over Q: the construction that Miller's
    recurrence replaced."""
    f = [Fraction(1, math.factorial(i)) if i % r == 0 else Fraction(0)
         for i in range(count + 1)]
    inv = [Fraction(1)] + [Fraction(0)] * count
    for m in range(1, count + 1):
        inv[m] = -sum(f[i] * inv[m - i] for i in range(1, m + 1))
    g = [Fraction(1)] + [Fraction(0)] * count
    for _ in range(alpha):
        g = [sum(g[i] * inv[m - i] for i in range(m + 1)) for m in range(count + 1)]
    return [math.factorial(n) * g[n] for n in range(count + 1)]


def test_order_one_inverts_base_series():
    # sum_k C(n, k) [r | k] W_(n-k) is n! [t^n] of f * f^-1 = 1
    for r in (1, 2, 3, 4):
        w = lehmer_euler_numbers(r, 1, 20)
        for n in range(21):
            conv = sum(math.comb(n, k) * w[n - k] for k in range(0, n + 1, r))
            assert conv == (1 if n == 0 else 0), (r, n)


def test_rejects_out_of_range_arguments():
    for r, alpha, count in ((0, 1, 3), (2, 0, 3), (2, 1, -1)):
        with pytest.raises(ValueError):
            lehmer_euler_numbers(r, alpha, count)


def test_r2_order1_matches_seidel_euler_numbers():
    # sech t = 1 - t^2/2 + 5 t^4/24 - ...
    w = lehmer_euler_numbers(2, 1, 120)
    sech = [v / math.factorial(n) for n, v in enumerate(w[:6])]
    assert sech == [1, 0, Fraction(-1, 2), 0, Fraction(5, 24), 0]
    # two independent recurrences: Miller's power and Seidel's boustrophedon
    assert w == euler_numbers(120)


def test_matches_series_power_reference():
    for r, alpha, count in ((1, 3, 15), (2, 4, 30), (3, 5, 30), (4, 7, 25), (5, 2, 40)):
        assert lehmer_euler_numbers(r, alpha, count) == _series_power_reference(
            r, alpha, count), (r, alpha, count)


def test_values_are_exact_fractions():
    # an empty recurrence sum (m < r, and every odd m at r = 2) must still
    # give a Fraction, never the float 0.0
    for r in (1, 2, 3, 4, 5, 7, 20):
        for alpha in (1, 2, 3, 50):
            w = lehmer_euler_numbers(r, alpha, 16)
            assert all(type(v) is Fraction for v in w), (r, alpha)


def test_lehmer_euler_r1_is_minus_alpha_powers():
    for alpha in (1, 2, 5):
        w = lehmer_euler_numbers(1, alpha, 9)
        assert w == [Fraction((-alpha) ** n) for n in range(10)]


def test_lehmer_euler_r2_order1_is_euler():
    w = lehmer_euler_numbers(2, 1, 24)
    table = euler_numbers(24)
    assert w == [Fraction(e) for e in table]
    # explicit spot row mentioned everywhere: 1, 0, -1, 0, 5, 0, -61
    assert w[:7] == [1, 0, -1, 0, 5, 0, -61]


def test_lehmer_euler_constant_term():
    for r in (1, 2, 3, 4):
        for alpha in (1, 2, 3):
            assert lehmer_euler_numbers(r, alpha, 0) == [1]


def test_order_multiplicativity():
    for r in (1, 2, 3):
        for a, b in ((1, 1), (1, 2), (2, 2)):
            wa = lehmer_euler_numbers(r, a, 12)
            wb = lehmer_euler_numbers(r, b, 12)
            wab = lehmer_euler_numbers(r, a + b, 12)
            for n in range(13):
                conv = sum(
                    math.comb(n, k) * wa[k] * wb[n - k] for k in range(n + 1)
                )
                assert conv == wab[n]


def test_agrees_with_higher_order_euler():
    for alpha in (1, 2, 3, 4):
        w = lehmer_euler_numbers(2, alpha, 10)
        for n in range(11):
            assert w[n] == higher_order_euler(alpha, n)


def test_w_values_are_integers_for_r_le_2():
    for r, alpha in ((1, 3), (2, 2), (2, 4)):
        for v in lehmer_euler_numbers(r, alpha, 12):
            assert v.denominator == 1
