"""Euler numbers, Euler polynomials and higher-order Euler numbers.

Euler polynomials come from exact truncated-series division of 2e^(xt) by
e^t + 1 over the rationals, not from a lookup table, so every value here
is recomputable from one definition. Each E_m is kept once, as integer
numerators over one common denominator; its coefficient list and its
values E_m(x) are both read from that form. The Euler numbers come from Seidel's boustrophedon, which only adds integers.
The alternating-power-sum identity and its harmonic congruence mod p that
they satisfy are the statements identity_t0 and cong_t0a of the registry
in statements.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate


def euler_numbers(count: int) -> list[int]:
    """E_0 .. E_count by Seidel's boustrophedon; odd indices are zero.

    Row n of the Seidel-Entringer triangle is 0 followed by the running
    sums of row n - 1 read backwards; its last entry is the zigzag number
    A_n, and E_2n = (-1)^n A_2n.

    >>> euler_numbers(8)
    [1, 0, -1, 0, 5, 0, -61, 0, 1385]
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    table = [0] * (count + 1)
    table[0] = 1
    row = [1]
    for n in range(1, count + 1):
        row = [0, *accumulate(reversed(row))]
        if n % 2 == 0:
            table[n] = -row[-1] if n % 4 else row[-1]
    return table


# E_m(x) = sum(nums[j] x^j) / den as (nums, den), den the lcm of the
# denominators; k! times the t^k coefficient of
# (e^t + 1)/2 * sum E_m(x) t^m / m! = e^(xt) gives
# E_k(x) = x^k - 1/2 sum(C(k, i) E_(k-i)(x), i = 1..k)
_integer_forms: list[tuple[tuple[int, ...], int]] = [((1,), 1)]


def _integer_form(m: int) -> tuple[tuple[int, ...], int]:
    if m < 0:
        raise ValueError("m must be >= 0")
    while len(_integer_forms) <= m:
        k = len(_integer_forms)
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        for i in range(1, k + 1):
            nums, den = _integer_forms[k - i]
            w = Fraction(math.comb(k, i), 2 * den)
            for j, c in enumerate(nums):
                coeffs[j] -= w * c
        den = math.lcm(*(c.denominator for c in coeffs))
        _integer_forms.append((tuple(int(c * den) for c in coeffs), den))
    return _integer_forms[m]


def euler_polynomial(m: int) -> list[Fraction]:
    """Ascending coefficients of the Euler polynomial E_m(x); monic, degree m.

    >>> euler_polynomial(1)
    [Fraction(-1, 2), Fraction(1, 1)]
    >>> euler_polynomial(2)
    [Fraction(0, 1), Fraction(-1, 1), Fraction(1, 1)]
    """
    nums, den = _integer_form(m)
    return [Fraction(c, den) for c in nums]


def euler_polynomial_value(m: int, x) -> Fraction:
    """E_m evaluated at a rational point.

    With x = a/b in lowest terms, b^m den E_m(x) = sum(nums[j] a^j b^(m-j))
    is an integer Horner loop.

    >>> euler_polynomial_value(3, Fraction(1, 2))
    Fraction(0, 1)
    """
    nums, den = _integer_form(m)
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    acc, bpow = 0, 1
    for c in reversed(nums):
        acc = acc * a + c * bpow
        bpow *= b
    return Fraction(acc, den * b ** m)


def higher_order_euler(alpha: int, n: int) -> Fraction:
    """Order-alpha Euler number E_n^(alpha) by the explicit double sum

    sum_k C(alpha+k-1,k) C(alpha+n, n-k) (-1/2)^k sum_j C(k,j) (k-2j)^n.
    """
    if alpha < 1 or n < 0:
        raise ValueError("need alpha >= 1 and n >= 0")
    total = Fraction(0)
    for k in range(n + 1):
        inner = sum(math.comb(k, j) * (k - 2 * j) ** n for j in range(k + 1))
        total += (
            math.comb(alpha + k - 1, k)
            * math.comb(alpha + n, n - k)
            * Fraction(-1, 2) ** k
            * inner
        )
    return total
