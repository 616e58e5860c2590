"""Euler numbers, Euler polynomials and higher-order Euler numbers.

Euler polynomials come from exact truncated-series division of 2e^(xt) by
e^t + 1 over the rationals, not from a lookup table, so every value here
is recomputable from one definition. The alternating-power-sum identity
and its harmonic congruence mod p that they satisfy are the statements
identity_t0 and cong_t0a of the registry in statements.py.
"""

from __future__ import annotations

import math
from fractions import Fraction


def euler_numbers(count: int) -> list[int]:
    """E_0 .. E_count by the recurrence sum(C(2n,2k) E_2k, k=0..n) = 0.

    Odd indices are zero.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    table = [0] * (count + 1)
    table[0] = 1
    for n in range(1, count // 2 + 1):
        table[2 * n] = -sum(
            math.comb(2 * n, 2 * k) * table[2 * k] for k in range(n)
        )
    return table


# s_m = E_m(x)/m! as ascending Fraction coefficient lists, from
# (e^t + 1)/2 * sum s_m t^m = e^(xt)
_scaled_cache: list[list[Fraction]] = [[Fraction(1)]]


def _scaled_euler_poly(m: int) -> list[Fraction]:
    while len(_scaled_cache) <= m:
        k = len(_scaled_cache)
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1, math.factorial(k))
        for i in range(1, k + 1):
            prev = _scaled_cache[k - i]
            w = Fraction(1, 2 * math.factorial(i))
            for j, c in enumerate(prev):
                coeffs[j] -= w * c
        _scaled_cache.append(coeffs)
    return _scaled_cache[m]


def euler_polynomial(m: int) -> list[Fraction]:
    """Ascending coefficients of the Euler polynomial E_m(x); monic, degree m.

    >>> euler_polynomial(1)
    [Fraction(-1, 2), Fraction(1, 1)]
    >>> euler_polynomial(2)
    [Fraction(0, 1), Fraction(-1, 1), Fraction(1, 1)]
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    fact = math.factorial(m)
    return [c * fact for c in _scaled_euler_poly(m)]


def euler_polynomial_value(m: int, x) -> Fraction:
    """E_m evaluated at a rational point."""
    acc = Fraction(0)
    x = Fraction(x)
    for c in reversed(euler_polynomial(m)):
        acc = acc * x + c
    return acc


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
