"""Euler numbers and Euler polynomials.

Euler numbers and polynomials come from one table, the zigzag numbers
A_n that Seidel's boustrophedon forms by adding integers; it is kept and
extended as larger indices are asked for. The Euler numbers are
E_2k = (-1)^k A_2k, and the values E_k(0) are 0 for even k >= 2 and
(-1)^((k+1)/2) A_k / 2^k for odd k. Euler polynomials are an Appell
sequence, so E_m(x) = sum_k C(m, k) E_k(0) x^(m-k) is read from m + 1
zigzag numbers, kept as integer numerators over one common denominator;
its coefficient list and its values E_m(x) are both read from that
form. The alternating-power-sum identity and its harmonic congruence
mod p that they satisfy are the statements identity_t0 and cong_t0a of
the registry in statements.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice


def _boustrophedon():
    """A_0, A_1, ...: row n of the Seidel-Entringer triangle is 0 followed
    by the running sums of row n - 1 read backwards, and ends in the
    zigzag number A_n."""
    row = [1]
    while True:
        yield row[-1]
        row = [0, *accumulate(reversed(row))]


_zigzag_stream = _boustrophedon()
_zigzag = []  # the zigzag numbers taken from the stream so far


def _zigzags(count: int) -> list[int]:
    """A_0 .. A_count, and any more already formed."""
    _zigzag.extend(islice(_zigzag_stream, max(0, count + 1 - len(_zigzag))))
    return _zigzag


def euler_numbers(count: int) -> list[int]:
    """E_0 .. E_count by Seidel's boustrophedon; odd indices are zero.

    >>> euler_numbers(8)
    [1, 0, -1, 0, 5, 0, -61, 0, 1385]
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    a = _zigzags(count)
    return [0 if n % 2 else -a[n] if n % 4 else a[n] for n in range(count + 1)]


@lru_cache(maxsize=32)
def _integer_form(m: int) -> tuple[tuple[int, ...], int]:
    """(nums, den) with E_m(x) = sum(nums[j] x^j) / den, in lowest terms.

    With z_i = 2^i E_i(0), that is z_0 = 1, z_i = 0 for even i > 0 and
    z_i = (-1)^((i+1)/2) A_i for odd i, the Appell sum gives
    nums[j] = C(m, j) z_(m-j) 2^j over den = 2^m.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    a = _zigzags(m)
    z = [1] + [0 if i % 2 == 0 else -a[i] if i % 4 == 1 else a[i]
               for i in range(1, m + 1)]
    nums = [math.comb(m, j) * z[m - j] << j for j in range(m + 1)]
    g = math.gcd(1 << m, *nums)
    return tuple(c // g for c in nums), (1 << m) // g


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

