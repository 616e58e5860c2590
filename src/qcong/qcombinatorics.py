"""Constructors for the standard q-objects: q-integers, Pochhammer products
of the form prod (1 - q^(m*j)), Gaussian binomials, the q-analogue of the
Fermat quotient, and three flavors of q-harmonic sums.

All results are exact. Gaussian binomials come from their ratio
recurrence on coefficients packed into one integer (see q_binomial), so
no large polynomial division is needed; the Fermat quotient's Pochhammer
ratio is a product of shift-adds. Every sum of c/(1 - q^m), the q-harmonic
sums among them, goes through frac_sum: the terms are added over their
known common denominator, a product of cyclotomic polynomials, and the sum
is reduced once. The heavily reused constructors are memoized since
statement verification calls them across overlapping parameter grids.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclotomic import cyclotomic, divisors
from .exact import ONE, Poly, QExpr, ZERO, _mk, _unpack, _width


@lru_cache(maxsize=None)
def q_integer(n: int) -> Poly:
    """[n] = 1 + q + ... + q^(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q_integer needs n >= 0")
    return Poly((1,) * n)


@lru_cache(maxsize=None)
def q_pochhammer(base_exp: int, count: int) -> Poly:
    """prod_{j=1}^{count} (1 - q^(base_exp * j)); empty product is 1.

    base_exp=1 gives (q;q)_count and base_exp=2 gives (q^2;q^2)_count.
    """
    if base_exp < 1:
        raise ValueError("base_exp must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return ONE
    prev = q_pochhammer(base_exp, count - 1)
    m = base_exp * count
    return prev - prev.shifted(m)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> Poly:
    """Gaussian binomial coefficient; 0 outside 0 <= k <= n.

    Built by the ratio recurrence [n, j] = [n, j-1] (1 - q^(n-j+1)) / (1 - q^j)
    for j = 1..min(k, n-k), on one integer that packs the coefficients at
    B = 2^W. Multiplying by 1 - q^m is a shift and a subtraction; dividing
    by 1 - q^j multiplies by 1 + B^j + B^(2j) + ... and is checked exactly.

    >>> q_binomial(4, 2)
    Poly([1, 1, 2, 1, 1])
    """
    if k < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    # Width: the coefficients of [n, j] are nonnegative and sum to
    # C(n, j) <= C(n, k). Times (1 - q^m) they stay within 2 C(n, k), and
    # every partial sum of the stride-j doubling below telescopes to
    # y_i - y_(i-s), also within 2 C(n, k). W - 1 >= bits(C(n, k)) + 2 keeps
    # all of these inside a slot, so every integer below is its polynomial
    # at B digit for digit, and both checks below pass.
    total = math.comb(n, k)
    w = _width(total.bit_length() + 2)
    bits = 8 * w
    x = 1
    for j in range(1, k + 1):
        x -= x << ((n - j + 1) * bits)
        # x = (1 - B^j) [n, j](B); y = x (1 + B^j + ... + B^(s-j))
        # = [n, j](B) (1 - B^s) once s reaches the length j(n-j) + 1
        size = j * (n - j) + 1
        y, s = x, j
        while s < size:
            y += y << (s * bits)
            s *= 2
        top = 1 << (s * bits - 1)
        low = ((y + top) & ((top << 1) - 1)) - top
        # x = (1 - B^j) low in Z: the division is exact, so after k steps
        # x = [n, k](B)
        if x != low - (low << (j * bits)):
            raise ArithmeticError(f"[{n}, {j}] did not divide exactly")
        x = low
    # Base-B digits that are all >= 0 and sum to [n, k](1) = C(n, k) are
    # [n, k]'s own coefficients: those are >= 0 too, and every carry
    # between slots would lower the digit sum by B - 1.
    coeffs = _unpack(x, k * (n - k) + 1, w)
    if coeffs is None or min(coeffs) < 0 or sum(coeffs) != total:
        raise ArithmeticError(f"[{n}, {k}] overflowed its {w}-byte slots")
    return _mk(coeffs)


@lru_cache(maxsize=None)
def q_fermat_quotient(m: int, n: int) -> QExpr:
    """((q^m;q^m)_{n-1} / (q;q)_{n-1} - 1) / [n].

    At q = 1 this degenerates to the classical Fermat quotient
    (m^(n-1) - 1)/n. The inner quotient is the polynomial
    prod_{j<n} (1 + q^j + ... + q^((m-1)j)), built by shift-adds, so only
    the final division by [n] is a fraction.
    """
    if m < 1 or n < 1:
        raise ValueError("q_fermat_quotient needs m >= 1 and n >= 1")
    ratio = ONE
    for j in range(1, n):
        ratio = sum((ratio.shifted(i * j) for i in range(m)), ZERO)
    return QExpr(ratio - 1, q_integer(n))


def frac_sum(terms) -> QExpr:
    """sum c / (1 - q^m) over the pairs (c, m), c a Poly or int, m >= 1.

    1 - q^m = -prod_{d | m} Phi_d, so L = prod Phi_d over every d dividing
    some m is a common denominator: each term is c * L / (1 - q^m) over L,
    by one exact division, and the sum is canonicalized once.

    >>> frac_sum([(1, 1), (Poly([1, 1]), 2)]) == QExpr(2, Poly([1, -1]))
    True
    """
    terms = list(terms)
    den = ONE
    for d in sorted({d for _, m in terms for d in divisors(m)}):
        den = den * cyclotomic(d)
    num = ZERO
    for c, m in terms:
        num = num + c * den.exact_div(ONE - Poly.monomial(m))
    return QExpr(num, den)


def q_harmonic(kind: str, bound: int) -> QExpr:
    """Partial q-harmonic sum up to the given bound; 0 for bound = 0.

    kind "plain_even" sums 1/[2k], "alternating" sums (-1)^k/[k], and
    "alternating_q" sums (-q)^k/[k], each for k = 1..bound, through
    frac_sum with 1/[k] = (1 - q)/(1 - q^k).
    """
    one_minus_q = Poly([1, -1])
    term = {
        "plain_even": lambda k: (one_minus_q, 2 * k),
        "alternating": lambda k: ((-1) ** k * one_minus_q, k),
        "alternating_q": lambda k: ((-1) ** k * one_minus_q.shifted(k), k),
    }.get(kind)
    if term is None:
        raise ValueError(f"unknown harmonic kind {kind!r}")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    return frac_sum(map(term, range(1, bound + 1)))
