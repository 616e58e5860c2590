"""Constructors for the standard q-objects: q-integers, Pochhammer products
of the form prod (1 - q^(m*j)), Gaussian binomials, the q-analogue of the
Fermat quotient, and three flavors of q-harmonic sums.

All results are exact. Gaussian binomials come from their ratio
recurrence on coefficients packed into one integer (see q_binomial), so
no large polynomial division is needed. The heavily reused constructors
are memoized since statement verification calls them across overlapping
parameter grids.
"""

from __future__ import annotations

import math
from functools import lru_cache

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
def _odd_half_product(n: int) -> Poly:
    # prod_{k=1}^{n-1} (1 + q^k), the m=2 Fermat quotient core
    out = ONE
    for k in range(1, n):
        out = out + out.shifted(k)
    return out


@lru_cache(maxsize=None)
def q_fermat_quotient(m: int, n: int) -> QExpr:
    """((q^m;q^m)_{n-1} / (q;q)_{n-1} - 1) / [n].

    At q = 1 this degenerates to the classical Fermat quotient
    (m^(n-1) - 1)/n. For m = 2 the inner quotient collapses to the
    polynomial prod_{k<n} (1 + q^k), so only one division happens.
    """
    if m < 1 or n < 1:
        raise ValueError("q_fermat_quotient needs m >= 1 and n >= 1")
    if m == 2:
        return QExpr(_odd_half_product(n) - 1, q_integer(n))
    ratio = QExpr(q_pochhammer(m, n - 1), q_pochhammer(1, n - 1))
    return (ratio - 1) / QExpr(q_integer(n))


_HARMONIC_KINDS = ("plain_even", "alternating", "alternating_q")
_harmonic_prefix: dict[str, list[QExpr]] = {}


def q_harmonic(kind: str, bound: int) -> QExpr:
    """Partial q-harmonic sum up to the given bound; 0 for bound = 0.

    kind "plain_even" sums 1/[2k], "alternating" sums (-1)^k/[k], and
    "alternating_q" sums (-q)^k/[k], each for k = 1..bound.
    """
    if kind not in _HARMONIC_KINDS:
        raise ValueError(f"unknown harmonic kind {kind!r}")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    prefix = _harmonic_prefix.setdefault(kind, [QExpr(0)])
    while len(prefix) <= bound:
        k = len(prefix)
        sign = -1 if k % 2 else 1
        if kind == "plain_even":
            term = QExpr(1, q_integer(2 * k))
        elif kind == "alternating":
            term = QExpr(sign, q_integer(k))
        else:
            term = QExpr(sign, q_integer(k)).shifted(k)
        prefix.append(prefix[-1] + term)
    return prefix[bound]
