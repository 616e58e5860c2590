"""Constructors for the standard q-objects: q-integers, Pochhammer products
of the form prod (1 - q^(m*j)), Gaussian binomials, the q-analogue of the
Fermat quotient, and three flavors of q-harmonic sums.

All results are exact. The heavily reused constructors are memoized since
statement verification calls them across overlapping parameter grids.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import ONE, Poly, QExpr, ZERO


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

    Computed as the Pochhammer quotient, which divides exactly in Z[q].
    """
    if k < 0 or k > n:
        return ZERO
    if k > n - k:
        k = n - k
    num = q_pochhammer(1, n)
    den = q_pochhammer(1, k) * q_pochhammer(1, n - k)
    return num.exact_div(den)


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
