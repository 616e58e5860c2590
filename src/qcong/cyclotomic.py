"""Cyclotomic polynomials over Z and moduli built from their powers.

cyclotomic(n) reduces n to its radical, then divides Phi_m(q^p) by
Phi_m(q) once for each prime p of n, so it stays in Z[q] throughout.
phi_valuation counts the divisions of a packed integer by Phi_d's value
at the packing point and accepts the count only with a size certificate.
CycloModulus describes a product of prime-power style factors Phi_d(q)^e
used as a congruence modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .exact import Poly, _mk, _phi_power, _phi_split


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    ps = prime_factors(n)
    if any(n % (p * p) == 0 for p in ps):
        return 0
    return (-1) ** len(ps)


@lru_cache(maxsize=1024)
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial as a Poly.

    Phi_n(q) = Phi_rad(q^(n/rad)) for rad the product of n's distinct
    primes, and for squarefree n = m p, p its largest prime,
    Phi_n(q) = Phi_m(q^p) / Phi_m(q): one certified exact division per
    prime of n.

    >>> print(cyclotomic(6))
    1 - q + q^2
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return Poly([-1, 1])
    primes = prime_factors(n)
    rad = math.prod(primes)
    if rad != n:
        return _stretched(cyclotomic(rad), n // rad)
    m = n // primes[-1]
    return _stretched(cyclotomic(m), primes[-1]).exact_div(cyclotomic(m))


def _stretched(p: Poly, k: int) -> Poly:
    # p(q^k)
    out = [0] * ((len(p) - 1) * k + 1)
    out[::k] = p.coeffs
    return _mk(out)


def phi_valuation(p: Poly, d: int):
    """Multiplicity of cyclotomic(d) in p; math.inf for the zero polynomial.

    exact._kronecker_valuation packs p and Phi_d at one power of two and
    divides p's integer by Phi_d's while the remainder is 0; it returns
    the count only under its size certificate. Otherwise exact polynomial
    division by Phi_d, repeated, decides (exact._phi_split).
    """
    if not p:
        return math.inf
    return _phi_split(p, cyclotomic(d))[1]


@dataclass(frozen=True)
class CycloModulus:
    """A modulus of the form prod_d Phi_d(q)^e_d, factors sorted by d."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for d, e in self.factors:
            if d < 1 or e < 1:
                raise ValueError(f"bad factor Phi_{d}^{e}")
            if d in seen:
                raise ValueError(f"repeated factor index {d}")
            seen.add(d)
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))

    @classmethod
    def phi(cls, d: int, e: int = 1) -> "CycloModulus":
        return cls(((d, e),))

    @property
    def is_empty(self) -> bool:
        return not self.factors

    def raised_at(self, d: int, extra: int = 1) -> "CycloModulus":
        """Return a copy with the exponent at Phi_d increased by extra."""
        items = dict(self.factors)
        items[d] = items.get(d, 0) + extra
        return CycloModulus(tuple(items.items()))

    def poly(self) -> Poly:
        return _phi_power(self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return " * ".join(
            f"Phi_{d}" if e == 1 else f"Phi_{d}^{e}" for d, e in self.factors
        )


def factor_q_integer(n: int) -> CycloModulus:
    """The q-integer [n] = 1 + q + ... + q^(n-1) as a cyclotomic modulus.

    [n] is the product of Phi_d over the divisors d > 1 of n, so [1] gives
    the empty modulus.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return CycloModulus(tuple((d, 1) for d in divisors(n) if d > 1))
