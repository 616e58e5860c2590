import math
import random

import pytest

from qcong import exact
from qcong.exact import Poly, ONE
from qcong.cyclotomic import (
    CycloModulus,
    cyclotomic,
    divisors,
    euler_phi,
    factor_q_integer,
    is_prime,
    mobius,
    phi_valuation,
    prime_factors,
)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    with pytest.raises(ValueError):
        divisors(0)


def test_number_theory_helpers():
    assert prime_factors(360) == [2, 3, 5]
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_is_prime_and_mobius_match_brute_force():
    top = 2000
    # mu(1) = 1 and sum of mu(d) over d | n vanishes for every n > 1
    mu = [0, 1] + [0] * (top - 1)
    for d in range(1, top + 1):
        for m in range(2 * d, top + 1, d):
            mu[m] -= mu[d]
    for n in range(-5, top + 1):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n
        if n >= 1:
            assert mobius(n) == mu[n], n
    with pytest.raises(ValueError):
        mobius(0)


def test_small_cyclotomics():
    assert cyclotomic(1) == Poly([-1, 1])
    assert cyclotomic(2) == Poly([1, 1])
    assert cyclotomic(3) == Poly([1, 1, 1])
    assert cyclotomic(4) == Poly([1, 0, 1])
    assert cyclotomic(6) == Poly([1, -1, 1])
    assert cyclotomic(12) == Poly([1, 0, -1, 0, 1])
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_degree_is_totient():
    for n in range(1, 121):
        assert cyclotomic(n).degree == euler_phi(n)


def test_product_over_divisors_is_qn_minus_1():
    for n in (1, 2, 6, 12, 30, 36, 105):
        prod = ONE
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == Poly([-1] + [0] * (n - 1) + [1])


def cyclotomic_by_mobius(n: int) -> Poly:
    """Independent construction: product of (q^d - 1)^mobius(n/d) over d | n."""
    num, den = ONE, ONE
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 0:
            continue
        block = Poly([-1] + [0] * (d - 1) + [1])
        if mu == 1:
            num = num * block
        else:
            den = den * block
    return num.exact_div(den)


def test_mobius_construction_agrees():
    # every n <= 300, then four primes with a square (1260), six primes
    # (30030) and two prime powers
    for n in [*range(1, 301), 1260, 30030, 2 ** 10, 3 ** 6]:
        assert cyclotomic_by_mobius(n) == cyclotomic(n), n


def test_phi_105_has_coefficient_minus_two():
    c = cyclotomic(105).coeffs
    assert min(c) == -2
    assert c[7] == -2


def test_cyclotomics_up_to_300_are_consistent():
    # spot the full range the verification suite relies on
    for n in range(1, 301):
        p = cyclotomic(n)
        assert p.degree == euler_phi(n)
        assert p.leading == 1
        assert p[0] == (-1 if n == 1 else 1)


def test_phi_valuation():
    phi3 = cyclotomic(3)
    assert phi_valuation(phi3 ** 2 * Poly([1, 1]), 3) == 2
    assert phi_valuation(Poly([1, 1]), 3) == 0
    assert phi_valuation(Poly(), 3) == math.inf
    # [6] = Phi_2 * Phi_3 * Phi_6
    q6 = Poly([1] * 6)
    for d in (2, 3, 6):
        assert phi_valuation(q6, d) == 1
    assert phi_valuation(q6, 1) == 0


def test_cyclo_modulus_basics():
    m = CycloModulus.phi(3, 2)
    assert m.poly() == cyclotomic(3) ** 2
    assert str(m) == "Phi_3^2"
    assert str(CycloModulus(())) == "1"
    assert CycloModulus(()).is_empty
    m2 = m.raised_at(3)
    assert m2.factors == ((3, 3),)
    m3 = m.raised_at(2, 1)
    assert m3.factors == ((2, 1), (3, 2))
    assert str(m3) == "Phi_2 * Phi_3^2"
    with pytest.raises(ValueError):
        CycloModulus(((3, 0),))
    with pytest.raises(ValueError):
        CycloModulus(((3, 1), (3, 2)))


def test_phi_power_matches_the_sequential_product():
    # the balanced, cached product against one factor at a time, on seeded
    # sorted factor tuples with d <= 60 and e <= 3, the empty one included
    rng = random.Random(60)
    for size in [0] + [rng.randint(1, 12) for _ in range(40)]:
        factors = tuple(sorted((d, rng.randint(1, 3))
                               for d in rng.sample(range(1, 61), size)))
        want = ONE
        for d, e in factors:
            for _ in range(e):
                want = want * cyclotomic(d)
        assert exact._phi_power(factors) == want, factors
        assert CycloModulus(factors).poly() == want, factors


def test_factor_q_integer():
    assert factor_q_integer(1).is_empty
    assert factor_q_integer(6).factors == ((2, 1), (3, 1), (6, 1))
    assert factor_q_integer(6).poly() == Poly([1] * 6)
    assert factor_q_integer(7).poly() == Poly([1] * 7)
    # [n] * Phi_n^3 style modulus via raised_at
    m = factor_q_integer(5).raised_at(5, 3)
    assert m.factors == ((5, 4),)
    m1 = factor_q_integer(1).raised_at(1, 3)
    assert m1.factors == ((1, 3),)
