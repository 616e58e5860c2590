import math
import random
from fractions import Fraction

import pytest

from qcong.exact import ONE, Poly, QExpr, ZERO
from qcong.cyclotomic import cyclotomic, phi_valuation
from qcong.qcombinatorics import (
    q_binomial,
    q_fermat_quotient,
    q_harmonic,
    q_integer,
    q_pochhammer,
)


def test_q_integer():
    assert q_integer(0) == ZERO
    assert q_integer(1) == ONE
    assert q_integer(3) == Poly([1, 1, 1])
    assert q_integer(3)(1) == 3
    with pytest.raises(ValueError):
        q_integer(-1)


def test_q_pochhammer():
    assert q_pochhammer(1, 0) == ONE
    # (q;q)_2 = (1-q)(1-q^2) = 1 - q - q^2 + q^3
    assert q_pochhammer(1, 2) == Poly([1, -1, -1, 1])
    assert q_pochhammer(2, 2) == Poly([1, 0, -1]) * Poly([1, 0, 0, 0, -1])
    # (q;q)_k value at q=1 is 0 for k >= 1
    assert q_pochhammer(1, 4)(1) == 0
    with pytest.raises(ValueError):
        q_pochhammer(0, 1)


def test_q_binomial_small():
    assert q_binomial(4, 2) == Poly([1, 1, 2, 1, 1])
    assert q_binomial(5, 0) == ONE
    assert q_binomial(2, 3) == ZERO
    assert q_binomial(3, -1) == ZERO
    assert q_binomial(0, 0) == ONE
    assert q_binomial(6, 1) == q_integer(6)


def test_q_binomial_symmetry_pascal_and_q1():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 30)
        k = rng.randint(-2, n + 2)
        b = q_binomial(n, k)
        if 0 <= k <= n:
            assert b == q_binomial(n, n - k)
            assert b(1) == math.comb(n, k)
            assert all(c >= 0 for c in b.coeffs)
        if n >= 1 and k >= 0:
            assert b == q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shifted(k)


def test_q_power():
    # the unit q^t is QExpr(1).shifted(t), for any sign of t
    assert QExpr(1).shifted(0) == 1
    assert QExpr(1).shifted(3) == QExpr(Poly.monomial(3))
    assert QExpr(1).shifted(-2)(Fraction(2)) == Fraction(1, 4)
    assert QExpr(1).shifted(2) * QExpr(1).shifted(-2) == 1


def test_q_fermat_quotient_known_values():
    assert q_fermat_quotient(2, 3) == QExpr(Poly([0, 1]))  # exactly q
    assert q_fermat_quotient(2, 1) == 0
    assert q_fermat_quotient(1, 7) == 0
    assert q_fermat_quotient(2, 5).eval_at_one() == 3  # (2^4 - 1)/5
    assert q_fermat_quotient(3, 5).eval_at_one() == 16  # (3^4 - 1)/5
    assert q_fermat_quotient(2, 7).eval_at_one() == 9  # (2^6 - 1)/7
    with pytest.raises(ValueError):
        q_fermat_quotient(2, 0)


def test_q_fermat_quotient_m2_denominator_coprime_to_phi_n():
    # for odd n the Phi_n factor of [n] cancels out of Q_n(2,q)
    for n in (3, 5, 7, 9, 11):
        fq = q_fermat_quotient(2, n)
        assert phi_valuation(fq.den, n) == 0
    # general-m path agrees with the m=2 shortcut
    for n in (2, 3, 4, 5, 6):
        ratio = QExpr(q_pochhammer(2, n - 1), q_pochhammer(1, n - 1))
        raw = (ratio - 1) / QExpr(q_integer(n))
        assert raw == q_fermat_quotient(2, n)


def test_q_harmonic_values():
    assert q_harmonic("alternating", 0) == 0
    assert q_harmonic("alternating_q", 0) == 0
    assert q_harmonic("plain_even", 1) == QExpr(1, Poly([1, 1]))
    assert q_harmonic("alternating", 2) == QExpr(Poly([0, -1]), Poly([1, 1]))
    # alternating_q bound 2: -q/[1] + q^2/[2] = (-q - q^2 + q^2)/(1+q)
    assert q_harmonic("alternating_q", 2) == QExpr(Poly([0, -1]), Poly([1, 1]))
    with pytest.raises(ValueError):
        q_harmonic("nope", 1)
    with pytest.raises(ValueError):
        q_harmonic("alternating", -1)


def test_q_harmonic_matches_slow_reference():
    for bound in range(0, 9):
        plain = QExpr(0)
        alt = QExpr(0)
        altq = QExpr(0)
        for k in range(1, bound + 1):
            plain = plain + QExpr(1, q_integer(2 * k))
            alt = alt + QExpr((-1) ** k, q_integer(k))
            altq = altq + QExpr(Poly.monomial(k, (-1) ** k), q_integer(k))
        assert q_harmonic("plain_even", bound) == plain
        assert q_harmonic("alternating", bound) == alt
        assert q_harmonic("alternating_q", bound) == altq


def test_q_harmonic_q1_shadow():
    # at q=1 the sums collapse to classical harmonic-type sums
    h = q_harmonic("alternating", 5).eval_at_one()
    assert h == Fraction(-1) + Fraction(1, 2) - Fraction(1, 3) + Fraction(1, 4) - Fraction(1, 5)
    he = q_harmonic("plain_even", 3).eval_at_one()
    assert he == Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 6)
