"""Randomized property suites over small instances.

Each suite runs at least 1000 seeded-random instances: polynomial ring
axioms, gcd round-trips, q-binomial identities, congruence-relation
axioms, and invariance of verdicts under unit factors.
"""

import math
import random
from fractions import Fraction

from qcong.congruence import Status, check_congruence
from qcong.cyclotomic import CycloModulus, cyclotomic, phi_valuation
from qcong.exact import ONE, Poly, QExpr, ZERO, gcd_rational
from qcong.qcombinatorics import q_binomial


def _poly(rng, deg=6, lo=-9, hi=9, nonzero=False):
    while True:
        p = Poly([rng.randint(lo, hi) for _ in range(rng.randint(0, deg) + 1)])
        if p or not nonzero:
            return p


def _qexpr(rng):
    num = _poly(rng, deg=4)
    den = _poly(rng, deg=3, nonzero=True)
    return QExpr(num, den) * Fraction(rng.randint(1, 5), rng.randint(1, 5))


def test_ring_axioms_1000():
    rng = random.Random(1201)
    for _ in range(1000):
        a, b, c = (_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        if b:
            assert (a * b).exact_div(b) == a


def test_field_axioms_on_qexpr_1000():
    rng = random.Random(1202)
    count = 0
    while count < 1000:
        x, y, z = (_qexpr(rng) for _ in range(3))
        assert x + y == y + x
        assert x * (y + z) == x * y + x * z
        assert (x - y) + y == x
        if y != QExpr(0):
            assert (x / y) * y == x
        count += 1


def test_gcd_round_trips_1000():
    rng = random.Random(1203)
    for _ in range(1000):
        a = _poly(rng, deg=4, nonzero=True)
        b = _poly(rng, deg=4, nonzero=True)
        c = _poly(rng, deg=3, nonzero=True)
        g = gcd_rational(a, b)
        # the gcd divides both primitive parts
        assert a.primitive().try_exact_div(g) is not None
        assert b.primitive().try_exact_div(g) is not None
        assert g.leading > 0 and g.content() == 1
        # multiplying both arguments scales the gcd by the cofactor
        big = gcd_rational(a * c, b * c)
        expected = gcd_rational(g * c, g * c)  # normalizes g*c
        assert big == expected
        assert gcd_rational(a, b) == gcd_rational(b, a)


def test_q_binomial_identities_1000():
    rng = random.Random(1204)
    for _ in range(1000):
        n = rng.randint(0, 28)
        k = rng.randint(-2, n + 2)
        qb = q_binomial(n, k)
        assert qb == q_binomial(n, n - k)
        assert qb(1) == math.comb(n, k) if 0 <= k <= n else not qb
        if n >= 1:
            pascal = q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shifted(k) \
                if 0 <= k <= n else None
            if pascal is not None:
                assert qb == pascal


def _admissible(rng, d):
    # random QExpr whose denominator is coprime to Phi_d
    phi = cyclotomic(d)
    while True:
        x = _qexpr(rng)
        if phi_valuation(x.den, d) == 0:
            return x


def test_congruence_relation_axioms_1000():
    rng = random.Random(1205)
    for _ in range(1000):
        d = rng.randint(2, 7)
        e = rng.randint(1, 2)
        mod = CycloModulus.phi(d, e)
        step = QExpr(cyclotomic(d) ** e)
        a = _admissible(rng, d)
        r = _admissible(rng, d)
        w = _admissible(rng, d)
        b = a + step * r  # congruent to a by construction
        assert check_congruence(a, a, mod).status is Status.HOLDS
        assert check_congruence(a, b, mod).status is Status.HOLDS
        assert check_congruence(b, a, mod).status is Status.HOLDS
        # translation and admissible-multiplication preserve the relation
        assert check_congruence(a + w, b + w, mod).status is Status.HOLDS
        if phi_valuation(w.num, d) == 0:
            sym = check_congruence(a * w, b * w, mod).status
            assert sym is Status.HOLDS
        # transitivity against a third congruent expression
        c = b + step * _admissible(rng, d)
        assert check_congruence(a, c, mod).status is Status.HOLDS


def test_unit_invariance_1000():
    rng = random.Random(1206)
    statuses = []
    for _ in range(1000):
        d = rng.randint(2, 7)
        e = rng.randint(1, 2)
        mod = CycloModulus.phi(d, e)
        a = _admissible(rng, d)
        if rng.random() < 0.5:
            # plant a congruent pair so both verdicts occur in the corpus
            b = a + QExpr(cyclotomic(d) ** e) * _admissible(rng, d)
        else:
            b = _admissible(rng, d)
        base = check_congruence(a, b, mod).status
        unit = QExpr(1).shifted(rng.randint(-5, 5)) * Fraction(
            rng.choice([-3, -2, -1, 1, 2, 3]),
            rng.choice([1, 2, 3, 5]),
        )
        scaled = check_congruence(a * unit, b * unit, mod).status
        assert scaled is base
        statuses.append(base)
    # the random pairs exercise both verdicts, not a degenerate corpus
    assert Status.HOLDS in statuses and Status.FAILS in statuses
