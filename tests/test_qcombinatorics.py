import inspect
import math
import random
import sys
from fractions import Fraction

import pytest

from qcong.exact import ONE, Poly, QExpr, ZERO
from qcong.cyclotomic import cyclotomic, divisors, phi_valuation
from qcong import exact, qcombinatorics
from qcong.qcombinatorics import (
    _alt_frac_sum,
    _div_one_minus_qpow,
    _even_recip_sum,
    _times_ratio,
    apery_sum,
    apery_values,
    fk_sums,
    fk_values,
    frac_sum,
    one_minus_qpow,
    q_binomial,
    q_fermat_quotient,
    q_harmonic,
    q_integer,
    q_pochhammer,
)


@pytest.fixture(autouse=True)
def _fresh_fk_stepping():
    # every test steps the f_k sums anew, so a test that patches the
    # packing sees its own stepping and leaves none in the memo
    qcombinatorics._fk_stepped.cache_clear()
    yield
    qcombinatorics._fk_stepped.cache_clear()


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


def test_q_pochhammer_takes_no_frame_per_factor():
    # a cold (q;q)_200 must build within 60 frames of the caller's depth;
    # the reference multiplies its 200 factors pairwise
    f = [Poly([1] + [0] * (j - 1) + [-1]) for j in range(1, 201)]
    while len(f) > 1:
        f = [a * b for a, b in zip(f[::2], f[1::2])] + f[len(f) & ~1:]
    q_pochhammer.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        got = q_pochhammer(1, 200)
    finally:
        sys.setrecursionlimit(limit)
    assert got == f[0]


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


def test_q_binomial_checks_its_digits(monkeypatch):
    # a faulty read of the packed binomial: one digit made negative with
    # the digit sum kept, or every digit kept >= 0 with the sum off by one
    def negative(d):
        return (d[0] + d[1] + 1, -1) + d[2:]

    def off_by_one(d):
        return (d[0] + 1,) + d[1:]

    unpack = qcombinatorics._unpack
    assert q_binomial.__wrapped__(8, 4)(1) == 70
    for fault in (negative, off_by_one):
        monkeypatch.setattr(qcombinatorics, "_unpack",
                            lambda v, n, w: fault(unpack(v, n, w)))
        with pytest.raises(ArithmeticError):
            q_binomial.__wrapped__(8, 4)


def _fk_sums_reference(n, alpha):
    # f_k from two q-binomials and one product each, added one by one
    terms = [(q_binomial(alpha + k - 1, k) * q_binomial(alpha + n - 1, n - 1 - k))
             .shifted(math.comb(k + 1, 2)) for k in range(n)]
    plain = weighted = double = prefix = ZERO
    for k, f in enumerate(terms):
        plain = plain + f
        weighted = weighted + f * q_integer(k)
        prefix = prefix + f
        double = double + prefix.shifted(k)
    return plain, weighted, double


def test_fk_sums_match_term_by_term_reference():
    cells = [(n, a) for n in range(1, 22) for a in range(1, n + 3)]
    for n, a in cells + [(51, 50)]:
        assert fk_sums(n, a) == _fk_sums_reference(n, a), (n, a)
    with pytest.raises(ValueError):
        fk_sums(0, 2)
    with pytest.raises(ValueError):
        fk_sums(3, 0)


def test_fk_sums_reject_slots_too_narrow(monkeypatch):
    # one-byte slots: the sums at (3, 2) peak at 8, but the
    # double sum at (6, 4) has a coefficient of 677 and wraps
    small, big = _fk_sums_reference(3, 2), _fk_sums_reference(6, 4)
    assert max(max(p.coeffs) for p in small) < 127 < max(big[2].coeffs)
    monkeypatch.setattr(qcombinatorics, "_width", lambda bits: 1)
    assert fk_sums(3, 2) == small
    with pytest.raises(ArithmeticError):
        fk_sums(6, 4)


def test_fk_sums_slots_hold_the_mid_step(monkeypatch):
    # at (2, 4) the mid-step [4, 1] [5, 1] is 20 at q = 1, above all three
    # sums (9, 4 and 14), and the slots must hold it with a bit to spare
    asked = []
    width = qcombinatorics._width
    monkeypatch.setattr(qcombinatorics, "_width",
                        lambda bits: asked.append(bits) or width(bits))
    assert max(p(1) for p in fk_sums(2, 4)) == 14
    assert asked[-1] >= (20).bit_length() + 1


def test_fk_sums_check_their_digits(monkeypatch):
    # a faulty read of the packed sums: one digit made negative with the
    # digit sum kept, or every digit kept >= 0 with the sum off by one
    def negative(d):
        return (d[0] + d[1] + 1, -1) + d[2:]

    def off_by_one(d):
        return (d[0] + 1,) + d[1:]

    unpack = qcombinatorics._unpack
    want = _fk_sums_reference(5, 4)  # caches [8, 4], so f_0 is read right
    assert fk_sums(5, 4) == want
    for fault in (negative, off_by_one):
        monkeypatch.setattr(qcombinatorics, "_unpack",
                            lambda v, n, w: fault(unpack(v, n, w)))
        with pytest.raises(ArithmeticError):
            fk_sums(5, 4)


def _apery_sum_reference(n, r):
    # every term a product of two q-binomials raised to 2r, added one by one
    out = ZERO
    for k in range(n):
        term = (q_binomial(n + k, k) * q_binomial(n - 1, k)) ** (2 * r)
        out = out + term.shifted(r * (n - k) ** 2 + (r - 1) * k)
    return out


def test_apery_sum_matches_term_by_term_reference():
    # every guguo cell (r = 1), every gsz_03 cell, and two larger ones
    cells = ([(n, 1) for n in range(1, 21)]
             + [(n, r) for n in range(1, 13) for r in (1, 2, 3)])
    for n, r in cells + [(30, 1), (20, 3)]:
        assert apery_sum(n, r) == _apery_sum_reference(n, r), (n, r)
    with pytest.raises(ValueError):
        apery_sum(0, 1)
    with pytest.raises(ValueError):
        apery_sum(3, 0)


def test_apery_sum_rejects_slots_too_narrow(monkeypatch):
    # one-byte slots: the coefficients at (3, 1) stay below 127, but
    # (4, 1) has a coefficient of 387 and wraps
    small, big = _apery_sum_reference(3, 1), _apery_sum_reference(4, 1)
    assert max(small.coeffs) < 127 < max(big.coeffs)
    monkeypatch.setattr(qcombinatorics, "_width", lambda bits: 1)
    assert apery_sum(3, 1) == small
    with pytest.raises(ArithmeticError):
        apery_sum(4, 1)


def test_apery_sum_slots_hold_the_mid_step(monkeypatch):
    # at (3, 1) the mid-step [4, 1] [5, 2] [2, 1]^2 is 400 at q = 1, above
    # the sum's 165, and the slots must hold it with a bit to spare
    asked = []
    width = qcombinatorics._width
    monkeypatch.setattr(qcombinatorics, "_width",
                        lambda bits: asked.append(bits) or width(bits))
    assert apery_sum(3, 1)(1) == 165
    assert asked[-1] >= (400).bit_length() + 1


def test_apery_sum_checks_its_digits(monkeypatch):
    # a faulty read of the packed sum: one digit made negative with the
    # digit sum kept, or every digit kept >= 0 with the sum off by one
    def negative(d):
        return (d[0] + d[1] + 1, -1) + d[2:]

    def off_by_one(d):
        return (d[0] + 1,) + d[1:]

    unpack = qcombinatorics._unpack
    assert apery_sum(5, 2) == _apery_sum_reference(5, 2)
    for fault in (negative, off_by_one):
        monkeypatch.setattr(qcombinatorics, "_unpack",
                            lambda v, n, w: fault(unpack(v, n, w)))
        with pytest.raises(ArithmeticError):
            apery_sum(5, 2)


def test_packed_division_is_checked_exactly():
    bits = 16
    b = 1 << bits
    # (1 - B^2) (1 + 3B) / (1 - B^2) = 1 + 3B
    assert _div_one_minus_qpow((1 - b * b) * (1 + 3 * b), 2, 2, bits) == 1 + 3 * b
    # 1 + B is not a multiple of 1 - B, nor 1 - B^3 of 1 - B^2
    with pytest.raises(ArithmeticError):
        _div_one_minus_qpow(1 + b, 1, 4, bits)
    with pytest.raises(ArithmeticError):
        _div_one_minus_qpow(1 - b ** 3, 2, 4, bits)


def test_packed_ratio_step():
    bits = 16
    b = 1 << bits
    # (1 + q) (1 - q^3) / (1 - q) = 1 + 2q + 2q^2 + q^3, of degree 1 + 3 - 1
    assert _times_ratio(1 + b, 1, 3, 1, bits) == (1 + 2 * b + 2 * b**2 + b**3, 3)
    # (1 + q^2) (1 - q^2) / (1 - q^4) = 1, of degree 2 + 2 - 4
    assert _times_ratio(1 + b * b, 2, 2, 4, bits) == (1, 0)
    # (1 + q^2) (1 - q^4) / (1 - q^3) is no polynomial
    with pytest.raises(ArithmeticError):
        _times_ratio(1 + b * b, 2, 4, 3, bits)


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
    assert q_fermat_quotient(2, 5)(1) == 3  # (2^4 - 1)/5
    assert q_fermat_quotient(3, 5)(1) == 16  # (3^4 - 1)/5
    assert q_fermat_quotient(2, 7)(1) == 9  # (2^6 - 1)/7
    with pytest.raises(ValueError):
        q_fermat_quotient(2, 0)


def test_q_fermat_quotient_m2_denominator_coprime_to_phi_n():
    # for odd n the Phi_n factor of [n] cancels out of Q_n(2,q)
    for n in (3, 5, 7, 9, 11):
        fq = q_fermat_quotient(2, n)
        assert phi_valuation(fq.den, n) == 0
    # the shift-add product agrees with the Pochhammer quotient
    for m in (1, 2, 3, 4):
        for n in range(1, 31):
            ratio = QExpr(q_pochhammer(m, n - 1), q_pochhammer(1, n - 1))
            raw = (ratio - 1) / QExpr(q_integer(n))
            assert raw == q_fermat_quotient(m, n)


def test_q_fermat_quotient_keeps_one_over_n_factored():
    # ((q^2;q^2)_(n-1) / (q;q)_(n-1) - 1) times the exponent map of 1/[n]
    for n in range(1, 26):
        ratio = q_pochhammer(2, n - 1).exact_div(q_pochhammer(1, n - 1))
        phis = dict.fromkeys(divisors(n)[1:], -1)
        fq = q_fermat_quotient(2, n)
        assert fq == exact._qexpr(ratio - 1, ONE, 0, phis)
        assert fq._phis == phis


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
    # term-by-term reference, accumulated once across the bounds
    plain = alt = altq = QExpr(0)
    for k in range(0, 41):
        if k:
            plain = plain + QExpr(1, q_integer(2 * k))
            alt = alt + QExpr((-1) ** k, q_integer(k))
            altq = altq + QExpr(Poly.monomial(k, (-1) ** k), q_integer(k))
        assert q_harmonic("plain_even", k) == plain
        assert q_harmonic("alternating", k) == alt
        assert q_harmonic("alternating_q", k) == altq


def test_q_harmonic_is_one_minus_q_times_a_reciprocal_sum():
    # 1/[k] = (1 - q)/(1 - q^k); the reference adds one QExpr per term
    q = Poly([0, 1])
    terms = {
        "plain_even": lambda k: QExpr(1, ONE - q ** (2 * k)),
        "alternating": lambda k: QExpr((-1) ** k, ONE - q ** k),
        "alternating_q": lambda k: QExpr(Poly.monomial(k, (-1) ** k),
                                         ONE - q ** k),
    }
    sums = {
        "plain_even": _even_recip_sum,
        "alternating": lambda b: _alt_frac_sum(b, 0, False),
        "alternating_q": lambda b: _alt_frac_sum(b, 0, True),
    }
    for kind, term in terms.items():
        ref = QExpr(0)
        for bound in range(13):
            if bound:
                ref = ref + term(bound)
            h = q_harmonic(kind, bound)
            assert h == one_minus_qpow(1) * ref
            assert h == one_minus_qpow(1) * sums[kind](bound)
            # the 1 - q cancels frac_sum's Phi_1 and enters no numerator
            assert 1 not in h._phis


def test_q_harmonic_q1_shadow():
    # at q=1 the sums collapse to classical harmonic-type sums
    h = q_harmonic("alternating", 5)(1)
    assert h == Fraction(-1) + Fraction(1, 2) - Fraction(1, 3) + Fraction(1, 4) - Fraction(1, 5)
    he = q_harmonic("plain_even", 3)(1)
    assert he == Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 6)


def _frac_sum_reference(terms):
    # one QExpr per term, added one by one
    out = QExpr(0)
    for c, m in terms:
        out = out + QExpr(c, ONE - Poly.monomial(m))
    return out


def _random_terms(rng, count):
    # ints, zeros and Polys with q-powers, some coefficients 60 bits wide
    # and negative; with m <= 12 most lists repeat an m
    def coeff():
        return rng.choice((rng.randint(-3, 3), rng.randint(-2**60, 2**60)))

    terms = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            c = coeff()
        elif kind == 1:
            c = rng.choice((0, ZERO))
        else:
            c = Poly([coeff() for _ in range(rng.randint(1, 5))])
            c = c.shifted(rng.randint(0, 6))
        terms.append((c, rng.randint(1, 12)))
    return terms


def _common_denominator(terms):
    den = ONE
    for d in sorted({d for _, m in terms for d in divisors(m)}):
        den = den * cyclotomic(d)
    return den


def test_frac_sum_matches_term_by_term_reference():
    rng = random.Random(10)
    lists = [[], [(0, 5)], [(7, 3), (-7, 3)], [(Poly.monomial(4, -2), 1)]]
    lists += [_random_terms(rng, rng.randint(1, 15)) for _ in range(60)]
    assert any(len({m for _, m in t}) < len(t) for t in lists)
    for terms in lists:
        assert frac_sum(terms) == _frac_sum_reference(terms), terms
    assert frac_sum([]) == frac_sum(iter([])) == 0
    with pytest.raises(ValueError):
        frac_sum([(1, 0)])


def test_frac_sum_forms_no_poly_operation_per_term(monkeypatch):
    # only the product forming the common denominator multiplies Polys:
    # on a cold _phi_power cache its len(D) - 1 pairwise products, on a
    # warm one none; nothing adds or divides them, and the sum is left
    # unreduced
    terms = _random_terms(random.Random(11), 40)
    want = frac_sum(terms)  # and every cyclotomic(d) it needs is cached
    ds = {d for _, m in terms for d in divisors(m)}
    for products in (len(ds) - 1, 0):
        if products:
            exact._phi_power.cache_clear()
        calls = {"__mul__": 0, "__add__": 0, "exact_div": 0}
        for name in calls:
            method = getattr(Poly, name)

            def counted(self, other, name=name, method=method):
                calls[name] += 1
                return method(self, other)
            monkeypatch.setattr(Poly, name, counted)
        got = frac_sum(terms)
        monkeypatch.undo()
        assert calls == {"__mul__": products, "__add__": 0, "exact_div": 0}
        assert got == want == _frac_sum_reference(terms)


def test_frac_sum_slots_hold_the_numerator_and_every_quotient(monkeypatch):
    asked = []
    width = qcombinatorics._width
    monkeypatch.setattr(qcombinatorics, "_width",
                        lambda bits: asked.append(bits) or width(bits))
    one_minus_q = Poly([1, -1])
    cases = [[(one_minus_q, 2 * k) for k in range(1, 13)],
             [((-1) ** k * one_minus_q.shifted(k), k) for k in range(1, 31)],
             _random_terms(random.Random(12), 12)]
    for terms in cases:
        frac_sum(terms)
        den = _common_denominator(terms)
        quotients = {m: den.exact_div(ONE - Poly.monomial(m))
                     for _, m in terms}
        num = sum((c * quotients[m] for c, m in terms), ZERO)
        peak = max(max(map(abs, p.coeffs))
                   for p in [num, den, *quotients.values()])
        assert peak.bit_length() < asked[-1]


def test_frac_sum_rejects_slots_too_narrow(monkeypatch):
    # one-byte slots: the common denominator of plain_even 6 has
    # coefficients of at most 2, that of plain_even 12 one of 143 > 127
    want = q_harmonic("plain_even", 6)
    terms = [(1, 2 * k) for k in range(1, 13)]
    assert max(_common_denominator(terms).coeffs) == 143
    monkeypatch.setattr(qcombinatorics, "_width", lambda bits: 1)
    assert q_harmonic("plain_even", 6) == want
    with pytest.raises(ArithmeticError):
        q_harmonic("plain_even", 12)


def test_frac_sum_checks_its_digit_sum(monkeypatch):
    # a faulty read of the packed numerator, its digit sum off by one
    def off_by_one(d):
        return (d[0] + 1,) + d[1:]

    unpack = qcombinatorics._unpack
    assert q_harmonic("alternating", 10) == _frac_sum_reference(
        [((-1) ** k * Poly([1, -1]), k) for k in range(1, 11)])
    monkeypatch.setattr(qcombinatorics, "_unpack",
                        lambda v, n, w: off_by_one(unpack(v, n, w)))
    with pytest.raises(ArithmeticError):
        q_harmonic("alternating", 10)


def test_fk_values_are_fk_sums_at_q1():
    for n in range(1, 16, 2):
        for alpha in range(1, 17):
            assert fk_values(n, alpha) == tuple(
                f(1) for f in fk_sums(n, alpha))


def test_apery_values_power_sums_are_apery_sum_at_q1():
    for n in range(1, 13):
        for r in range(1, 4):
            assert sum(v ** (2 * r) for v in apery_values(n)) == \
                apery_sum(n, r)(1)


def test_q_binomial_builds_each_mirrored_pair_once(monkeypatch):
    steps = []
    step = qcombinatorics._times_ratio
    monkeypatch.setattr(qcombinatorics, "_times_ratio",
                        lambda *a: steps.append(a) or step(*a))
    for n, k in ((9, 2), (10, 7), (12, 6), (25, 1), (7, 0)):
        q_binomial.cache_clear()
        first = q_binomial(n, n - k)
        built = len(steps)
        assert built == min(k, n - k)
        assert q_binomial(n, k) is first
        assert len(steps) == built
        del steps[:]
        assert first(1) == math.comb(n, k)
