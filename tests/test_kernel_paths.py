"""Differential tests: the kernel's fast paths against its reference loops.

Kronecker multiplication against schoolbook multiplication, Kronecker
exact division against long division, and GCDHEU against the primitive
pseudo-remainder sequence, on seeded random operands on both sides of each
crossover length; pseudo-division is checked against its defining
identity. Gaussian binomials from the packed ratio recurrence are checked
against the Pochhammer quotient and, for large rows, against their values
at q = 1, 2, -2 and 3. Phi_d valuations from repeated division of one
packed integer are checked against repeated polynomial division, and
pairwise-split evaluation against Horner's rule. A last block
cross-checks products, gcds, exact quotients and cyclotomic remainders
against sympy when it is installed.
"""

import math
import random
from fractions import Fraction

import pytest

import qcong.exact as ex
import qcong.qcombinatorics as qcombinatorics
from qcong.cyclotomic import cyclotomic, phi_valuation
from qcong.exact import ONE, ZERO, Poly, gcd_rational
from qcong.qcombinatorics import q_binomial, q_pochhammer

SEED = 20240611


def rand_coeffs(rng, length, bits):
    """length coefficients of up to bits bits, nonzero leading one."""
    c = [rng.randint(-(1 << bits), 1 << bits) for _ in range(length)]
    while not c[-1]:
        c[-1] = rng.randint(-(1 << bits), 1 << bits)
    return tuple(c)


def rand_poly(rng, length, bits):
    return Poly(rand_coeffs(rng, length, bits)) if length else ZERO


def lengths_around(crossover):
    return sorted({1, 2, max(1, crossover - 1), crossover, crossover + 1,
                   2 * crossover + 3})


def test_multiply_matches_schoolbook():
    rng = random.Random(SEED)
    for la in lengths_around(ex._KRONECKER_MUL_MIN_LEN):
        for lb in lengths_around(ex._KRONECKER_MUL_MIN_LEN):
            for bits in (1, 7, 33, 64, 90):
                a = rand_coeffs(rng, la, bits)
                b = rand_coeffs(rng, lb, rng.randint(1, 90))
                want = tuple(ex._schoolbook_mul(a, b))
                assert ex._kronecker_mul(a, b) == want
                assert (Poly(a) * Poly(b)).coeffs == want


def test_multiply_zero_constant_and_signs():
    rng = random.Random(SEED + 1)
    long_poly = rand_poly(rng, 3 * ex._KRONECKER_MUL_MIN_LEN, 40)
    assert long_poly * ZERO == ZERO and ZERO * long_poly == ZERO
    assert long_poly * Poly([-3]) == Poly([-3 * c for c in long_poly])
    assert (-long_poly) * (-long_poly) == long_poly * long_poly
    # every coefficient at the extreme of its width
    extreme = (-(1 << 90),) * (2 * ex._KRONECKER_MUL_MIN_LEN)
    assert ex._kronecker_mul(extreme, extreme) == tuple(
        ex._schoolbook_mul(extreme, extreme))


def test_power_squares_only_while_bits_remain(monkeypatch):
    p = Poly([2, -1, 0, 3, 1])
    mul = Poly.__mul__
    degrees = []

    def counting_mul(a, b):
        out = mul(a, b)
        degrees.append(out.degree)
        return out

    want = ONE
    for n in range(10):
        degrees.clear()
        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        got = p ** n
        monkeypatch.undo()
        assert got == want
        assert max(degrees, default=0) <= n * p.degree, n
        want = want * p


def test_divide_matches_long_division():
    rng = random.Random(SEED + 2)
    for lb in lengths_around(ex._KRONECKER_DIV_MIN_LEN):
        for lq in (1, 2, 9, 40):
            for bits in (1, 20, 64, 90):
                b = rand_coeffs(rng, lb, rng.randint(1, 90))
                q = rand_coeffs(rng, lq, bits)
                a = tuple(ex._schoolbook_mul(q, b))
                # divisible: the quotient comes back exactly
                assert ex._long_div(a, b) == list(q)
                assert ex._kronecker_valuation(a, b, 1) in ((1, q), None)
                assert Poly(a).try_exact_div(Poly(b)).coeffs == q
                # a = b^2 q: one division, however many more b allows
                bq = tuple(ex._schoolbook_mul(b, q))
                a2 = tuple(ex._schoolbook_mul(b, bq))
                assert ex._kronecker_valuation(a2, b, 1) in ((1, bq), None)
                assert Poly(a2).try_exact_div(Poly(b)).coeffs == bq
                # not divisible: a nonzero remainder of lower degree
                r = list(a)
                r[rng.randrange(len(b) - 1 or 1)] += rng.choice((1, -1))
                r = tuple(ex._strip(r))
                if r and len(r) >= len(b):
                    want = ex._long_div(r, b)
                    got = ex._kronecker_valuation(r, b, 1)
                    assert got is None or got == (
                        (0, r) if want is None else (1, tuple(want)))
                    assert Poly(r).try_exact_div(Poly(b)) == (
                        None if want is None else Poly(want))


def test_pseudo_divmod_identity():
    rng = random.Random(SEED + 7)
    for lb in (1, 2, 3, 6, 11):
        for la in (0, 1, lb - 1, lb, lb + 1, 3 * lb + 2):
            a = rand_poly(rng, la, rng.randint(1, 60))
            b = rand_poly(rng, lb, rng.randint(1, 40))
            if rng.random() < 0.5:
                b = -b
            if abs(b.leading) == 1:
                b = b + Poly.monomial(lb - 1, 3 * b.leading)
            k, quo, rem = ex._pseudo_divmod(a, b)
            assert k == b.leading ** max(la - lb + 1, 0)
            assert k * a == quo * b + rem
            assert len(rem) < len(b)
            if la < lb:
                assert (k, quo, rem) == (1, ZERO, a)
    # a monic divisor gives plain divmod
    b = Poly([4, -7, 1])
    a = Poly([3, 0, 5, 2, 9])
    k, quo, rem = ex._pseudo_divmod(a, b)
    assert k == 1 and quo * b + rem == a and len(rem) < 3


def test_divide_over_q_but_not_over_z():
    b = Poly([2, 2] + [0] * (2 * ex._KRONECKER_DIV_MIN_LEN) + [2])
    a = b * Poly([1, 1])
    assert a.try_exact_div(b) == Poly([1, 1])
    assert (a.primitive()).try_exact_div(b) is None
    assert ex._long_div(a.primitive().coeffs, b.coeffs) is None


def test_divide_with_quotient_far_larger_than_dividend():
    # [48, 24]_q has ~2^38 coefficients; (q;q)_48 has small ones
    num = q_pochhammer(1, 48)
    den = q_pochhammer(1, 24) ** 2
    want = ex._long_div(num.coeffs, den.coeffs)
    assert max(map(abs, want)).bit_length() > 30
    assert ex._kronecker_valuation(num.coeffs, den.coeffs, 1) == (
        1, tuple(want))
    assert num.exact_div(den) == Poly(want)


def test_divide_rejects_quotient_read_at_too_narrow_a_width():
    # (1 - q^200)^4 / (1 - q)^4 = [200]^4: dividend and divisor have 3-bit
    # coefficients, the quotient 23-bit ones, so the first width wraps them
    num = Poly([1] + [0] * 199 + [-1]) ** 4
    den = Poly([1, -1]) ** 4
    want = ex._long_div(num.coeffs, den.coeffs)
    assert max(want).bit_length() > 20
    assert ex._kronecker_valuation(num.coeffs, den.coeffs, 1) == (
        1, tuple(want))
    assert num.exact_div(den) == Poly(want)


def test_divide_falls_back_when_widths_run_out(monkeypatch):
    num = q_pochhammer(1, 48)
    den = q_pochhammer(1, 24) ** 2
    want = Poly(ex._long_div(num.coeffs, den.coeffs))
    monkeypatch.setattr(ex, "_KRONECKER_DIV_TRIES", 1)
    assert ex._kronecker_valuation(num.coeffs, den.coeffs, 1) is None
    assert num.exact_div(den) == want
    assert (num + 1).try_exact_div(den) is None


def test_divide_zero_and_short_dividend():
    b = rand_poly(random.Random(SEED + 3), ex._KRONECKER_DIV_MIN_LEN + 2, 30)
    assert ZERO.exact_div(b) == ZERO
    assert Poly([5]).try_exact_div(b) is None
    with pytest.raises(ZeroDivisionError):
        b.try_exact_div(ZERO)


def _gcd_cases(rng):
    for length in (1, 2, 5, 12, 30):
        for bits in (1, 10, 40, 90):
            g = rand_poly(rng, length, bits)
            u = rand_poly(rng, rng.randint(1, 25), rng.randint(1, 30))
            v = rand_poly(rng, rng.randint(1, 25), rng.randint(1, 30))
            yield g * u * rng.choice((1, -6)), g * v * rng.choice((1, 10))
            yield u, v


def test_gcd_matches_prs(monkeypatch):
    rng = random.Random(SEED + 4)
    for a, b in _gcd_cases(rng):
        want = ex._prs_gcd(a.primitive(), b.primitive())
        if want.leading < 0:
            want = -want
        assert gcd_rational(a, b) == want
        cofactors = []
        assert gcd_rational(b, a, cofactors=cofactors) == want
        assert [want * c for c in cofactors] == [b, a]
        if a.degree > 0 and b.degree > 0:
            pa, pb = a.primitive(), b.primitive()
            heu = ex._heu_gcd(pa, pb)
            assert heu is None or (heu[0] == want and heu[0] * heu[1] == pa
                                   and heu[0] * heu[2] == pb)
    # at the first point, 2^8, the values share 205, whose digits -51 + q
    # divide neither input; the second, 2^16, decides with a gcd of 5
    widths = []
    unpack = ex._unpack
    monkeypatch.setattr(ex, "_unpack",
                        lambda v, n, w: widths.append(w) or unpack(v, n, w))
    assert ex._heu_gcd(Poly([0, 4, 2, -4, 3]), Poly([-1, -4]))[0] == ONE
    assert widths == [1, 2]


def test_gcd_falls_back_to_prs(monkeypatch):
    rng = random.Random(SEED + 5)
    cases = list(_gcd_cases(rng))
    fast = [gcd_rational(a, b) for a, b in cases]
    monkeypatch.setattr(ex, "_HEU_GCD_TRIES", 0)
    assert [gcd_rational(a, b) for a, b in cases] == fast


def test_gcd_zero_constant_and_sign():
    p = Poly([3, -1, 4, -1, -5])
    assert gcd_rational(ZERO, p) == -p
    assert gcd_rational(p, ZERO) == -p
    assert gcd_rational(Poly([-7]), p) == ONE
    assert gcd_rational(p * 6, Poly([0, 0, 4])) == ONE
    with pytest.raises(ex.BothZeroError):
        gcd_rational(ZERO, ZERO)


def test_gcd_with_a_constant_skips_primitive_parts(monkeypatch):
    big = q_pochhammer(1, 12) * 10
    # a constant input decides the gcd before any content pass
    monkeypatch.setattr(Poly, "primitive", None)
    assert gcd_rational(Poly([6]), big) == ONE
    assert gcd_rational(big, Poly([-1])) == ONE
    assert gcd_rational(ZERO, Poly([-4])) == ONE
    with pytest.raises(ex.BothZeroError):
        gcd_rational(ZERO, ZERO)


def test_q_binomial_matches_pochhammer_quotient():
    # the slots are 1 to 8 bytes wide up to n = 60, wider at (70, 35), (80, 40)
    pairs = [(n, k) for n in range(61) for k in range(n // 2 + 1)]
    for n, k in pairs + [(70, 35), (80, 40)]:
        want = q_pochhammer(1, n).exact_div(
            q_pochhammer(1, k) * q_pochhammer(1, n - k))
        assert q_binomial(n, k) == q_binomial(n, n - k) == want, (n, k)
    assert q_binomial(5, -1) == q_binomial(5, 6) == ZERO


def test_q_binomial_rejects_slots_too_narrow(monkeypatch):
    # one-byte slots: [10, 5] peaks at 20, but [14, 7] at 169 > 127 wraps
    want = q_binomial(10, 5)
    monkeypatch.setattr(qcombinatorics, "_width", lambda bits: 1)
    assert q_binomial.__wrapped__(10, 5) == want
    with pytest.raises(ArithmeticError):
        q_binomial.__wrapped__(14, 7)


@pytest.mark.parametrize("n, k", [(240, 120), (400, 60)])
def test_q_binomial_large_rows_against_their_values(n, k):
    g = q_binomial(n, k)
    assert len(g) == k * (n - k) + 1
    assert min(g.coeffs) >= 0
    assert g(1) == math.comb(n, k)
    for x in (2, -2, 3):
        num = den = 1
        for i in range(k):
            num *= x ** (n - i) - 1
            den *= x ** (i + 1) - 1
        assert num % den == 0 and g(x) == num // den, x


def _valuation_by_division(p, d):
    # the loop reference: divide by Phi_d while it divides exactly
    phi, v = cyclotomic(d), 0
    while (p := p.try_exact_div(phi)) is not None:
        v += 1
    return v


def test_phi_valuation_matches_division_loop():
    # c Phi_d^e R with small or 200-bit coefficients, c of either sign,
    # and R coprime to Phi_d or carrying more of it
    rng = random.Random(SEED + 7)
    for _ in range(300):
        d, e = rng.randint(1, 40), rng.randint(0, 5)
        c = rng.choice([1, -1, 6, -(1 << 200) - 1])
        r = rand_poly(rng, rng.randint(1, 30), rng.choice([4, 200]))
        if rng.random() < 0.3:
            r = r * cyclotomic(d) ** rng.randint(1, 2)
        p = c * cyclotomic(d) ** e * r
        got = phi_valuation(p, d)
        assert got == _valuation_by_division(p, d) and got >= e, (d, e)


def test_phi_valuation_ignores_accidental_integer_divisibility(monkeypatch):
    # in one-byte slots, 255 = Phi_1(256) divides p(256) = 98175 though
    # p(1) = 255 is not 0, so the packed count 1 is not a multiplicity
    p = Poly([127, 127, 1])
    assert p(256) % 255 == 0 and p(1) != 0
    monkeypatch.setattr(ex, "_width", lambda bits: 1)
    assert ex._kronecker_valuation(p.coeffs, cyclotomic(1).coeffs) is None
    assert phi_valuation(p, 1) == 0


def test_phi_valuation_falls_back_to_polynomial_division(monkeypatch):
    # (q - 1)^3 (q + 2) has valuation 3 at Phi_1, but one-byte slots cannot
    # certify it: |Q|_inf |Phi_1|_1^3 needs 2 + 3 * 2 bits, not 7
    p = cyclotomic(1) ** 3 * Poly([2, 1])
    calls = []
    divide = Poly.try_exact_div
    monkeypatch.setattr(ex, "_width", lambda bits: 1)
    monkeypatch.setattr(Poly, "try_exact_div",
                        lambda a, b: calls.append(b) or divide(a, b))
    assert phi_valuation(p, 1) == 3
    assert len(calls) == 4


def _horner(p, x):
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def test_evaluation_matches_horner():
    # lengths 0-400 at ±xi, the small integers and a fraction; and the
    # packed value at 2^(8w), the point GCDHEU evaluates at
    rng = random.Random(SEED + 8)
    lengths = {0, 1, 2, 3, 255, 256, 257, 400}
    lengths |= {rng.randint(0, 400) for _ in range(10)}
    for length in sorted(lengths):
        for bits in (3, 100):
            p = rand_poly(rng, length, bits)
            xi = 2 * max(map(abs, p.coeffs), default=0) + 29
            for x in (0, 1, -1, 2, -2, xi, -xi, Fraction(-3, 7)):
                assert p(x) == _horner(p, x), (length, bits, x)
            w = ex._width(bits + 1)
            assert ex._pack(p.coeffs, w) == _horner(p, 1 << (8 * w))


def test_against_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def to_sympy(p):
        return sympy.Poly(list(reversed(p.coeffs)) or [0], q, domain="ZZ")

    def from_sympy(p):
        return Poly(int(c) for c in reversed(p.all_coeffs()))

    rng = random.Random(SEED + 6)
    for a, b in _gcd_cases(rng):
        assert to_sympy(a * b) == to_sympy(a) * to_sympy(b)
        if a and b:
            g = sympy.gcd(to_sympy(a), to_sympy(b))
            _, g = g.primitive()
            if g.LC() < 0:
                g = -g
            assert gcd_rational(a, b) == from_sympy(g)
            # exact quotients, and non-divisibility, as sympy sees them
            # over Z; only a unit b divides both a*b and a*b + 1
            p, sym_b = a * b, to_sympy(b)
            assert p.exact_div(b) == from_sympy(
                to_sympy(p).exquo(sym_b, auto=False))
            if b not in (ONE, -ONE):
                with pytest.raises(sympy.polys.polyerrors.ExactQuotientFailed):
                    to_sympy(p + 1).exquo(sym_b, auto=False)
                assert (p + 1).try_exact_div(b) is None
    # rem(num, Phi_d^e) == 0 exactly when the Phi_d valuation reaches e
    for d in (3, 5, 12, 25):
        phi = cyclotomic(d)
        sym_phi = sympy.Poly(sympy.cyclotomic_poly(d, q), q, domain="ZZ")
        assert to_sympy(phi) == sym_phi
        for e in (1, 2, 3):
            num = rand_poly(rng, 30, 20) * phi ** rng.randint(0, 3)
            rem = to_sympy(num).rem(sym_phi ** e)
            assert rem.is_zero == (phi_valuation(num, d) >= e)
