import math
import random
from fractions import Fraction

import pytest

from qcong import exact
from qcong.exact import ONE, Poly, QExpr, ZERO, gcd_rational
from qcong.cyclotomic import (
    CycloModulus, cyclotomic, factor_q_integer, phi_valuation,
)
from qcong.congruence import (
    CanonicalRep,
    FactorCheck,
    NotInvertibleError,
    Status,
    Verdict,
    check_congruence,
    check_int_congruence,
    reduce_mod,
)
from test_kernel_paths import quotient_or_none

PHI = CycloModulus.phi


def test_simple_holds():
    v = check_congruence(QExpr(Poly([0] * 5 + [1])), QExpr(1), PHI(5))
    assert v.status is Status.HOLDS and v.ok
    (fc,) = v.factors
    assert fc.d == 5 and fc.required == 1
    assert fc.val_num >= 1 and fc.val_den == 0


def test_power_expansion_mod_phi_squared():
    # q^(tn) = 1 - t(1 - q^n) mod Phi_n^2, here t=2, n=3
    lhs = QExpr(Poly([0] * 6 + [1]))
    rhs = QExpr(Poly([-1, 0, 0, 2]))
    assert check_congruence(lhs, rhs, PHI(3, 2)).ok
    # and fails at one exponent higher
    assert check_congruence(lhs, rhs, PHI(3, 3)).status is Status.FAILS


def test_pole_is_ill_posed():
    v = check_congruence(QExpr(1, cyclotomic(3)), QExpr(0), PHI(3))
    assert v.status is Status.ILL_POSED
    (fc,) = v.factors
    assert fc.margin == -1


def test_cancelling_poles_are_fine():
    # each side alone has a pole at Phi_3; the difference does not
    pole = QExpr(1, cyclotomic(3))
    lhs = pole + QExpr(cyclotomic(3) ** 2)
    v = check_congruence(lhs, pole, PHI(3))
    assert v.ok
    assert check_congruence(pole + 1, pole, PHI(3)).status is Status.FAILS


def test_composite_modulus():
    m = factor_q_integer(6)  # Phi_2 * Phi_3 * Phi_6
    q6 = Poly([1] * 6)
    assert check_congruence(QExpr(q6), QExpr(0), m).ok
    v = check_congruence(QExpr(q6), QExpr(0), m.raised_at(3))
    assert v.status is Status.FAILS
    assert [f.passes for f in v.factors] == [True, False, True]


def test_ill_posed_beats_fails():
    bad = QExpr(1, cyclotomic(3)) + QExpr(1)
    m = CycloModulus(((2, 1), (3, 1)))
    v = check_congruence(bad, QExpr(0), m)
    assert v.status is Status.ILL_POSED


def test_empty_modulus_rejected():
    with pytest.raises(ValueError):
        check_congruence(QExpr(1), QExpr(1), CycloModulus(()))


def test_coercion_of_plain_values():
    assert check_congruence(Poly([0, 0, 0, 1]), 1, PHI(3)).ok
    assert check_congruence(Fraction(1, 2), Fraction(1, 2), PHI(7)).ok


def test_relation_axioms_random():
    rng = random.Random(11)
    mods = [PHI(2), PHI(3), PHI(3, 2), CycloModulus(((2, 1), (3, 1)))]
    def rand_expr():
        num = Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
        den = rng.choice([ONE, Poly([1, 1, 1]), Poly([2]), Poly([1, 0, 1])])
        return QExpr(num, den).shifted(rng.randint(-1, 1))
    for _ in range(60):
        a, b, c, m = rand_expr(), rand_expr(), rand_expr(), rng.choice(mods)
        assert check_congruence(a, a, m).ok
        ab = check_congruence(a, b, m)
        assert ab.status == check_congruence(b, a, m).status
        if ab.ok and check_congruence(b, c, m).ok:
            assert check_congruence(a, c, m).ok
        # multiplying both sides by a q power never changes the verdict
        t = rng.randint(-3, 3)
        u = QExpr(1).shifted(t)
        assert check_congruence(a * u, b * u, m).status == ab.status


def test_monotonic_in_exponent():
    lhs = QExpr(cyclotomic(5) ** 2 * Poly([3, 1]))
    for e in (1, 2):
        assert check_congruence(lhs, 0, PHI(5, e)).ok
    assert check_congruence(lhs, 0, PHI(5, 3)).status is Status.FAILS


def test_int_congruence():
    assert check_int_congruence(Fraction(1, 2), 5, 9).ok
    v = check_int_congruence(Fraction(1, 3), 0, 9)
    assert v.status is Status.ILL_POSED
    assert check_int_congruence(7, 7, 25).ok
    assert check_int_congruence(3, 7, 25).status is Status.FAILS
    assert check_int_congruence(Fraction(-1, 2), 7, 5).ok  # -1/2 = 2 = 7 mod 5
    with pytest.raises(ValueError):
        check_int_congruence(1, 1, 1)
    with pytest.raises(ValueError):
        check_int_congruence(1, 1, 0)


def test_verdict_serialization():
    v = check_congruence(QExpr(0), QExpr(0), PHI(3, 2))
    d = v.to_dict()
    assert d["status"] == "holds"
    assert d["factors"][0]["val_num"] == "inf"
    assert d["factors"][0]["margin"] == "inf"
    v2 = check_int_congruence(1, 2, 5)
    assert v2.to_dict()["status"] == "fails"
    assert "difference" in v2.to_dict()["note"]


def test_reduce_mod_spec_cases():
    r = reduce_mod(QExpr(Poly([0] * 5 + [1])), PHI(5))
    assert r.scale == 1 and r.poly == ONE
    assert reduce_mod(QExpr(Poly([1, 1]) ** 2), PHI(2, 2)).poly == ZERO
    assert reduce_mod(QExpr(Poly([1, 1, 1])), PHI(3)).poly == ZERO


def test_reduce_mod_inverse_and_shift():
    r = reduce_mod(QExpr(1, Poly([1, 1])), PHI(3))
    assert r.scale == 1 and r.poly == Poly([0, -1])
    # q^-1 = q^2 = -1 - q mod Phi_3, reduced below degree 2
    r2 = reduce_mod(QExpr(1).shifted(-1), PHI(3))
    assert r2.scale == 1 and r2.poly == Poly([-1, -1])
    r3 = reduce_mod(QExpr(1, 2), PHI(3))
    assert r3.scale == Fraction(1, 2) and r3.poly == ONE
    assert reduce_mod(QExpr(0), PHI(4)).poly == ZERO


def test_reduce_mod_is_a_ring_hom_probe():
    rng = random.Random(3)
    m = PHI(5, 2)
    mpoly = m.poly()
    for _ in range(25):
        a = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 9))])
        b = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 9))])
        ra = reduce_mod(QExpr(a), m)
        rb = reduce_mod(QExpr(b), m)
        rab = reduce_mod(QExpr(a * b), m)
        # scale*poly values agree as residues: compare via another reduce
        prod = QExpr(ra.poly, 1) * QExpr(rb.poly, 1) * QExpr(Fraction(ra.scale * rb.scale))
        again = reduce_mod(prod, m)
        assert again.scale == rab.scale and again.poly == rab.poly


def test_reduce_mod_not_invertible():
    with pytest.raises(NotInvertibleError):
        reduce_mod(QExpr(1, cyclotomic(3)), PHI(3))
    with pytest.raises(NotInvertibleError):
        reduce_mod(QExpr(1, Poly([1] * 6)), PHI(3))


def test_congruence_agrees_with_reduce_mod():
    rng = random.Random(17)
    m = PHI(3, 2)
    for _ in range(40):
        a = QExpr(Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]),
                  rng.choice([ONE, Poly([2]), Poly([1, 1])]))
        b = QExpr(Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]))
        same_rep = reduce_mod(a - b, m).poly == ZERO
        assert check_congruence(a, b, m).ok == same_rep


REDUCE_MODULI = [
    PHI(3, 2),
    PHI(5, 2),
    PHI(7, 3),
    CycloModulus(((1, 2), (2, 1))),
    CycloModulus(((4, 1), (8, 2))),
    factor_q_integer(12),
]


def _reduce_cases(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        m = REDUCE_MODULI[i % len(REDUCE_MODULI)]
        num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 15))])
        den = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 12))])
        while not den:
            den = Poly([rng.randint(-9, 9)])
        if rng.random() < 0.2:
            den = den * cyclotomic(rng.choice(m.factors)[0])
        yield num, den, rng.randint(-12, 12), m


def test_reduce_mod_residue_is_congruent_reduced_and_primitive():
    for num, den, shift, m in _reduce_cases(41, 240):
        mpoly = m.poly()
        expr = QExpr(num, den).shifted(shift)
        # the canonical parts: a factor shared with num has cancelled
        num, den, shift = expr.num, expr.den, expr.shift
        if gcd_rational(den, mpoly).degree > 0:
            with pytest.raises(NotInvertibleError):
                reduce_mod(expr, m)
            continue
        r = reduce_mod(expr, m)
        if not r.poly:
            assert r.scale == 1
        else:
            assert r.scale > 0 and r.poly.content() == 1
            assert r.poly.degree < mpoly.degree
        # scale * poly * den - num * q^shift is a multiple of M, written
        # in Z[q] by clearing scale's denominator and a negative q-power
        a, b = r.scale.numerator, r.scale.denominator
        lhs = a * r.poly * den.shifted(max(-shift, 0))
        rhs = b * num.shifted(max(shift, 0))
        assert quotient_or_none(lhs - rhs, mpoly) is not None


def test_reduce_mod_against_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def to_sympy(p):
        return sympy.Poly(list(reversed(p.coeffs)) or [0], q, domain="QQ")

    for num, den, shift, m in _reduce_cases(43, 120):
        mpoly = to_sympy(m.poly())
        expr = QExpr(num, den).shifted(shift)
        num, den, shift = expr.num, expr.den, expr.shift
        # expr = num * q^shift / den: move the q-power to the polynomial side
        n_s = to_sympy(num.shifted(max(shift, 0)))
        d_s = to_sympy(den.shifted(max(-shift, 0)))
        if sympy.gcd(d_s, mpoly).degree() > 0:
            with pytest.raises(NotInvertibleError):
                reduce_mod(expr, m)
            continue
        want = (n_s * d_s.invert(mpoly)).rem(mpoly)
        r = reduce_mod(expr, m)
        assert want == to_sympy(r.poly) * sympy.Rational(
            r.scale.numerator, r.scale.denominator)


def test_reduce_mod_of_the_t1_difference_at_21_20():
    from qcong.statements import REGISTRY

    built = REGISTRY["t1"].build({"n": 21, "alpha": 20}, "as_printed")
    assert str(built.modulus) == "Phi_21^2"
    r = reduce_mod(built.lhs - built.rhs, built.modulus)
    assert r.poly == ZERO and r.scale == 1


def _reference_verdict(lhs, rhs, modulus):
    # the canonical difference (adding to QExpr(0) coerces plain values),
    # then the valuations of its num and den
    diff = QExpr(0) + lhs - rhs
    factors = tuple(
        FactorCheck(d, e, phi_valuation(diff.num, d), phi_valuation(diff.den, d))
        for d, e in modulus.factors
    )
    if any(f.margin < 0 for f in factors):
        status = Status.ILL_POSED
    elif all(f.passes for f in factors):
        status = Status.HOLDS
    else:
        status = Status.FAILS
    return Verdict(status, factors)


DIFF_MODULI = [
    PHI(2),
    PHI(3, 2),
    PHI(4, 3),
    CycloModulus(((2, 2), (3, 1), (6, 2))),
    factor_q_integer(12).raised_at(3, 2),
]


def _diff_cases(seed, count):
    # (lhs, rhs, modulus, kind); dens come from a small pool so that
    # equal denominators are common and every pole is at a modulus factor
    rng = random.Random(seed)
    dens = [ONE, Poly([2]), Poly([1, 2]), cyclotomic(2), cyclotomic(3),
            cyclotomic(3) ** 2 * Poly([1, 1]), cyclotomic(4) * cyclotomic(6),
            cyclotomic(2) * cyclotomic(12)]

    def poly(top=6):
        p = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, top))])
        if rng.random() < 0.3:
            p = p * cyclotomic(rng.choice([2, 3, 4, 6, 12])) ** rng.randint(1, 3)
        return p

    def expr():
        if rng.random() < 0.1:
            return QExpr(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        return QExpr(poly(), rng.choice(dens)).shifted(rng.randint(-3, 3))

    for _ in range(count):
        m = rng.choice(DIFF_MODULI)
        kind = rng.choice(["independent", "zero", "cancelling pole", "close"])
        a = expr()
        if kind == "independent":
            b = expr()
        elif kind == "zero":
            # the same value, built with its shift in the other operand
            t = rng.randint(-2, 2)
            a, b = a.shifted(t) * QExpr(1).shifted(-t), a
        elif kind == "cancelling pole":
            pole = QExpr(poly(3), rng.choice(dens[3:]))
            a, b = pole + a, pole
        else:
            # a and a + Phi_d^k * r / den: the margin at d is set by k
            d, _ = rng.choice(m.factors)
            step = QExpr(poly(3) * cyclotomic(d) ** rng.randint(0, 4),
                         rng.choice(dens)).shifted(rng.randint(-3, 3))
            b = a + step
        yield a, b, m, kind


def test_check_congruence_matches_the_canonical_difference():
    cells, shapes = set(), set()
    for a, b, m, kind in _diff_cases(59, 400):
        got = check_congruence(a, b, m)
        assert got.to_dict() == _reference_verdict(a, b, m).to_dict(), (a, b, m)
        cells.add((kind, a.den == b.den, got.status))
        if a.shift != b.shift:
            shapes.add(("shift", a.shift < b.shift))
        if len(a.num) == 1 and len(a.den) == 1:
            shapes.add(("constant", a.den != ONE))
    assert len(shapes) == 4
    assert {s for _, _, s in cells} == set(Status)
    assert ("zero", True, Status.HOLDS) in cells
    assert any(k == "cancelling pole" and s is Status.HOLDS for k, _, s in cells)
    for same_den in (True, False):
        assert any(eq is same_den and s is Status.ILL_POSED for _, eq, s in cells)
        assert any(eq is same_den and s is Status.FAILS for _, eq, s in cells)
    # plain values go through the same difference
    for x, y, m in [(Poly([0, 0, 0, 1]), 1, PHI(3)),
                    (Fraction(1, 2), Fraction(5, 2), PHI(2, 2)),
                    (Fraction(1, 3), Poly([1, 1]), factor_q_integer(6))]:
        assert check_congruence(x, y, m).to_dict() == \
            _reference_verdict(x, y, m).to_dict()


def test_check_congruence_takes_no_gcd(monkeypatch):
    calls = []

    def counting_gcd(a, b, **kwargs):
        calls.append((a, b))
        return gcd_rational(a, b, **kwargs)

    monkeypatch.setattr(exact, "gcd_rational", counting_gcd)
    m = factor_q_integer(6).raised_at(3)
    pole = QExpr(Poly([1, 2]), cyclotomic(3) * Poly([1, 1]))
    pairs = [
        (pole + QExpr(m.poly()), pole),
        (pole + QExpr(Poly([1, 0, 1])), pole),
        (QExpr(Poly([2, 1]), cyclotomic(3)).shifted(2), QExpr(1, cyclotomic(6))),
        (QExpr(Poly([0] * 6 + [1])), QExpr(Poly([-1, 0, 0, 2]))),
        (QExpr(Fraction(1, 2)), QExpr(Poly([3, 1]), cyclotomic(3))),
    ]
    calls.clear()
    verdicts = [check_congruence(a, b, m) for a, b in pairs]
    assert calls == []
    assert {v.status for v in verdicts} == set(Status)
    # plain Poly, int and Fraction sides are read as they stand
    plain = [
        (Poly(range(1, 400)), Poly([1, 2, 3]), PHI(3)),
        (Poly([0, 0, 2, 1]), 5, PHI(3, 2)),
        (Fraction(3, 4), Poly([1, 1]), PHI(2)),
    ]
    residues = [(Poly([1, 2, 3]), PHI(5)), (Fraction(-7, 6), PHI(5))]
    want = [check_congruence(QExpr(a), QExpr(b), mod) for a, b, mod in plain]
    want_reps = [reduce_mod(QExpr(x), mod) for x, mod in residues]
    calls.clear()
    assert [check_congruence(a, b, mod) for a, b, mod in plain] == want
    assert [reduce_mod(x, mod) for x, mod in residues] == want_reps
    assert calls == []
