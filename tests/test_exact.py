import operator
import random
from fractions import Fraction

import pytest

from qcong.congruence import check_congruence
from qcong.cyclotomic import factor_q_integer
from qcong.exact import (
    Poly,
    QExpr,
    ZERO,
    ONE,
    Q,
    gcd_rational,
    NotDivisibleError,
    BothZeroError,
)
from qcong.qcombinatorics import (
    frac_sum, one_minus_qpow, q_binomial, q_fermat_quotient, q_integer,
    q_pochhammer, qbinom, qint,
)


def test_poly_normalization():
    assert Poly([0, 0, 0]) == ZERO
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([]).degree == float("-inf")
    assert Poly([5]).degree == 0
    assert Poly([0, 0, 7]).degree == 2
    assert ZERO.leading == 0
    assert Poly([1, -3]).leading == -3


def test_poly_rejects_non_integer_coeffs():
    with pytest.raises(TypeError):
        Poly([1.5])
    with pytest.raises(TypeError):
        Poly([Fraction(1, 2)])


def test_poly_int_equality_and_hash():
    assert Poly([3]) == 3
    assert Poly([]) == 0
    assert Poly([1, 1]) != 2
    assert hash(Poly([3])) == hash(3)
    assert hash(ZERO) == hash(0)


def test_poly_arithmetic():
    p = Poly([1, 2, 1])
    assert p + 1 == Poly([2, 2, 1])
    assert 1 + p == Poly([2, 2, 1])
    assert p - p == ZERO
    assert 2 - Poly([1]) == 1
    assert p * 0 == ZERO
    assert (Q + 1) * (Q - 1) == Q ** 2 - 1
    assert (1 + Q) ** 3 == Poly([1, 3, 3, 1])
    assert Q ** 0 == ONE
    assert ZERO ** 0 == ONE


def test_poly_getitem_and_call():
    p = Poly([3, 0, -2])
    assert p[0] == 3 and p[1] == 0 and p[2] == -2
    assert p[17] == 0
    assert p(2) == 3 - 8
    assert p(Fraction(1, 2)) == Fraction(5, 2)


def test_poly_shifted():
    assert Poly([1, 1]).shifted(2) == Poly([0, 0, 1, 1])
    assert ZERO.shifted(5) == ZERO
    with pytest.raises(ValueError):
        Q.shifted(-1)


def test_exact_div():
    a = Poly([-1, 0, 0, 0, 0, 0, 1])  # q^6 - 1
    b = Poly([-1, 1])                 # q - 1
    assert a.exact_div(b) == Poly([1, 1, 1, 1, 1, 1])
    assert a.try_exact_div(Poly([1, 1])) == Poly([-1, 1, -1, 1, -1, 1])
    assert a.try_exact_div(Poly([1, 1, 1])) == Poly([-1, 1, 0, -1, 1])
    assert a.try_exact_div(Poly([2, 1])) is None
    # divisible over Q but not over Z
    assert Poly([-1, 0, 1]).try_exact_div(Poly([-2, 2])) is None
    with pytest.raises(NotDivisibleError):
        Poly([1, 1]).exact_div(Q)
    with pytest.raises(ZeroDivisionError):
        Q.exact_div(ZERO)
    assert ZERO.exact_div(Q) == ZERO


def test_content_primitive():
    assert Poly([4, -6, 2]).content() == 2
    assert Poly([4, -6, 2]).primitive() == Poly([2, -3, 1])
    assert Poly([-4, -8]).primitive() == Poly([-1, -2])
    assert ZERO.content() == 0
    assert ZERO.primitive() == ZERO
    assert Poly([6]).scaled_down(3) == 2
    with pytest.raises(NotDivisibleError):
        Poly([3, 2]).scaled_down(2)


def test_gcd_rational():
    assert gcd_rational(Poly([-1, 0, 1]), Poly([1, 2, 1])) == Poly([1, 1])
    # content is ignored, result is primitive with positive leading coeff
    assert gcd_rational(Poly([2, 2]) * Poly([3, 0, 3]), Poly([-5, -5])) == Poly([1, 1])
    assert gcd_rational(Poly([7]), Poly([14])) == ONE
    assert gcd_rational(ZERO, Poly([-2, -4])) == Poly([1, 2])
    assert gcd_rational(Poly([-2, -4]), ZERO) == Poly([1, 2])
    with pytest.raises(BothZeroError):
        gcd_rational(ZERO, ZERO)


def test_gcd_random_products():
    rng = random.Random(7)
    for _ in range(60):
        g = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1])
        a = g * Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))] + [1])
        b = g * Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))] + [1])
        got = gcd_rational(a, b)
        # the common factor g must divide the computed gcd
        assert got.try_exact_div(g.primitive()) is not None or g.primitive() == ONE \
            or gcd_rational(got, g).degree >= 0
        assert a.primitive().try_exact_div(got) is not None
        assert b.primitive().try_exact_div(got) is not None


def test_laurent_normalization():
    # q^-5 (3q^2 + q^3): the power of q leaves num and joins the shift
    l = QExpr(Poly([0, 0, 3, 1])).shifted(-5)
    assert l.num == Poly([3, 1])
    assert l.shift == -3
    assert l.den == ONE
    z = QExpr(ZERO).shifted(9)
    assert not z and z.shift == 0
    assert QExpr(ONE).shifted(2) == QExpr(Poly([0, 0, 1]))
    # a power of q downstairs becomes a negative shift
    assert QExpr(1, Poly([0, 0, 1])) == QExpr(1).shifted(-2)


def test_laurent_arithmetic():
    qinv = QExpr(1).shifted(-1)
    assert qinv * QExpr(1).shifted(1) == 1
    assert qinv + 1 == QExpr(Poly([1, 1])).shifted(-1)
    s = QExpr(Poly([1, 1])).shifted(-2) - QExpr(Poly([1])).shifted(-2)
    assert s == qinv
    assert s.num == ONE and s.shift == -1
    assert (qinv ** 3)(Fraction(2)) == Fraction(1, 8)
    assert QExpr(Poly([1, 1])).shifted(-1)(Fraction(1, 2)) == 3
    # shifts of either sign compose and agree with multiplying by q^k
    x = QExpr(Poly([1, 2]), Poly([1, -1]))
    assert x.shifted(4).shifted(-7) == x.shifted(-3) == x * qinv ** 3
    assert x.shifted(-3).shifted(3) == x and x.shifted(0) is x
    assert str(QExpr(Poly([1, 1])).shifted(-2)) == "q^-2*(1 + q)"
    assert str(x.shifted(1)) == "(q*(-1 - 2*q))/(-1 + q)"


def test_qexpr_canonical_form():
    # q powers in the denominator move to the numerator shift
    x = QExpr(Poly([0, 0, 2]), Poly([0, 8]))
    assert x.num == ONE and x.shift == 1
    assert x.den == Poly([4])
    # polynomial cancellation
    assert QExpr(Poly([-1, 0, 1]), Poly([1, 1])) == QExpr(Poly([-1, 1]))
    # integer content splits reduced across num and den
    e = QExpr(2, 16)
    assert e.num == ONE and e.den == Poly([8])
    # denominator leading coefficient is made positive
    a = QExpr(Poly([1, 1]), Poly([1, -1]))
    assert a.den.leading > 0
    assert a == QExpr(Poly([-1, -1]), Poly([-1, 1]))


def test_qexpr_zero_and_division():
    z = QExpr(0)
    assert z == 0 and not z
    assert z.den == ONE
    with pytest.raises(ZeroDivisionError):
        QExpr(1, 0)
    with pytest.raises(ZeroDivisionError):
        QExpr(1) / z


def test_qexpr_field_ops():
    a = QExpr(Poly([1, 1]), Poly([1, -1]))
    assert a * (1 - Q) == 1 + Q
    assert a - a == 0
    assert a / a == 1
    assert (a + 1) * Fraction(1, 2) == QExpr(Poly([1]), Poly([1, -1]))
    assert 1 / QExpr(Q) == QExpr(1).shifted(-1)
    assert QExpr(Q) ** -2 == QExpr(1).shifted(-2)
    b = QExpr(Poly([1, 2, 1]), Poly([2]))
    assert b ** 2 == QExpr(Poly([1, 2, 1]) ** 2, Poly([4]))


def test_qexpr_fraction_coercion():
    assert QExpr(Fraction(3, 8)) == QExpr(3, 8)
    assert QExpr(Fraction(3, 8))(1) == Fraction(3, 8)
    assert QExpr(1, Fraction(1, 3)) == 3
    assert Fraction(1, 2) + QExpr(Q) == QExpr(Poly([1, 2]), 2)


def test_qexpr_evaluation():
    a = QExpr(Poly([1, 1]), Poly([1, 0, 1]))
    assert a(Fraction(2)) == Fraction(3, 5)
    assert a(1) == 1
    pole = QExpr(ONE, Poly([1, -1]))
    with pytest.raises(ZeroDivisionError):
        pole(1)
    # cancellation can remove an apparent pole
    ok = QExpr(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert ok(1) == 2
    # exact at q = 1 whatever the shift
    third = QExpr(1, 3).shifted(-4)(1)
    assert third == Fraction(1, 3) and type(third) is Fraction
    # a negative q-shift is a pole at q = 0, reported like any other pole
    with pytest.raises(ZeroDivisionError, match="pole at q = 0"):
        QExpr(1).shifted(-2)(0)
    assert QExpr(1).shifted(2)(0) == 0


def test_qexpr_hash_and_sets():
    s = {QExpr(1, 2), QExpr(2, 4), QExpr(Q)}
    assert len(s) == 2


def test_qexpr_hashes_as_the_equal_int_fraction_or_poly():
    pairs = [(QExpr(0), 0), (QExpr(-3), -3), (QExpr(-3), Poly([-3])),
             (QExpr(1, 2), Fraction(1, 2)), (QExpr(-5, 3), Fraction(-5, 3)),
             (QExpr(Poly([1, 1])), Poly([1, 1])),
             (QExpr(Poly([0, 0, 1])), Poly([0, 0, 1])),
             (QExpr(Poly([0, 2, 0, -1])), Poly([0, 2, 0, -1]))]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y), (x, y)
        assert len({x, y}) == 1, (x, y)
    # a negative q-shift or a nonconstant denominator equals no such value
    assert QExpr(1).shifted(-1) != Poly([0, 1])
    assert len({QExpr(1, Poly([1, 1])), QExpr(1, Poly([1, 1]))}) == 1


def test_ring_axioms_random():
    rng = random.Random(20240816)
    def rand_poly():
        return Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))])
    for _ in range(120):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        x = rng.randint(-5, 5)
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


def test_qexpr_field_axioms_random():
    rng = random.Random(99)
    def rand_expr():
        num = Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
        den = Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [rng.choice([1, 2, -1])])
        return QExpr(num, den).shifted(rng.randint(-2, 2))
    for _ in range(80):
        a, b, c = rand_expr(), rand_expr(), rand_expr()
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        if b:
            assert (a / b) * b == a


def _leaf(rng):
    # one value twice: factored, and built from plain Polys, whose sums,
    # products and quotients take the gcd path
    kind = rng.randrange(6)
    if kind == 0:
        n = rng.randint(0, 12)
        return qint(n), QExpr(q_integer(n))
    if kind == 1:
        m = rng.randint(1, 12)
        return one_minus_qpow(m), QExpr(ONE - Poly.monomial(m))
    if kind == 2:
        n = rng.randint(0, 10)
        k = rng.randint(-1, n + 1)
        return qbinom(n, k), QExpr(q_binomial(n, k))
    if kind == 3:
        terms = [(rng.randint(-3, 3), rng.randint(1, 8))
                 for _ in range(rng.randint(1, 4))]
        plain = sum((QExpr(c, ONE - Poly.monomial(m)) for c, m in terms),
                    QExpr(0))
        return frac_sum(terms), plain
    if kind == 4:
        m, n = rng.randint(1, 3), rng.randint(1, 7)
        ratio = q_pochhammer(m, n - 1).exact_div(q_pochhammer(1, n - 1))
        return q_fermat_quotient(m, n), QExpr(ratio - 1, q_integer(n))
    num = Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
    den = Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [1])
    k = rng.randint(-2, 2)
    return QExpr(num, den).shifted(k), QExpr(num, den).shifted(k)


def _expression(rng, depth):
    # the same random expression over factored and over plain leaves
    if not depth or rng.random() < 0.3:
        return _leaf(rng)
    (a, b), (c, d) = _expression(rng, depth - 1), _expression(rng, depth - 1)
    op = rng.choice("+-*/^s")
    if op == "^":
        k = rng.randint(-2 if a else 0, 3)
        return a ** k, b ** k
    if op == "s":
        k = rng.randint(-3, 3)
        return a.shifted(k), b.shifted(k)
    if op == "/" and not c:
        op = "*"
    f = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv}[op]
    return f(a, c), f(b, d)


def _evaluated(x, at):
    try:
        return x(at)
    except ZeroDivisionError:
        return "pole"


def test_factored_values_observe_as_the_gcd_path_does():
    rng = random.Random(1717)
    for _ in range(300):
        (x, y), (u, v) = _expression(rng, 3), _expression(rng, 2)
        # decided before either side is observed
        m = factor_q_integer(rng.randint(2, 12)).raised_at(rng.randint(1, 8))
        assert check_congruence(x, u, m) == check_congruence(y, v, m)
        assert str(x) == str(y) and repr(x) == repr(y)
        assert (x.num, x.den, x.shift) == (y.num, y.den, y.shift)
        assert x == y and hash(x) == hash(y) and u == v
        assert _evaluated(x, Fraction(1, 2)) == _evaluated(y, Fraction(1, 2))
