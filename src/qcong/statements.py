"""Registry of parameterized congruence statements.

Each entry compiles a parameter assignment into exact objects for the
congruence engine: either a q-congruence (QExpr lhs/rhs plus a cyclotomic
modulus), an integer congruence among rationals, or an exact rational
identity. Statement tags are stable registry identifiers used by the CLI.

Variants: every statement has an "as_printed" variant that encodes the
congruence exactly as displayed in the text under verification. Where the
printed form is computationally false, a "corrected" variant documents a
minimal repair, both verdicts are reported side by side, and the
statement's canonical variant names the one believed true. Nothing is
silently substituted.

No closed forms are used anywhere, so verification exercises the same
objects the statements manipulate: the sums of the theorem terms f_k
(fk_sums), the Apery-type sums of guguo and gsz_03 (apery_sum) and the
sums of c/(1 - q^m) (frac_sum) are formed as qcombinatorics describes.

Every denominator is built factored: frac_sum's common denominator, the
1/[n] of the q-Fermat quotient, and the [n] (qint), 1 - q^m
(one_minus_qpow) and [n, k] (qbinom) that divide or multiply a fraction
carry their cyclotomic factors as QExpr exponent maps. No builder takes
a gcd; a value is reduced only when it is observed, and
check_congruence reads the margins from the unreduced difference.

step_a5-a8 and step_b6 take step_a9_0's q^(tn) = 1 - t (1 - q^n)
(mod Phi_n^2) at an int or QExpr t (_first_order); step_a9 is step_a9_0
at t = (n + 1)/2 - alpha, and step_b5 is step_a9 times q^(-alpha).
"""

from __future__ import annotations

import math
import os
import time
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .congruence import Status, Verdict, check_congruence, check_int_congruence
from .cyclotomic import CycloModulus, factor_q_integer, is_prime
from .euler import euler_polynomial_value
from .exact import ONE, Poly, QExpr
from .qcombinatorics import (
    _alt_frac_sum,
    _even_recip_sum,
    _fk_sum,
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
    qbinom,
    qint,
)


class HypothesisViolation(ValueError):
    """Parameters violate a statement's hypotheses; it refuses to build."""


class QCongruence(namedtuple("QCongruence", "lhs rhs modulus")):
    """lhs = rhs (mod modulus): two QExprs and a CycloModulus."""

    __slots__ = ()


class IntCongruence(namedtuple("IntCongruence", "lhs rhs modulus")):
    """lhs = rhs (mod modulus): two Fractions and an int."""

    __slots__ = ()


class RationalIdentity(namedtuple("RationalIdentity", "lhs rhs")):
    """lhs = rhs exactly: two Fractions."""

    __slots__ = ()


def evaluate_built(built) -> Verdict:
    if isinstance(built, QCongruence):
        return check_congruence(built.lhs, built.rhs, built.modulus)
    if isinstance(built, IntCongruence):
        if built.modulus == 1:
            return Verdict(Status.HOLDS, note="modulus 1 is trivial")
        return check_int_congruence(built.lhs, built.rhs, built.modulus)
    if isinstance(built, RationalIdentity):
        if built.lhs == built.rhs:
            return Verdict(Status.HOLDS, note=f"both sides equal {built.lhs}")
        return Verdict(
            Status.FAILS, note=f"lhs = {built.lhs}, rhs = {built.rhs}"
        )
    raise TypeError(f"cannot evaluate {type(built).__name__}")


# ---------------------------------------------------------------------------
# small builders shared by several statements

def _fermat_over_1mq(n: int) -> QExpr:
    return q_fermat_quotient(2, n) / one_minus_qpow(1)


def _first_order(n: int, t) -> QExpr:
    """1 - t (1 - q^n): step_a9_0's expansion of q^(tn) mod Phi_n^2."""
    return 1 - t * one_minus_qpow(n)


def m_star(n: int, alpha: int) -> int:
    """sum_k C(alpha+k-1, k) C(alpha+n, n-k): sum f_k at q = 1, n+1 terms."""
    if n < 0 or alpha < 1:
        raise ValueError("need n >= 0 and alpha >= 1")
    return fk_values(n + 1, alpha)[0]


def _corner(n: int, alpha: int) -> Poly:
    """[n-1, alpha-1] [n+alpha-1, alpha-1]: the t1 term f_(n-alpha)
    without its q-power."""
    return q_binomial(n - 1, alpha - 1) * q_binomial(n + alpha - 1, alpha - 1)


def _fermat_quotient_rational(p: int, variant: str) -> Fraction:
    if variant == "as_printed":
        return Fraction(2 ** p - 1, p)
    return Fraction(2 ** (p - 1) - 1, p)


# ---------------------------------------------------------------------------
# hypothesis helpers

def _need(cond: bool, msg: str):
    if not cond:
        raise HypothesisViolation(msg)


def _hyp_odd_n(p):
    n = p["n"]
    _need(n >= 1 and n % 2 == 1, f"n must be a positive odd integer, got {n}")


def _hyp_theorem(p):
    _hyp_odd_n(p)
    a = p["alpha"]
    _need(a >= 1 and a % 2 == 0, f"alpha must be a positive even integer, got {a}")
    _need(a <= p["n"], f"alpha <= n required, got alpha={a} n={p['n']}")


def _hyp_odd_prime(p):
    v = p["p"]
    _need(is_prime(v) and v % 2 == 1, f"p must be an odd prime, got {v}")


def _hyp_corollary(p):
    _hyp_odd_prime(p)
    a = p["alpha"]
    _need(a >= 1 and a % 2 == 0, f"alpha must be a positive even integer, got {a}")
    _need(a <= p["p"] - 1, f"alpha <= p-1 required, got alpha={a} p={p['p']}")


# ---------------------------------------------------------------------------
# per-tag builders; each returns QCongruence / IntCongruence / RationalIdentity

def _a10_rhs(n: int, alpha: int) -> QExpr:
    """The step_a10 reduction of the k >= 1 tail of the t1 sum."""
    qn, qa = q_integer(n), q_integer(alpha)
    return (
        2 * one_minus_qpow(n)
        + QExpr(qn * (2 * Poly.monomial(alpha) - ONE) - qa) / qint(alpha)
        - 2 * qint(n)
        * (q_fermat_quotient(2, n) + q_harmonic("alternating", alpha))
    )


def _b7_rhs(n: int, alpha: int) -> QExpr:
    """The step_b7 reduction of the [k]-weighted sum."""
    qn, qa = q_integer(n), q_integer(alpha)
    return (
        QExpr(qa - qn).shifted(-alpha)
        + 2 * (qint(alpha) * qint(n)).shifted(-alpha)
        * (q_fermat_quotient(2, n) + q_harmonic("alternating_q", alpha))
    )


def _build_t1(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(_fk_sum(n, a, 0))
    # k = 0 term (step_a11_a12) plus the k >= 1 tail (step_a10)
    rhs = _a10_rhs(n, a) + qint(n) / qint(a)
    return QCongruence(lhs, rhs, CycloModulus.phi(n, 2))


def _build_t2(p, variant):
    n, a = p["n"], p["alpha"]
    # step_b1 (corrected) followed by step_b7
    rhs = -QExpr(q_integer(n)) - _b7_rhs(n, a)
    return QCongruence(QExpr(_fk_sum(n, a, 2)), rhs, CycloModulus.phi(n, 2))


def _build_cor1a(p, variant):
    pp, a = p["p"], p["alpha"]
    lhs = Fraction(fk_values(pp, a)[0])
    qp2 = _fermat_quotient_rational(pp, variant)
    rhs = (
        -1
        - 2 * pp * qp2
        - pp * (euler_polynomial_value(pp - 2, 0) - euler_polynomial_value(pp - 2, a))
    )
    return IntCongruence(lhs, rhs, pp * pp)


def _build_cor1b(p, variant):
    pp, a = p["p"], p["alpha"]
    lhs = Fraction(fk_values(pp, a)[2])
    qp2 = _fermat_quotient_rational(pp, variant)
    rhs = (
        -a
        - 2 * a * pp * qp2
        - a * pp * (
            euler_polynomial_value(pp - 2, a + 1)
            + euler_polynomial_value(pp - 2, 0)
        )
    )
    return IntCongruence(lhs, rhs, pp * pp)


def _build_pan1(p, variant):
    pp = p["p"]
    one_minus_q = one_minus_qpow(1)
    qp = q_fermat_quotient(2, pp)
    np = qint(pp)
    lhs = 2 * q_harmonic("plain_even", (pp - 1) // 2) + 2 * qp - qp ** 2 * np
    rhs = (qp * one_minus_q + Fraction(pp * pp - 1, 8) * one_minus_q ** 2) * np
    return QCongruence(lhs, rhs, CycloModulus.phi(pp, 2))


def _build_pan2(p, variant):
    pp = p["p"]
    one_minus_q = one_minus_qpow(1)
    np = qint(pp)
    alt = q_harmonic("alternating", pp - 1)
    # the corrected variant drops the stray factor 2 on the left
    lhs = 2 * alt if variant == "as_printed" else alt
    rhs = (
        2 * q_harmonic("plain_even", (pp - 1) // 2)
        - Fraction(pp - 1, 2) * one_minus_q
        - Fraction(pp * pp - 1, 24) * one_minus_q ** 2 * np
    )
    return QCongruence(lhs, rhs, CycloModulus.phi(pp, 2))


def _build_guozeng(p, variant):
    n = p["n"]
    total = sum(v * v for v in apery_values(n))
    return IntCongruence(Fraction(total), Fraction(0), n)


def _build_guguo(p, variant):
    n = p["n"]
    rhs = QExpr(q_integer(n).shifted(1))
    return QCongruence(QExpr(apery_sum(n, 1)), rhs, CycloModulus.phi(n, 2))


def _build_gsz(p, variant):
    n, r = p["n"], p["r"]
    rhs = (
        QExpr(q_integer(n).shifted((r - 1) * n + 1))
        - Fraction(r * (2 * r - 1) * (n - 1) ** 2, 4)
        * (one_minus_qpow(n) ** 2 * qint(n)).shifted(1)
    )
    return QCongruence(QExpr(apery_sum(n, r)), rhs,
                       factor_q_integer(n).raised_at(n, 3))


def _build_lemma_a1(p, variant):
    n = p["n"]
    lhs = _alt_frac_sum(n - 1, 0, q_weight=False)
    rhs = 2 * _even_recip_sum((n - 1) // 2) - Fraction(n - 1, 2)
    return QCongruence(lhs, rhs, CycloModulus.phi(n))


def _build_lemma_a2(p, variant):
    n = p["n"]
    lhs = _even_recip_sum((n - 1) // 2)
    return QCongruence(lhs, -_fermat_over_1mq(n), CycloModulus.phi(n))


def _build_a3(p, variant, q_weight=False):
    n, a = p["n"], p["alpha"]
    e = 1 if q_weight else 0
    lhs = _alt_frac_sum(n - 1, a, q_weight)
    # -2 sum_(k<=alpha) (-1)^k q^(ek)/(1 - q^k) - q^(en)/(1 - q^n)
    # + q^(e alpha)/(1 - q^alpha)
    recips = frac_sum(
        [(Poly.monomial(e * k, -2 * (-1) ** k), k) for k in range(1, a + 1)]
        + [(Poly.monomial(e * n, -1), n), (Poly.monomial(e * a), a)])
    rhs = recips - 2 * _fermat_over_1mq(n) - Fraction(n - 1, 2)
    return QCongruence(lhs, rhs.shifted(-e * a), CycloModulus.phi(n))


def _build_a4(p, variant):
    n, a, k = p["n"], p["alpha"], p["k"]
    lhs = QExpr(q_binomial(a + n - 1, a + k))
    rhs = (
        (-1) ** k * one_minus_qpow(n)
        / (one_minus_qpow(a + k) * qbinom(a + k - 1, k))
    ).shifted(-math.comb(k + 1, 2))
    return QCongruence(lhs, rhs, CycloModulus.phi(n, 2))


def _build_a5(p, variant):
    n, a = p["n"], p["alpha"]
    tail = fk_sums(n, a)[0] - q_binomial(a + n - 1, n - 1)
    lhs = QExpr(tail - _corner(n, a).shifted(math.comb(n - a + 1, 2)))
    rhs = _first_order(n, -_alt_frac_sum(n - 1, a, q_weight=False))
    return QCongruence(lhs, rhs, CycloModulus.phi(n, 2))


def _build_a6(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(q_binomial(n + a - 1, a - 1))
    # sum_(i<alpha) (1 + q^i)/(1 - q^i) = 2 R - (alpha - 1), R of step_a7
    t = a - 1 - 2 * frac_sum((1, i) for i in range(1, a))
    rhs = ((-1) ** (a - 1) * QExpr(q_binomial(n - 1, n - a))
           * _first_order(n, t)).shifted(math.comb(a, 2))
    return QCongruence(lhs, rhs, CycloModulus.phi(n, 2))


def _build_a7(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(q_binomial(n - 1, a - 1))
    r = frac_sum((1, i) for i in range(1, a))  # R = sum_(i<alpha) 1/(1-q^i)
    inner = 1 - r if variant == "as_printed" else _first_order(n, r)
    rhs = ((-1) ** (a - 1) * inner).shifted(-math.comb(a, 2))
    return QCongruence(lhs, rhs, CycloModulus.phi(n, 2))


def _build_a8(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(_corner(n, a))
    rhs = (-_first_order(n, a - 1)).shifted(-math.comb(a, 2))
    return QCongruence(lhs, rhs, CycloModulus.phi(n, 2))


def _build_a9_0(p, variant):
    t, n = p["t"], p["n"]
    return QCongruence(QExpr(1).shifted(t * n), _first_order(n, t),
                       CycloModulus.phi(n, 2))


def _build_a9(p, variant):
    # step_a9_0 at t = (n + 1)/2 - alpha, an integer for odd n
    n = p["n"]
    return _build_a9_0({"t": (n + 1) // 2 - p["alpha"], "n": n}, variant)


def _build_a10(p, variant):
    n, a = p["n"], p["alpha"]
    tail = fk_sums(n, a)[0] - q_binomial(a + n - 1, n - 1)
    return QCongruence(QExpr(tail), _a10_rhs(n, a), CycloModulus.phi(n, 2))


def _build_a11_a12(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(q_binomial(a + n - 1, n - 1))
    rhs = qint(n) / qint(a)
    return QCongruence(lhs, rhs, CycloModulus.phi(n, 2))


def _build_b1(p, variant):
    n, a = p["n"], p["alpha"]
    _, weighted, double = fk_sums(n, a)
    qn = QExpr(q_integer(n))
    if variant == "as_printed":
        rhs = qn - QExpr(weighted)
    else:
        rhs = -qn - QExpr(weighted)
    return QCongruence(QExpr(double), rhs, CycloModulus.phi(n, 2))


def _b_corner(n: int, alpha: int) -> Poly:
    return (q_integer(n - alpha) * _corner(n, alpha)).shifted(
        math.comb(n - alpha + 1, 2))


def _build_b2(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(fk_sums(n, a)[1] - _b_corner(n, a))
    tail = frac_sum(((-1) ** k * q_integer(k), k + a) for k in range(1, n))
    rhs = one_minus_qpow(n) * tail + QExpr(q_integer(n - a))
    return QCongruence(lhs, rhs, CycloModulus.phi(n, 2))


def _build_b3(p, variant):
    n = p["n"]
    lhs = _alt_frac_sum(n - 1, 0, q_weight=True)
    rhs = -Fraction(n - 1, 2) - 2 * _fermat_over_1mq(n)
    return QCongruence(lhs, rhs, CycloModulus.phi(n))


def _build_b4(p, variant):
    # step_a3 with each reciprocal weighted by its q-power, shifted by -alpha
    return _build_a3(p, variant, q_weight=True)


def _build_b5(p, variant):
    # step_a9 with both sides times q^(-alpha)
    lhs, rhs, modulus = _build_a9(p, variant)
    a = p["alpha"]
    return QCongruence(lhs.shifted(-a), rhs.shifted(-a), modulus)


def _build_b6(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(_b_corner(n, a))
    core = qint(a) * _first_order(n, a - 1) - qint(n)
    # q^(tn) expanded at t = (n + 1)/2 - alpha, or at 2t as printed
    t = (n + 1) // 2 - a
    bracket = _first_order(n, 2 * t if variant == "as_printed" else t)
    rhs = (bracket * core).shifted(-a)
    return QCongruence(lhs, rhs, CycloModulus.phi(n, 2))


def _build_b7(p, variant):
    n, a = p["n"], p["alpha"]
    return QCongruence(QExpr(fk_sums(n, a)[1]), _b7_rhs(n, a), CycloModulus.phi(n, 2))


def _euler_form(m: int, x: int) -> Fraction:
    """(-1)^x/2 * (E_m(x+1) + (-1)^x E_m(0))."""
    sign = (-1) ** x
    return Fraction(sign, 2) * (
        euler_polynomial_value(m, x + 1) + sign * euler_polynomial_value(m, 0)
    )


def _build_identity_t0(p, variant):
    m, n = p["m"], p["n"]
    lhs = Fraction(sum((-1) ** k * k ** m for k in range(1, n + 1)))
    return RationalIdentity(lhs, _euler_form(m, n))


def _build_cong_t0a(p, variant):
    pp, a = p["p"], p["alpha"]
    lhs = sum(Fraction((-1) ** k, k) for k in range(1, a + 1))
    return IntCongruence(Fraction(lhs), _euler_form(pp - 2, a), pp)


# ---------------------------------------------------------------------------
# registry

class Statement:
    """One read-only registry entry. build(params, variant) gives a
    QCongruence, IntCongruence or RationalIdentity; hypotheses(params)
    raises HypothesisViolation; default_grid() lists the parameter dicts."""

    def __init__(self, tag, description, build, hypotheses, default_grid,
                 canonical_variant="as_printed", note=""):
        vars(self).update(
            tag=tag, description=description, build=build,
            hypotheses=hypotheses, default_grid=default_grid,
            canonical_variant=canonical_variant, note=note,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"Statement {self.tag} is read-only")

    @cached_property
    def params(self) -> tuple:
        """Parameter names, in the order of the default grid's cells."""
        return tuple(self.default_grid()[0])

    @property
    def variants(self) -> tuple:
        """as_printed, then the canonical variant where that differs."""
        return tuple(dict.fromkeys(("as_printed", self.canonical_variant)))


def _theorem_grid(n_hi):
    return [
        {"n": n, "alpha": a}
        for n in range(3, n_hi + 1, 2)
        for a in range(2, n + 1, 2)
    ]


def _grid_a4():
    return [
        {"n": n, "alpha": a, "k": k}
        for n in range(3, 16, 2)
        for a in range(2, n + 1, 2)
        for k in range(0, n - a)
    ]


def _grid_n_odd(hi):
    return [{"n": n} for n in range(3, hi + 1, 2)]


def _grid_cor():
    return [
        {"p": p, "alpha": a}
        for p in (3, 5, 7, 11, 13)
        for a in range(2, p, 2)
    ]


def _grid_pan():
    return [{"p": p} for p in (3, 5, 7, 11)]


def _hyp_a4(p):
    _hyp_odd_n(p)
    n, a, k = p["n"], p["alpha"], p["k"]
    _need(a >= 1, f"alpha must be positive, got {a}")
    _need(a <= n, f"alpha <= n required, got alpha={a} n={n}")
    _need(0 <= k <= n - 1, f"k must lie in [0, n-1], got {k}")
    _need(k != n - a, "k = n - alpha is excluded")


def _hyp_positive_n(p):
    _need(p["n"] >= 1, f"n must be positive, got {p['n']}")


def _hyp_gsz(p):
    _need(p["n"] >= 1, f"n must be positive, got {p['n']}")
    _need(p["r"] >= 1, f"r must be positive, got {p['r']}")


def _hyp_t0(p):
    _need(p["m"] >= 0, f"m must be >= 0, got {p['m']}")
    _need(p["n"] >= 1, f"n must be positive, got {p['n']}")


def _hyp_t0a(p):
    _hyp_odd_prime(p)
    a = p["alpha"]
    _need(1 <= a <= p["p"] - 1, f"need 1 <= alpha <= p-1, got alpha={a}")


def _hyp_a9(p):
    _hyp_odd_n(p)
    _need(p["alpha"] >= 1, f"alpha must be positive, got {p['alpha']}")


_STATEMENTS = [
    Statement(
        "t1",
        "weighted q-binomial sum = harmonic/Fermat-quotient combination mod Phi_n^2",
        _build_t1,
        _hyp_theorem,
        lambda: _theorem_grid(25),
    ),
    Statement(
        "t2",
        "doubly weighted q-binomial sum = q-shifted combination mod Phi_n^2",
        _build_t2,
        _hyp_theorem,
        lambda: _theorem_grid(25),
    ),
    Statement(
        "cor1a",
        "integer corollary of t1 at q -> 1, congruence mod p^2",
        _build_cor1a,
        _hyp_corollary,
        _grid_cor,
        canonical_variant="standard_fermat_quotient",
        note="the printed Fermat quotient (2^p-1)/p is off by 2^p from the"
        " standard (2^(p-1)-1)/p; both variants are evaluated",
    ),
    Statement(
        "cor1b",
        "integer corollary of t2 at q -> 1, congruence mod p^2",
        _build_cor1b,
        _hyp_corollary,
        _grid_cor,
        canonical_variant="standard_fermat_quotient",
        note="same printed Fermat-quotient constant as cor1a",
    ),
    Statement(
        "pan1",
        "even q-harmonic sum vs q-Fermat quotient mod Phi_p^2",
        _build_pan1,
        _hyp_odd_prime,
        _grid_pan,
    ),
    Statement(
        "pan2",
        "alternating vs even q-harmonic sums mod Phi_p^2",
        _build_pan2,
        _hyp_odd_prime,
        _grid_pan,
        canonical_variant="corrected",
        note="the printed left side carries a stray factor 2; without it"
        " the congruence holds",
    ),
    Statement(
        "guozeng_01",
        "Apery-style binomial sum divisible by n",
        _build_guozeng,
        _hyp_positive_n,
        lambda: [{"n": n} for n in range(1, 51)],
    ),
    Statement(
        "guguo",
        "q-analogue of the Apery-style sum mod Phi_n^2",
        _build_guguo,
        _hyp_positive_n,
        lambda: [{"n": n} for n in range(2, 21)],
    ),
    Statement(
        "gsz_03",
        "higher-power q-binomial sum mod [n] Phi_n^3",
        _build_gsz,
        _hyp_gsz,
        lambda: [{"n": n, "r": r} for n in range(2, 13) for r in (1, 2, 3)],
    ),
    Statement(
        "lemma_a1",
        "alternating reciprocal sum vs even reciprocal sum mod Phi_n",
        _build_lemma_a1,
        _hyp_odd_n,
        lambda: _grid_n_odd(25),
    ),
    Statement(
        "lemma_a2",
        "even reciprocal sum vs q-Fermat quotient mod Phi_n",
        _build_lemma_a2,
        _hyp_odd_n,
        lambda: _grid_n_odd(25),
    ),
    Statement(
        "step_a3",
        "shifted alternating reciprocal sum reduced mod Phi_n",
        _build_a3,
        _hyp_theorem,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "step_a4",
        "single q-binomial flipped into reciprocal form mod Phi_n^2",
        _build_a4,
        _hyp_a4,
        _grid_a4,
        note="printed for k != n-alpha; computationally the congruence needs"
        " k < n-alpha, and the default grid stays in that range (the"
        " k > n-alpha cells fail and are pinned in tests)",
    ),
    Statement(
        "step_a5",
        "corner-adjusted weighted q-binomial sum mod Phi_n^2",
        _build_a5,
        _hyp_theorem,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "step_a6",
        "q-binomial ratio expansion with (1+q^i)/(1-q^i) sum mod Phi_n^2",
        _build_a6,
        _hyp_theorem,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "step_a7",
        "q-binomial expansion with reciprocal sum mod Phi_n^2",
        _build_a7,
        _hyp_theorem,
        lambda: _theorem_grid(15),
        canonical_variant="corrected",
        note="the printed form omits the (1-q^n) factor on the reciprocal"
        " sum; the corrected variant restores it",
    ),
    Statement(
        "step_a8",
        "product of two q-binomials reduced mod Phi_n^2",
        _build_a8,
        _hyp_theorem,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "step_a9_0",
        "q^(tn) linearized in (1-q^n) mod Phi_n^2",
        _build_a9_0,
        _hyp_positive_n,
        lambda: [{"t": t, "n": n} for t in range(-3, 5) for n in range(1, 13)],
    ),
    Statement(
        "step_a9",
        "triangular q-power exponent linearized mod Phi_n^2",
        _build_a9,
        _hyp_a9,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "step_a10",
        "tail of the t1 sum (k >= 1) reduced mod Phi_n^2",
        _build_a10,
        _hyp_theorem,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "step_a11_a12",
        "k = 0 term of the t1 sum equals [n]/[alpha] mod Phi_n^2",
        _build_a11_a12,
        _hyp_theorem,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "step_b1",
        "double sum telescoped to a [k]-weighted sum mod Phi_n^2",
        _build_b1,
        _hyp_theorem,
        lambda: _theorem_grid(15),
        canonical_variant="corrected",
        note="the printed leading term [n] has the wrong sign; the"
        " corrected variant uses -[n]",
    ),
    Statement(
        "step_b2",
        "[k]-weighted sum minus corner term in reciprocal form mod Phi_n^2",
        _build_b2,
        _hyp_theorem,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "step_b3",
        "q-weighted alternating reciprocal sum mod Phi_n",
        _build_b3,
        _hyp_odd_n,
        lambda: _grid_n_odd(15),
    ),
    Statement(
        "step_b4",
        "shifted q-weighted alternating reciprocal sum mod Phi_n",
        _build_b4,
        _hyp_theorem,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "step_b5",
        "second triangular q-power exponent linearized mod Phi_n^2",
        _build_b5,
        _hyp_a9,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "step_b6",
        "corner product reduced to q-integer combination mod Phi_n^2",
        _build_b6,
        _hyp_theorem,
        lambda: _theorem_grid(15),
        canonical_variant="corrected",
        note="the printed bracket drops a factor 1/2 on (2 alpha - n - 1);"
        " the printed form only coincides when alpha = (n+1)/2",
    ),
    Statement(
        "step_b7",
        "[k]-weighted sum reduced to the t2 combination mod Phi_n^2",
        _build_b7,
        _hyp_theorem,
        lambda: _theorem_grid(15),
    ),
    Statement(
        "identity_t0",
        "alternating power sum expressed by Euler polynomials, exact",
        _build_identity_t0,
        _hyp_t0,
        lambda: [{"m": m, "n": n} for m in range(1, 11) for n in range(1, 51)],
        note="false at m = 0 (both sides differ by the constant term); the"
        " default grid starts at m = 1 and tests pin the m = 0 behavior",
    ),
    Statement(
        "cong_t0a",
        "alternating harmonic number vs Euler polynomial values mod p",
        _build_cong_t0a,
        _hyp_t0a,
        lambda: [
            {"p": p, "alpha": a} for p in (3, 5, 7, 11, 13) for a in range(1, p)
        ],
    ),
]

REGISTRY = {s.tag: s for s in _STATEMENTS}

assert len(REGISTRY) == 30


# ---------------------------------------------------------------------------
# verification driver

class VerdictRecord(namedtuple(
    "VerdictRecord",
    "statement variant params verdict elapsed_ms hypothesis_error",
    defaults=("",),
)):
    """One evaluated cell; params holds sorted (name, value) pairs."""

    __slots__ = ()

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def to_dict(self) -> dict:
        out = {
            "statement": self.statement,
            "variant": self.variant,
            "params": dict(self.params),
            "status": self.verdict.status.value,
            "factors": [f.to_dict() for f in self.verdict.factors],
            "elapsed_ms": self.elapsed_ms,
        }
        if self.verdict.note:
            out["note"] = self.verdict.note
        if self.hypothesis_error:
            out["hypothesis_error"] = self.hypothesis_error
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "VerdictRecord":
        return cls(
            statement=data["statement"],
            variant=data["variant"],
            params=tuple(sorted(data["params"].items())),
            verdict=Verdict.from_dict(data),
            elapsed_ms=int(data["elapsed_ms"]),
            hypothesis_error=data.get("hypothesis_error", ""),
        )


def run_cell(tag: str, variant: str, params: dict) -> VerdictRecord:
    """Evaluate one statement at one parameter point; never raises for
    hypothesis violations, which become ill_posed records."""
    stmt = REGISTRY[tag]
    if variant not in stmt.variants:
        raise ValueError(f"{tag} has no variant {variant!r}")
    key = tuple(sorted(params.items()))
    start = time.perf_counter()
    try:
        stmt.hypotheses(params)
        built = stmt.build(params, variant)
        verdict = evaluate_built(built)
        hyp_err = ""
    except HypothesisViolation as e:
        verdict = Verdict(Status.ILL_POSED, note=f"hypothesis violated: {e}")
        hyp_err = str(e)
    elapsed = int((time.perf_counter() - start) * 1000)
    return VerdictRecord(tag, variant, key, verdict, elapsed, hyp_err)


def _guided_chunks(cells: list, workers: int) -> list[list]:
    """Cut cells, in order, into chunks of floor(left / (2 workers)) of the
    cells still left, at least one and at most ceil(cells / (8 workers))
    each, so sizes never increase and the last cells go out one at a time
    to whichever worker is free. The cap keeps heavy cells at the front
    of the grid (t1 and t2 open the registry) spread over the workers.

    >>> [len(c) for c in _guided_chunks(list(range(40)), 2)]
    [3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1]
    """
    cap = -(-len(cells) // (8 * workers))
    chunks, start = [], 0
    while start < len(cells):
        size = max(1, min(cap, (len(cells) - start) // (2 * workers)))
        chunks.append(cells[start:start + size])
        start += size
    return chunks


def _run_cells(chunk):
    return [run_cell(*c) for c in chunk]


def verify(tag, grid=None, variant: str | None = None, jobs: int = 1):
    """Run a statement over a parameter grid; deterministic result order.

    grid is a list of parameter dicts (default: the statement's own grid);
    variant defaults to the statement's canonical variant. tag may instead
    be a list of (tag, variant, grid) runs, each defaulted the same way
    where variant or grid is None; grid and variant must then be None.

    Returns one list of records sorted by (statement, variant, params).
    With jobs > 1 every cell of every run goes to one set of at most
    min(jobs, cells) forked workers; otherwise, or where the platform
    cannot fork, the cells run in order in this process.
    """
    if isinstance(tag, str):
        runs = [(tag, variant, grid)]
    elif grid is not None or variant is not None:
        raise ValueError("a list of runs carries its own variants and grids")
    else:
        runs = tag
    cells = []
    for run_tag, run_variant, run_grid in runs:
        stmt = REGISTRY[run_tag]
        if run_variant is None:
            run_variant = stmt.canonical_variant
        if run_grid is None:
            run_grid = stmt.default_grid()
        cells.extend((run_tag, run_variant, params) for params in run_grid)
    workers = min(jobs, len(cells))
    if workers > 1 and hasattr(os, "fork"):
        # forkmap loads only in a process that forks workers
        from .forkmap import fork_map

        chunks = fork_map(_run_cells, _guided_chunks(cells, workers), workers)
        records = [rec for chunk in chunks for rec in chunk]
    else:
        records = _run_cells(cells)
    records.sort(key=lambda r: (r.statement, r.variant, r.params))
    return records
