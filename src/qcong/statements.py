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
objects the statements manipulate. The sums of the theorem terms
f_k = q^C(k+1,2) [alpha+k-1, k] [alpha+n-1, n-1-k] come from fk_sums,
which steps from one term to the next by their exact ratio on a packed
integer; the Apery-type left sides of guguo and gsz_03 come from
apery_sum, stepped the same way; sums of c/(1 - q^m) add their terms on
one packed integer over the known common denominator, a product of
cyclotomic polynomials (frac_sum).

Every denominator is built factored: frac_sum's common denominator, the
1/[n] of the q-Fermat quotient, and the [n] (qint), 1 - q^m
(one_minus_qpow) and [n, k] (qbinom) that divide or multiply a fraction
carry their cyclotomic factors as QExpr exponent maps. No builder takes
a gcd; a value is reduced only when it is observed, and
check_congruence reads the margins from the unreduced difference.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .congruence import Status, Verdict, check_congruence, check_int_congruence
from .cyclotomic import CycloModulus, factor_q_integer, is_prime
from .euler import euler_polynomial_value
from .exact import ONE, Poly, QExpr
from .qcombinatorics import (
    apery_sum,
    fk_sums,
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


@dataclass(frozen=True)
class QCongruence:
    lhs: QExpr
    rhs: QExpr
    modulus: CycloModulus


@dataclass(frozen=True)
class IntCongruence:
    lhs: Fraction
    rhs: Fraction
    modulus: int


@dataclass(frozen=True)
class RationalIdentity:
    lhs: Fraction
    rhs: Fraction


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

def _phi(n: int, e: int = 1) -> CycloModulus:
    return CycloModulus.phi(n, e)


def _alt_frac_sum(bound: int, offset: int, q_weight: bool) -> QExpr:
    """sum_{k=1}^{bound} (-1)^k q^(k if q_weight) / (1 - q^(k+offset))."""
    return frac_sum(
        (Poly.monomial(k if q_weight else 0, (-1) ** k), k + offset)
        for k in range(1, bound + 1)
    )


def _even_recip_sum(bound: int) -> QExpr:
    """sum_{k=1}^{bound} 1/(1 - q^(2k))."""
    return frac_sum((1, 2 * k) for k in range(1, bound + 1))


def _fermat_over_1mq(n: int) -> QExpr:
    return q_fermat_quotient(2, n) / one_minus_qpow(1)


def m_star(n: int, alpha: int) -> int:
    """sum_k C(alpha+k-1, k) C(alpha+n, n-k), an exact integer."""
    if n < 0 or alpha < 1:
        raise ValueError("need n >= 0 and alpha >= 1")
    return sum(
        math.comb(alpha + k - 1, k) * math.comb(alpha + n, n - k)
        for k in range(n + 1)
    )


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
        2 * QExpr(qn * Poly([1, -1]))
        + QExpr(qn * (2 * Poly.monomial(alpha) - ONE) - qa) / qint(alpha)
        - 2 * qint(n) * q_fermat_quotient(2, n)
        - 2 * qint(n) * q_harmonic("alternating", alpha)
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
    lhs = QExpr(fk_sums(n, a)[0])
    # k = 0 term (step_a11_a12) plus the k >= 1 tail (step_a10)
    rhs = _a10_rhs(n, a) + qint(n) / qint(a)
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_t2(p, variant):
    n, a = p["n"], p["alpha"]
    # step_b1 (corrected) followed by step_b7
    rhs = -QExpr(q_integer(n)) - _b7_rhs(n, a)
    return QCongruence(QExpr(fk_sums(n, a)[2]), rhs, _phi(n, 2))


def _build_cor1a(p, variant):
    pp, a = p["p"], p["alpha"]
    lhs = Fraction(m_star(pp - 1, a))
    qp2 = _fermat_quotient_rational(pp, variant)
    rhs = (
        -1
        - 2 * pp * qp2
        - pp * (euler_polynomial_value(pp - 2, 0) - euler_polynomial_value(pp - 2, a))
    )
    return IntCongruence(lhs, rhs, pp * pp)


def _build_cor1b(p, variant):
    pp, a = p["p"], p["alpha"]
    lhs = Fraction(
        sum(
            (pp - k) * math.comb(a + k - 1, k) * math.comb(a + pp - 1, pp - 1 - k)
            for k in range(pp)
        )
    )
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
    return QCongruence(lhs, rhs, _phi(pp, 2))


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
    return QCongruence(lhs, rhs, _phi(pp, 2))


def _build_guozeng(p, variant):
    n = p["n"]
    total = sum(
        math.comb(n + k, k) ** 2 * math.comb(n - 1, k) ** 2 for k in range(n)
    )
    return IntCongruence(Fraction(total), Fraction(0), n)


def _build_guguo(p, variant):
    n = p["n"]
    rhs = QExpr(q_integer(n).shifted(1))
    return QCongruence(QExpr(apery_sum(n, 1)), rhs, _phi(n, 2))


def _build_gsz(p, variant):
    n, r = p["n"], p["r"]
    qn = q_integer(n)
    rhs = (
        QExpr(qn.shifted((r - 1) * n + 1))
        - Fraction(r * (2 * r - 1) * (n - 1) ** 2, 4)
        * QExpr(Poly([1, -1]) ** 2 * qn ** 3).shifted(1)
    )
    return QCongruence(QExpr(apery_sum(n, r)), rhs,
                       factor_q_integer(n).raised_at(n, 3))


def _build_lemma_a1(p, variant):
    n = p["n"]
    lhs = _alt_frac_sum(n - 1, 0, q_weight=False)
    rhs = 2 * _even_recip_sum((n - 1) // 2) - Fraction(n - 1, 2)
    return QCongruence(lhs, rhs, _phi(n))


def _build_lemma_a2(p, variant):
    n = p["n"]
    lhs = _even_recip_sum((n - 1) // 2)
    return QCongruence(lhs, -_fermat_over_1mq(n), _phi(n))


def _build_a3(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = _alt_frac_sum(n - 1, a, q_weight=False)
    # -2 sum_(k<=alpha) (-1)^k/(1 - q^k) - 1/(1 - q^n) + 1/(1 - q^alpha)
    recips = frac_sum([(-2 * (-1) ** k, k) for k in range(1, a + 1)]
                      + [(-1, n), (1, a)])
    rhs = recips - 2 * _fermat_over_1mq(n) - Fraction(n - 1, 2)
    return QCongruence(lhs, rhs, _phi(n))


def _build_a4(p, variant):
    n, a, k = p["n"], p["alpha"], p["k"]
    lhs = QExpr(q_binomial(a + n - 1, a + k))
    rhs = (
        one_minus_qpow(n)
        * QExpr((-1) ** k).shifted(-math.comb(k + 1, 2))
        / (one_minus_qpow(a + k) * qbinom(a + k - 1, k))
    )
    return QCongruence(lhs, rhs, _phi(n, 2))


def _a_corner(n: int, alpha: int) -> Poly:
    return (
        q_binomial(n - 1, n - alpha) * q_binomial(n + alpha - 1, alpha - 1)
    ).shifted(math.comb(n - alpha + 1, 2))


def _build_a5(p, variant):
    n, a = p["n"], p["alpha"]
    tail = fk_sums(n, a)[0] - q_binomial(a + n - 1, n - 1)
    lhs = QExpr(tail - _a_corner(n, a))
    rhs = one_minus_qpow(n) * _alt_frac_sum(n - 1, a, q_weight=False) + 1
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_a6(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(q_binomial(n + a - 1, a - 1))
    ratio_sum = frac_sum((ONE + Poly.monomial(i), i) for i in range(1, a))
    rhs = (
        QExpr(q_binomial(n - 1, n - a))
        * ((-1) ** (a - 1))
        * QExpr(1).shifted(math.comb(a, 2))
        * (1 + one_minus_qpow(n) * ratio_sum)
    )
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_a7(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(q_binomial(n - 1, a - 1))
    recip_sum = frac_sum((1, i) for i in range(1, a))
    if variant == "as_printed":
        inner = 1 - recip_sum
    else:
        inner = 1 - one_minus_qpow(n) * recip_sum
    rhs = QExpr((-1) ** (a - 1)).shifted(-math.comb(a, 2)) * inner
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_a8(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(q_binomial(n - 1, a - 1) * q_binomial(n + a - 1, a - 1))
    rhs = QExpr(1).shifted(-math.comb(a, 2)) * (
        (a - 1) * one_minus_qpow(n) - 1
    )
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_a9_0(p, variant):
    t, n = p["t"], p["n"]
    lhs = QExpr(1).shifted(t * n)
    rhs = 1 - t * one_minus_qpow(n)
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_a9(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(1).shifted(n * (n - 2 * a + 1) // 2)
    rhs = 1 + Fraction(2 * a - n - 1, 2) * one_minus_qpow(n)
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_a10(p, variant):
    n, a = p["n"], p["alpha"]
    tail = fk_sums(n, a)[0] - q_binomial(a + n - 1, n - 1)
    return QCongruence(QExpr(tail), _a10_rhs(n, a), _phi(n, 2))


def _build_a11_a12(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(q_binomial(a + n - 1, n - 1))
    rhs = qint(n) / qint(a)
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_b1(p, variant):
    n, a = p["n"], p["alpha"]
    _, weighted, double = fk_sums(n, a)
    qn = QExpr(q_integer(n))
    if variant == "as_printed":
        rhs = qn - QExpr(weighted)
    else:
        rhs = -qn - QExpr(weighted)
    return QCongruence(QExpr(double), rhs, _phi(n, 2))


def _b_corner(n: int, alpha: int) -> Poly:
    return (
        q_integer(n - alpha)
        * q_binomial(n - 1, n - alpha)
        * q_binomial(alpha + n - 1, n)
    ).shifted(math.comb(n - alpha + 1, 2))


def _build_b2(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(fk_sums(n, a)[1] - _b_corner(n, a))
    tail = frac_sum(((-1) ** k * q_integer(k), k + a) for k in range(1, n))
    rhs = one_minus_qpow(n) * tail + QExpr(q_integer(n - a))
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_b3(p, variant):
    n = p["n"]
    lhs = _alt_frac_sum(n - 1, 0, q_weight=True)
    rhs = -Fraction(n - 1, 2) - 2 * _fermat_over_1mq(n)
    return QCongruence(lhs, rhs, _phi(n))


def _build_b4(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = _alt_frac_sum(n - 1, a, q_weight=True)
    # -2 sum_(k<=alpha) (-q)^k/[k] - q^n/[n] + q^alpha/[alpha], each
    # q^k/[k] as (1 - q) q^k/(1 - q^k)
    one_minus_q = Poly([1, -1])
    recips = frac_sum(
        [(-2 * (-1) ** k * one_minus_q.shifted(k), k) for k in range(1, a + 1)]
        + [(-one_minus_q.shifted(n), n), (one_minus_q.shifted(a), a)])
    inner = (
        Fraction(1 - n, 2) * one_minus_qpow(1)
        - 2 * q_fermat_quotient(2, n)
        + recips
    )
    rhs = inner.shifted(-a) / one_minus_qpow(1)
    return QCongruence(lhs, rhs, _phi(n))


def _build_b5(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(1).shifted(n * (n - 2 * a + 1) // 2 - a)
    rhs = (1 + Fraction(2 * a - n - 1, 2) * one_minus_qpow(n)).shifted(-a)
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_b6(p, variant):
    n, a = p["n"], p["alpha"]
    lhs = QExpr(_b_corner(n, a))
    qn, qa = q_integer(n), q_integer(a)
    core = qa - (a - 1) * (qa * qn * Poly([1, -1])) - qn
    if variant == "as_printed":
        bracket = 1 + (2 * a - n - 1) * one_minus_qpow(n)
    else:
        # reinstates the halved coefficient used by the q-power expansion
        bracket = (2 + (2 * a - n - 1) * one_minus_qpow(n)) / 2
    rhs = bracket * QExpr(core).shifted(-a)
    return QCongruence(lhs, rhs, _phi(n, 2))


def _build_b7(p, variant):
    n, a = p["n"], p["alpha"]
    return QCongruence(QExpr(fk_sums(n, a)[1]), _b7_rhs(n, a), _phi(n, 2))


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

@dataclass(frozen=True)
class Statement:
    tag: str
    description: str
    build: object
    hypotheses: object
    default_grid: object
    canonical_variant: str = "as_printed"
    note: str = ""

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


def _grid_t1():
    return _theorem_grid(25)


def _grid_steps():
    return _theorem_grid(15)


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
        _grid_t1,
    ),
    Statement(
        "t2",
        "doubly weighted q-binomial sum = q-shifted combination mod Phi_n^2",
        _build_t2,
        _hyp_theorem,
        _grid_t1,
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
        _grid_steps,
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
        _grid_steps,
    ),
    Statement(
        "step_a6",
        "q-binomial ratio expansion with (1+q^i)/(1-q^i) sum mod Phi_n^2",
        _build_a6,
        _hyp_theorem,
        _grid_steps,
    ),
    Statement(
        "step_a7",
        "q-binomial expansion with reciprocal sum mod Phi_n^2",
        _build_a7,
        _hyp_theorem,
        _grid_steps,
        canonical_variant="corrected",
        note="the printed form omits the (1-q^n) factor on the reciprocal"
        " sum; the corrected variant restores it",
    ),
    Statement(
        "step_a8",
        "product of two q-binomials reduced mod Phi_n^2",
        _build_a8,
        _hyp_theorem,
        _grid_steps,
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
        _grid_steps,
    ),
    Statement(
        "step_a10",
        "tail of the t1 sum (k >= 1) reduced mod Phi_n^2",
        _build_a10,
        _hyp_theorem,
        _grid_steps,
    ),
    Statement(
        "step_a11_a12",
        "k = 0 term of the t1 sum equals [n]/[alpha] mod Phi_n^2",
        _build_a11_a12,
        _hyp_theorem,
        _grid_steps,
    ),
    Statement(
        "step_b1",
        "double sum telescoped to a [k]-weighted sum mod Phi_n^2",
        _build_b1,
        _hyp_theorem,
        _grid_steps,
        canonical_variant="corrected",
        note="the printed leading term [n] has the wrong sign; the"
        " corrected variant uses -[n]",
    ),
    Statement(
        "step_b2",
        "[k]-weighted sum minus corner term in reciprocal form mod Phi_n^2",
        _build_b2,
        _hyp_theorem,
        _grid_steps,
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
        _grid_steps,
    ),
    Statement(
        "step_b5",
        "second triangular q-power exponent linearized mod Phi_n^2",
        _build_b5,
        _hyp_a9,
        _grid_steps,
    ),
    Statement(
        "step_b6",
        "corner product reduced to q-integer combination mod Phi_n^2",
        _build_b6,
        _hyp_theorem,
        _grid_steps,
        canonical_variant="corrected",
        note="the printed bracket drops a factor 1/2 on (2 alpha - n - 1);"
        " the printed form only coincides when alpha = (n+1)/2",
    ),
    Statement(
        "step_b7",
        "[k]-weighted sum reduced to the t2 combination mod Phi_n^2",
        _build_b7,
        _hyp_theorem,
        _grid_steps,
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

@dataclass(frozen=True)
class VerdictRecord:
    statement: str
    variant: str
    params: tuple  # sorted (name, value) pairs
    verdict: Verdict
    elapsed_ms: int
    hypothesis_error: str = ""

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
    With jobs > 1 every cell of every run goes through a single process
    pool of at most min(jobs, cells) workers; otherwise the cells run in
    order in this process.
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
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(_run_cells, _guided_chunks(cells, workers))
            records = [rec for chunk in chunks for rec in chunk]
    else:
        records = _run_cells(cells)
    records.sort(key=lambda r: (r.statement, r.variant, r.params))
    return records
