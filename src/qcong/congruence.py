"""Decide congruences between rational q-expressions modulo products of
cyclotomic powers, and between rational numbers modulo integers.

Semantics: to check lhs = rhs mod prod Phi_d^e, write the difference
D = q^s * N/E * prod Phi_d^(m_d), unreduced, by the rule every QExpr
sum follows (exact._sum_parts), where m holds the cyclotomic factors
that both sides carry factored, and compare Phi_d-adic valuations per
factor. val_d(N) is read from N's residue mod (q^d - 1)^K, folded from
N's parts, so a long N is never formed or divided; below a length
crossover the residue is N itself (check_congruence).
The margin at d is val_d(N) + m_d - val_d(E). It is the margin
of the reduced difference: a factor common to N and E cancels in it, and
the monic, primitive Phi_d divides neither q nor a nonzero integer.
val_num and val_den are the margin's positive and negative parts. The
congruence holds when every margin reaches the required exponent, fails
when some margin falls short but none is negative, and is ill posed when
the difference itself has a pole at a modulus factor. Working on the
difference rather than on each side separately means a pole that cancels
between the two sides does not poison the verdict; when both sides are
individually admissible this reduces to the usual divisibility
definition.

reduce_mod writes a residue modulo M = prod Phi_d^e in its canonical form
of degree below deg(M). It inverts the denominator with the integer
extended primitive pseudo-remainder sequence and reduces by the monic M,
both on the Z[q] kernel's one long-division loop.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .cyclotomic import CycloModulus, phi_valuation
from .exact import (ONE, Poly, QExpr, ZERO, _fold, _mk, _parts_num,
                    _phi_power, _pseudo_divmod, _sum_parts)

__all__ = [
    "CycloModulus",
    "Status",
    "FactorCheck",
    "Verdict",
    "CanonicalRep",
    "NotInvertibleError",
    "check_congruence",
    "check_int_congruence",
    "reduce_mod",
]


class NotInvertibleError(ArithmeticError):
    """Denominator is not invertible modulo the given modulus."""


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    ILL_POSED = "ill_posed"

    def __str__(self):
        return self.value


def _val_str(v):
    return "inf" if v == math.inf else int(v)


def _val_parse(v):
    return math.inf if v == "inf" else int(v)


class FactorCheck(namedtuple("FactorCheck", "d required val_num val_den")):
    """Valuation bookkeeping for one modulus factor Phi_d^required.

    val_num and val_den are the multiplicities of Phi_d in the numerator
    and denominator of the reduced difference, each an int or math.inf,
    at most one of them positive: max(margin, 0) and max(-margin, 0). A
    zero difference has val_num inf and val_den 0.
    """

    __slots__ = ()

    @property
    def margin(self):
        return self.val_num - self.val_den

    @property
    def passes(self) -> bool:
        return self.margin >= self.required

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "required": self.required,
            "val_num": _val_str(self.val_num),
            "val_den": _val_str(self.val_den),
            "margin": _val_str(self.margin),
        }

    def __str__(self):
        return (f"Phi_{self.d}: need {self.required},"
                f" margin {_val_str(self.margin)}")

    @classmethod
    def from_dict(cls, data: dict) -> "FactorCheck":
        return cls(
            d=int(data["d"]),
            required=int(data["required"]),
            val_num=_val_parse(data["val_num"]),
            val_den=_val_parse(data["val_den"]),
        )


class Verdict(namedtuple("Verdict", "status factors note", defaults=((), ""))):
    """A Status, the FactorChecks behind it, and a free-text note."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status is Status.HOLDS

    def to_dict(self) -> dict:
        out = {"status": self.status.value}
        if self.factors:
            out["factors"] = [f.to_dict() for f in self.factors]
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Verdict":
        return cls(
            status=Status(data["status"]),
            factors=tuple(
                FactorCheck.from_dict(f) for f in data.get("factors", ())
            ),
            note=data.get("note", ""),
        )

    def __str__(self):
        bits = [self.status.value, *map(str, self.factors)]
        if self.note:
            bits.append(self.note)
        return "; ".join(bits)


# Fold the parts of a difference only when the bound on its degree is at
# least _FOLD_MIN_RATIO * K * d. A fold costs K multiply-adds per
# coefficient of each part and a product of degree below 2Kd, where
# forming N costs the cofactor products at N's full length and a
# valuation that divides all of it. On the 963 default q-cells (one
# process, both variants, caches warm) folding every cell won above a
# ratio of 8 (47.8 -> 32.2 ms for ratios 8-12, 38.0 -> 16.6 ms above 12),
# tied at 6-8 and lost up to 1.6x below 6.
_FOLD_MIN_RATIO = 8


def _residue(parts, d: int, k: int) -> Poly:
    """The num of exact._sum_parts mod (q^d - 1)^k, folded part by part:
    each num with its q-shift, each cofactor, and their product."""
    out = ZERO
    for p, factors, t in parts:
        r = _mk(_fold((0,) * t + p.coeffs, d, k))
        if factors:
            cof = _mk(_fold(_phi_power(factors).coeffs, d, k))
            r = _mk(_fold((r * cof).coeffs, d, k))
        out = out + r
    return out


def check_congruence(lhs, rhs, modulus: CycloModulus) -> Verdict:
    """Verdict for lhs = rhs modulo the cyclotomic modulus.

    lhs and rhs may be QExpr, Poly, Fraction, or int. The
    modulus must be nonempty; a congruence mod 1 carries no content and a
    request for one is treated as a usage error.

    Each side is read as it stands, with no gcd: exact._sum_parts, the
    rule QExpr sums follow, writes lhs + (-rhs) as q^s * N/E *
    prod Phi_k^(m_k), where m_k is the smaller of the two sides' exponents
    at Phi_k. The margin at k is v_k(N) + m_k - v_k(E); no valuation is
    taken of a constant E or of a known Phi_k, and no gcd or division
    reduces N/E. Each factor's record comes from the margin, as
    FactorCheck says.

    v_k(N) for a factor Phi_k^e comes from R = N mod (q^k - 1)^K, folded
    from N's parts (_residue), starting at K = e + 1. Phi_k^K divides
    (q^k - 1)^K, so R = N mod Phi_k^K, and v_k(R) < K is v_k(N). Otherwise
    K doubles, or, for R = 0, goes straight past the bound D on deg N;
    once K*k > D, R is N itself, formed as QExpr sums form it, and its
    valuation is exact, inf for N = 0. A difference with
    D < _FOLD_MIN_RATIO * (e + 1) * k starts there, unfolded.
    """
    if modulus.is_empty:
        raise ValueError("empty modulus")
    lhs, rhs = (x if isinstance(x, QExpr) else QExpr(x) for x in (lhs, rhs))
    parts, den, _, low = _sum_parts(lhs, -rhs)
    # deg Phi_j <= j, so this bounds deg N
    bound = max(len(p) + t + sum(j * e for j, e in factors)
                for p, factors, t in parts) - 1
    num = None
    checks = []
    pole = False
    short = False
    for k, e in modulus.factors:
        K = e + 1
        if bound < _FOLD_MIN_RATIO * K * k:
            K = bound // k + 1
        while K * k <= bound:
            r = _residue(parts, k, K)
            v = phi_valuation(r, k)
            if v < K:
                break
            K = 2 * K if r else bound // k + 1
        else:
            if num is None:
                num = _parts_num(parts)
            v = phi_valuation(num, k)
        m = v + low.get(k, 0)
        # a zero N has margin inf, and no Phi_k divides a constant
        if v != math.inf and len(den) > 1:
            m -= phi_valuation(den, k)
        fc = FactorCheck(k, e, max(m, 0), max(-m, 0))
        checks.append(fc)
        if fc.margin < 0:
            pole = True
        elif not fc.passes:
            short = True
    if pole:
        status = Status.ILL_POSED
    elif short:
        status = Status.FAILS
    else:
        status = Status.HOLDS
    return Verdict(status, tuple(checks))


def check_int_congruence(lhs, rhs, modulus: int) -> Verdict:
    """Verdict for lhs = rhs (mod modulus) among rational numbers.

    Requires modulus >= 2. A side whose reduced denominator shares a
    factor with the modulus is not a residue at all, so the verdict is
    ill_posed rather than fails.
    """
    if not isinstance(modulus, int) or modulus < 2:
        raise ValueError("integer modulus must be >= 2")
    a = Fraction(lhs)
    b = Fraction(rhs)
    for side, val in (("lhs", a), ("rhs", b)):
        if math.gcd(val.denominator, modulus) != 1:
            return Verdict(
                Status.ILL_POSED,
                note=f"{side} denominator {val.denominator} shares a factor with {modulus}",
            )
    diff = a - b
    # str(Decimal(n)) has every digit of n, whatever the int-to-str limit
    text = str(Decimal(diff.numerator))
    if diff.denominator != 1:
        text += f"/{Decimal(diff.denominator)}"
    if diff.numerator % modulus == 0:
        return Verdict(Status.HOLDS, note=f"difference {text} = 0 (mod {modulus})")
    return Verdict(Status.FAILS, note=f"difference {text} != 0 (mod {modulus})")


class CanonicalRep(namedtuple("CanonicalRep", "scale poly")):
    """A residue written as scale * poly with poly primitive over Z.

    scale is a positive Fraction and deg(poly) < deg(modulus); zero is
    represented as scale 1, poly 0.
    """

    __slots__ = ()

    def __str__(self):
        if not self.poly:
            return "0"
        if self.scale == 1:
            return str(self.poly)
        return f"({self.scale}) * ({self.poly})"


def reduce_mod(expr: QExpr, modulus: CycloModulus) -> CanonicalRep:
    """Unique representative of expr modulo M = modulus.poly() of degree
    below deg(M), as scale * poly with poly primitive over Z.

    q is a unit modulo M because M(0) = +-1, so the q-shift is folded into
    the numerator (shift > 0) or the denominator (shift < 0). The
    denominator is inverted by the extended primitive pseudo-remainder
    sequence on Z[q] (Geddes, Czapor and Labahn, 1992, ch. 7): it keeps
    r = s * den (mod M) from (r, s) = (M, 0), (den, 1), divides each new
    pair by the gcd of their contents, and stops at a nonzero constant c,
    where den^-1 = s / c. The residue is (num * s mod M) / c. Raises
    NotInvertibleError when the sequence reaches zero instead: den and M
    then share the last nonzero remainder as a factor.
    """
    if modulus.is_empty:
        raise ValueError("empty modulus")
    if not isinstance(expr, QExpr):
        expr = QExpr(expr)
    num, den, shift = expr.num, expr.den, expr.shift
    m = modulus.poly()
    if shift > 0:
        num = num.shifted(shift)
    elif shift < 0:
        den = den.shifted(-shift)
    r0, s0, r1, s1 = m, ZERO, den, ONE
    while len(r1) > 1:
        k, quo, rem = _pseudo_divmod(r0, r1)
        s = k * s0 - quo * s1
        g = math.gcd(rem.content(), s.content())
        r0, s0, r1, s1 = r1, s1, rem.scaled_down(g), s.scaled_down(g)
    if not r1:
        raise NotInvertibleError(
            f"denominator shares the factor gcd of degree {r0.degree} with {modulus}"
        )
    c = r1.leading
    rep = _pseudo_divmod(num * s1, m)[2]
    if not rep:
        return CanonicalRep(Fraction(1), ZERO)
    poly = rep.primitive()
    return CanonicalRep(Fraction(rep.content(), abs(c)), poly if c > 0 else -poly)
