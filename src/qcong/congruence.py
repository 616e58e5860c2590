"""Decide congruences between rational q-expressions modulo products of
cyclotomic powers, and between rational numbers modulo integers.

Semantics: to check lhs = rhs mod prod Phi_d^e, form the difference
D = q^s * N/E * prod Phi_d^(m_d), unreduced, by the rule every QExpr
sum follows (exact._unreduced_sum), where m holds the cyclotomic factors
that both sides carry factored, and compare Phi_d-adic valuations per
factor. The margin at d is val_d(N) + m_d - val_d(E). It is the margin
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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .cyclotomic import CycloModulus, phi_valuation
from .exact import ONE, Poly, QExpr, ZERO, _pseudo_divmod, _unreduced_sum

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


@dataclass(frozen=True)
class FactorCheck:
    """Valuation bookkeeping for one modulus factor Phi_d^required.

    val_num and val_den are the multiplicities of Phi_d in the numerator
    and denominator of the reduced difference, at most one of them
    positive: max(margin, 0) and max(-margin, 0). A zero difference has
    val_num inf and val_den 0.
    """

    d: int
    required: int
    val_num: object  # int or math.inf
    val_den: object

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


@dataclass(frozen=True)
class Verdict:
    status: Status
    factors: tuple = ()
    note: str = ""

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


def check_congruence(lhs, rhs, modulus: CycloModulus) -> Verdict:
    """Verdict for lhs = rhs modulo the cyclotomic modulus.

    lhs and rhs may be QExpr, Poly, Fraction, or int. The
    modulus must be nonempty; a congruence mod 1 carries no content and a
    request for one is treated as a usage error.

    Each side is read as it stands, with no gcd: exact._unreduced_sum,
    the rule QExpr sums follow, forms lhs + (-rhs) as
    q^s * N/E * prod Phi_k^(m_k), where m_k is the smaller of the two
    sides' exponents at Phi_k. The margin at k is v_k(N) + m_k - v_k(E);
    no valuation is taken of a constant E or of a known Phi_k, and no gcd
    or division reduces N/E. Each factor's record comes from the margin,
    as FactorCheck says.
    """
    if modulus.is_empty:
        raise ValueError("empty modulus")
    lhs, rhs = (x if isinstance(x, QExpr) else QExpr(x) for x in (lhs, rhs))
    num, den, _, low = _unreduced_sum(lhs, -rhs)
    checks = []
    pole = False
    short = False
    for k, e in modulus.factors:
        m = phi_valuation(num, k) + low.get(k, 0)
        # a zero N has margin inf, and no Phi_k divides a constant
        if num and len(den) > 1:
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
    if diff.numerator % modulus == 0:
        return Verdict(Status.HOLDS, note=f"difference {diff} = 0 (mod {modulus})")
    return Verdict(Status.FAILS, note=f"difference {diff} != 0 (mod {modulus})")


@dataclass(frozen=True)
class CanonicalRep:
    """A residue written as scale * poly with poly primitive over Z.

    scale is a positive rational and deg(poly) < deg(modulus); zero is
    represented as scale 1, poly 0.
    """

    scale: Fraction
    poly: Poly

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
