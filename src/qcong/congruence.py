"""Decide congruences between rational q-expressions modulo products of
cyclotomic powers, and between rational numbers modulo integers.

Semantics: to check lhs = rhs mod prod Phi_d^e, form the normalized
difference D = N/E and compare Phi_d-adic valuations per factor. The
margin at d is val_d(N) - val_d(E). The congruence holds when every
margin reaches the required exponent, fails when some margin falls short
but none is negative, and is ill posed when the difference itself has a
pole at a modulus factor. Working on the difference rather than on each
side separately means a pole that cancels between the two sides does not
poison the verdict; when both sides are individually admissible this
reduces to the usual divisibility definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .cyclotomic import CycloModulus, phi_valuation
from .exact import Poly, QExpr, ZERO

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
    """Valuation bookkeeping for one modulus factor Phi_d^required."""

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
        bits = [self.status.value]
        for f in self.factors:
            bits.append(
                f"Phi_{f.d}: need {f.required}, margin {_val_str(f.margin)}"
            )
        if self.note:
            bits.append(self.note)
        return "; ".join(bits)


def _as_qexpr(x) -> QExpr:
    if isinstance(x, QExpr):
        return x
    return QExpr(x)


def check_congruence(lhs, rhs, modulus: CycloModulus) -> Verdict:
    """Verdict for lhs = rhs modulo the cyclotomic modulus.

    lhs and rhs may be QExpr, Poly, Fraction, or int. The
    modulus must be nonempty; a congruence mod 1 carries no content and a
    request for one is treated as a usage error.
    """
    if modulus.is_empty:
        raise ValueError("empty modulus")
    diff = _as_qexpr(lhs) - _as_qexpr(rhs)
    nb = diff.num
    db = diff.den
    checks = []
    pole = False
    short = False
    for d, e in modulus.factors:
        vn = phi_valuation(nb, d)
        vd = phi_valuation(db, d)
        fc = FactorCheck(d, e, vn, vd)
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


# ---------------------------------------------------------------------------
# canonical representatives: arithmetic in Q[q]/(M) on Fraction coefficient
# lists, ascending order, used only inside reduce_mod


def _ftrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fpoly(p: Poly):
    return [Fraction(c) for c in p.coeffs]


def _fdivmod(a, b):
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        step = a[-1] / lb
        pos = len(a) - 1 - db
        q[pos] = step
        for i in range(db + 1):
            a[pos + i] -= step * b[i]
        a.pop()
    return _ftrim(q), _ftrim(a)


def _fegcd(a, b):
    # returns (g, s) with s*a = g (mod b); g is the monic gcd of a and b
    a = _ftrim(list(a))
    b = _ftrim(list(b))
    r0, r1 = a, b
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _fdivmod(r0, r1)
        r0, r1 = r1, r
        prod = _fmul(q, s1)
        s0, s1 = s1, _fsub(s0, prod)
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        s0 = [c / lead for c in s0]
    return r0, s0


def _fmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ftrim(out)


def _fsub(a, b):
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _ftrim(out)


def _fmulmod(a, b, m):
    return _fdivmod(_fmul(a, b), m)[1]


def _fpowmod(a, n, m):
    out = [Fraction(1)]
    base = _fdivmod(a, m)[1]
    while n:
        if n & 1:
            out = _fmulmod(out, base, m)
        base = _fmulmod(base, base, m)
        n >>= 1
    return out


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
    """Unique low-degree representative of expr modulo modulus.poly().

    The denominator (and q itself, for a negative shift) are inverted
    modulo the modulus polynomial over Q, the product is reduced to degree
    below deg(modulus), and the rational content is pulled out so the
    polynomial part has integer coefficients with content 1.
    """
    if modulus.is_empty:
        raise ValueError("empty modulus")
    expr = _as_qexpr(expr)
    m = _fpoly(modulus.poly())
    g, s = _fegcd(_fpoly(expr.den), m)
    if len(g) != 1:
        raise NotInvertibleError(
            f"denominator shares the factor gcd of degree {len(g) - 1} with {modulus}"
        )
    rep = _fmulmod(_fpoly(expr.num), s, m)
    shift = expr.shift
    if shift:
        gq, sq = _fegcd([Fraction(0), Fraction(1)], m)
        assert len(gq) == 1  # q is a unit: modulus.poly()(0) = +-1
        qpow = _fpowmod([Fraction(0), Fraction(1)] if shift > 0 else sq, abs(shift), m)
        rep = _fmulmod(rep, qpow, m)
    if not rep:
        return CanonicalRep(Fraction(1), ZERO)
    lcm = 1
    for c in rep:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in rep]
    content = 0
    for c in ints:
        content = math.gcd(content, c)
    return CanonicalRep(Fraction(content, lcm), Poly(c // content for c in ints))
