"""Exact arithmetic in Z[q] and its fraction field.

Two layers: dense integer polynomials (Poly), and reduced fractions of
those times a signed power of q (QExpr), which carries negative q-powers
as an integer shift.
Everything is immutable and hashable, and every operation is exact; there
is no floating point anywhere in this module.

The three hot loops hand their work to CPython's bigint arithmetic, and
every fast result carries a certificate:

- Multiplication of long operands uses Kronecker substitution: both
  polynomials are evaluated at 2^k, the integers are multiplied, and the
  product's balanced base-2^k digits are read back. k bounds every
  product coefficient, so the digits are the coefficients.
- Exact division by a long divisor packs both operands at 2^k and takes
  the integer divmod. A nonzero remainder proves non-divisibility; a
  quotient is accepted only when multiplying it back reproduces the
  dividend. Otherwise k is widened a few times, then schoolbook long
  division decides.
- gcd_rational runs the heuristic gcd GCDHEU of Char, Geddes and Gonnet:
  an integer gcd of values at a large point xi, rebuilt from symmetric
  base-xi digits and accepted only when it divides both inputs. Otherwise
  the primitive pseudo-remainder sequence decides.

Short operands keep the schoolbook loops, which are faster there. One
Z-division loop, _divmod_z, serves exact division, the PRS
pseudo-remainders and congruence.reduce_mod.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

# Operand lengths from which the Kronecker paths beat the schoolbook loops;
# see the measurement recorded in CHANGES.md.
_KRONECKER_MUL_MIN_LEN = 4
_KRONECKER_DIV_MIN_LEN = 4
# Widths (division) and evaluation points (gcd) tried before long division
# or the PRS decides.
_KRONECKER_DIV_TRIES = 4
_HEU_GCD_TRIES = 6


class NotDivisibleError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class BothZeroError(ValueError):
    """Raised when a gcd of two zero polynomials is requested."""


class PoleAtOneError(ZeroDivisionError):
    """Raised when a QExpr is evaluated at q = 1 but has a pole there."""


def _strip(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _mk(coeffs) -> "Poly":
    # Trusted constructor for coefficient sequences built inside this
    # module: every entry is already an int, so only trailing zeros go.
    p = object.__new__(Poly)
    p._c = _strip(coeffs)
    return p


def _norm(c) -> int:
    return max(max(c), -min(c))


def _max_bits(c) -> int:
    return _norm(c).bit_length()


# struct codes for the slot widths that pack and unpack in one C call
_STRUCT_CODE = {1: "b", 2: "h", 4: "i", 8: "q"}


def _width(bits: int) -> int:
    """Bytes per slot for signed values of absolute value below 2^bits."""
    w = bits // 8 + 1
    if w <= 8:
        w = 1 << (w - 1).bit_length()
    return w


def _offset(n: int, w: int) -> int:
    # 2^(8w-1) in each of n slots: balanced digit d sits as d + 2^(8w-1)
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _pack(c, w: int) -> int:
    """c evaluated at 2^(8w); every |c_i| must be below 2^(8w-1)."""
    code = _STRUCT_CODE.get(w)
    if code:
        raw = struct.pack(f"<{len(c)}{code}", *c)
    else:
        raw = b"".join([x.to_bytes(w, "little", signed=True) for x in c])
    # flipping each slot's top bit turns two's complement into d + 2^(8w-1)
    off = _offset(len(c), w)
    return (int.from_bytes(raw, "little") ^ off) - off


def _unpack(v: int, n: int, w: int):
    """The n balanced base-2^(8w) digits of v, or None when v needs more."""
    off = _offset(n, w)
    v += off
    if v < 0 or v.bit_length() > 8 * w * n:
        return None
    raw = (v ^ off).to_bytes(n * w, "little")
    code = _STRUCT_CODE.get(w)
    if code:
        return struct.unpack(f"<{n}{code}", raw)
    fb = int.from_bytes
    return tuple([fb(raw[i:i + w], "little", signed=True)
                  for i in range(0, n * w, w)])


def _kronecker_mul(a, b) -> tuple:
    # |sum a_i b_j| < min(len) * 2^bits(a) * 2^bits(b)
    bits = _max_bits(a) + _max_bits(b) + min(len(a), len(b)).bit_length()
    w = _width(bits)
    return _unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w)


def _schoolbook_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _kronecker_div(a, b):
    """Certified exact quotient a / b in Z[q] by Kronecker substitution.

    Returns the quotient's coefficients, None when b provably does not
    divide a, or False when no width tried gave a certified answer.
    """
    n = len(a) - len(b) + 1
    bits = max(_max_bits(a), _max_bits(b)) + len(a).bit_length()
    for _ in range(_KRONECKER_DIV_TRIES):
        w = _width(bits)
        qv, r = divmod(_pack(a, w), _pack(b, w))
        if r:
            # b | a in Z[q] forces b(2^k) | a(2^k) in Z for every k
            return None
        q = _unpack(qv, n, w)
        # The quotient's coefficients may outgrow 2^(k-1), so only a
        # multiply-back proves the digits read are the quotient. At this
        # width it costs no product: q(2^k) b(2^k) = qv b(2^k) = a(2^k), so
        # when 2^(k-1) also bounds every coefficient of q*b, both q*b and a
        # are the balanced digits of one integer and q*b = a.
        if q is not None and q[-1] and (
                _max_bits(q) + _max_bits(b) + min(n, len(b)).bit_length()
                < 8 * w or _kronecker_mul(q, b) == a):
            return q
        bits *= 2
    return False


def _divmod_z(a, b):
    # Long division in Z[q]: (quo, rem) with a = quo*b + rem and
    # len(rem) < len(b), or None when a leading coefficient does not divide.
    db = len(b) - 1
    lb = b[-1]
    rem = list(a)
    dr = len(rem) - 1
    quo = [0] * max(dr - db + 1, 0)
    while dr >= db:
        lead = rem[dr]
        if lead:
            step, r = divmod(lead, lb)
            if r:
                return None
            quo[dr - db] = step
            off = dr - db
            for i, c in enumerate(b):
                rem[off + i] -= step * c
        dr -= 1
    return quo, _strip(rem)


def _long_div(a, b):
    # The quotient's coefficients, or None when b does not divide a in Z[q].
    qr = _divmod_z(a, b)
    return None if qr is None or qr[1] else qr[0]


class Poly:
    """Dense polynomial in q with integer coefficients, ascending order.

    >>> p = Poly([1, 2, 1])
    >>> p.degree
    2
    >>> p(3)
    16
    >>> p * Poly([1, -1])
    Poly([1, 1, -1, -1])
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        c = []
        for x in coeffs:
            if not isinstance(x, int):
                raise TypeError(f"integer coefficient required, got {type(x).__name__}")
            c.append(x)
        self._c = _strip(c)

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "Poly":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    def to_decimal_strings(self) -> list[str]:
        return [str(c) for c in self._c]

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    @property
    def degree(self):
        """Degree, with float("-inf") for the zero polynomial."""
        return len(self._c) - 1 if self._c else float("-inf")

    @property
    def leading(self) -> int:
        return self._c[-1] if self._c else 0

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self._c):
            return self._c[i]
        return 0

    def __bool__(self):
        return bool(self._c)

    def __len__(self):
        return len(self._c)

    def __iter__(self):
        # explicit iterator: __getitem__ alone would iterate forever
        # because out-of-range coefficients read as 0
        return iter(self._c)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self):
        if len(self._c) <= 1:
            return hash(self._c[0] if self._c else 0)
        return hash(self._c)

    def __neg__(self):
        return _mk(tuple([-c for c in self._c]))

    def __add__(self, other):
        if isinstance(other, int):
            other = _mk((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _mk(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = _mk((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return _mk(tuple([other * c for c in self._c]))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        if min(len(a), len(b)) >= _KRONECKER_MUL_MIN_LEN:
            return _mk(_kronecker_mul(a, b))
        return _mk(_schoolbook_mul(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shifted(self, k: int) -> "Poly":
        """Multiply by q**k, k >= 0."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if not self._c:
            return self
        return _mk((0,) * k + self._c)

    def _div_core(self, other: "Poly"):
        # Exact quotient in Z[q], or None when other does not divide self.
        a, b = self._c, other._c
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if not a:
            return ZERO
        if len(a) < len(b):
            return None
        if len(b) >= _KRONECKER_DIV_MIN_LEN:
            q = _kronecker_div(a, b)
            if q is not False:
                return None if q is None else _mk(q)
        q = _long_div(a, b)
        return None if q is None else _mk(q)

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact quotient in Z[q].

        Raises NotDivisibleError when other does not divide self over Z[q],
        and ZeroDivisionError when other is zero.
        """
        q = self._div_core(other)
        if q is None:
            raise NotDivisibleError(f"{other!r} does not divide {self!r} in Z[q]")
        return q

    def try_exact_div(self, other: "Poly"):
        """Like exact_div but returns None instead of raising."""
        return self._div_core(other)

    def content(self) -> int:
        """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
        g = 0
        for c in self._c:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def primitive(self) -> "Poly":
        """self divided by its content; the zero polynomial maps to itself."""
        g = self.content()
        if g <= 1:
            return self
        return _mk(tuple([c // g for c in self._c]))

    def scaled_down(self, d: int) -> "Poly":
        """Divide every coefficient by d; d must divide the content."""
        if d == 1:
            return self
        out = []
        for c in self._c:
            step, r = divmod(c, d)
            if r:
                raise NotDivisibleError(f"{d} does not divide all coefficients")
            out.append(step)
        return _mk(out)

    def __call__(self, x):
        acc = 0
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for i, c in enumerate(self._c):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                var = "q" if i == 1 else f"q^{i}"
                sign = "-" if c < 0 else ""
                if parts:
                    parts.append(("- " if c < 0 else "+ ") + mag + var)
                else:
                    parts.append(sign + mag + var)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({list(self._c)!r})"


ZERO = Poly()
ONE = Poly((1,))
Q = Poly((0, 1))


def _pseudo_divmod(a: Poly, b: Poly):
    # (k, quo, rem) with k*a = quo*b + rem, deg rem < deg b and
    # k = lead(b)^max(deg a - deg b + 1, 0): scaling a by k makes every step
    # of the long division exact. For a monic b this is plain divmod.
    k = b.leading ** max(len(a) - len(b) + 1, 0)
    quo, rem = _divmod_z([k * c for c in a._c], b._c)
    return k, _mk(quo), _mk(rem)


def _prs_gcd(a: Poly, b: Poly) -> Poly:
    # primitive pseudo-remainder sequence on primitive inputs
    while b:
        a, b = b, _pseudo_divmod(a, b)[2].primitive()
    return a


def _symmetric_digits(h: int, xi: int) -> list:
    # h = sum d_i xi^i with every digit in (-xi/2, xi/2]
    out = []
    half = xi // 2
    while h:
        h, d = divmod(h, xi)
        if d > half:
            d -= xi
            h += 1
        out.append(d)
    return out


def _heu_gcd(a: Poly, b: Poly):
    """GCDHEU on primitive nonconstant inputs, up to sign; None when no
    point tried gave a certified gcd.

    Char, Geddes and Gonnet, "GCDHEU: Heuristic polynomial GCD algorithm
    based on integer GCD computation", J. Symbolic Comput. 7 (1989) 31-48,
    Theorem 1 (also Geddes, Czapor and Labahn, "Algorithms for Computer
    Algebra", 1992, Theorem 7.7): for primitive a, b and an integer
    xi > 1 + 2 min(|a|_inf, |b|_inf), let G be the primitive part of the
    polynomial whose symmetric base-xi digits are gcd(a(xi), b(xi)). If G
    divides both a and b, then G is their gcd. The start point
    2 min(...) + 29 lies above that bound, and xi only grows.
    """
    xi = 2 * min(_norm(a._c), _norm(b._c)) + 29
    for _ in range(_HEU_GCD_TRIES):
        h = math.gcd(a(xi), b(xi))
        g = _mk(_symmetric_digits(h, xi)).primitive()
        if len(g) == 1 or (a._div_core(g) is not None
                           and b._div_core(g) is not None):
            return g
        # growth factor of Char, Geddes and Gonnet
        xi = xi * 73794 // 27011
    return None


def gcd_rational(a: Poly, b: Poly) -> Poly:
    """Primitive gcd in Q[q], returned with positive leading coefficient.

    Integer content of the inputs is ignored: gcd_rational(2*p, 4*p) is the
    primitive part of p. Tries the heuristic gcd GCDHEU first and falls
    back to the primitive pseudo-remainder sequence.

    >>> gcd_rational(Poly([-1, 0, 1]), Poly([1, 2, 1]))
    Poly([1, 1])
    """
    if not a and not b:
        raise BothZeroError("gcd of two zero polynomials")
    if len(a) == 1 or len(b) == 1:
        return ONE
    a = a.primitive()
    b = b.primitive()
    if not a or not b:
        g = a or b
    else:
        g = _heu_gcd(a, b) or _prs_gcd(a, b)
    if g.leading < 0:
        g = -g
    return g


def _split(x):
    # -> (Poly numerator, int denominator)
    if isinstance(x, Poly):
        return x, 1
    if isinstance(x, int):
        return _mk((x,)), 1
    if isinstance(x, Fraction):
        return _mk((x.numerator,)), x.denominator
    raise TypeError(f"cannot interpret {type(x).__name__} as a q-expression")


def _q_split(p: Poly):
    # (p / q^v, v) for the largest v with q^v dividing the nonzero p
    c = p._c
    v = 0
    while c[v] == 0:
        v += 1
    return (_mk(c[v:]) if v else p), v


class QExpr:
    """Reduced fraction q^shift * num / den with num and den in Z[q].

    Canonical invariants: num and den have nonzero constant terms (every
    power of q, of either sign, lives in shift), den has a positive
    leading coefficient, the primitive parts of num and den are coprime
    in Q[q], and the integer contents of num and den are coprime, so a
    rational constant like 3/8 is stored with content 3 upstairs and 8
    downstairs. Zero is num 0, den 1, shift 0.

    >>> x = QExpr(Poly([0, 0, 2]), Poly([0, 8]))
    >>> print(x)
    q/4
    >>> QExpr(Poly([-1, 0, 1]), Poly([1, 1])) == QExpr(Poly([-1, 1]))
    True
    """

    __slots__ = ("_num", "_den", "_shift")

    def __init__(self, num=0, den=1):
        pn, dn = _split(num)
        pd, dd = _split(den)
        self._canonicalize(pn * dd, pd * dn, 0)

    def _canonicalize(self, num: Poly, den: Poly, shift: int) -> "QExpr":
        # Stores q^shift * num / den in canonical form and returns self.
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self._num, self._den, self._shift = ZERO, ONE, 0
            return self
        num, vn = _q_split(num)
        den, vd = _q_split(den)
        g = gcd_rational(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        t = math.gcd(num.content(), den.content())
        if t > 1:
            num = num.scaled_down(t)
            den = den.scaled_down(t)
        if den.leading < 0:
            num = -num
            den = -den
        self._num, self._den, self._shift = num, den, shift + vn - vd
        return self

    @property
    def num(self) -> Poly:
        return self._num

    @property
    def den(self) -> Poly:
        return self._den

    @property
    def shift(self) -> int:
        return self._shift

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def shifted(self, k: int) -> "QExpr":
        """Multiply by q**k, for any sign of k; q is a unit, so no gcd."""
        if not k or not self._num:
            return self
        return _qexpr(self._num, self._den, self._shift + k)

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return (self._num == o._num and self._den == o._den
                and self._shift == o._shift)

    def __hash__(self):
        if self._den == ONE and self._shift == 0 and len(self._num) <= 1:
            return hash(self._num)
        return hash((self._num, self._den, self._shift))

    def __neg__(self):
        return _qexpr(-self._num, self._den, self._shift)

    def _coerced(self, other):
        if isinstance(other, QExpr):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return QExpr(other)
        return None

    def _add(self, o):
        if not o._num:
            return self
        if not self._num:
            return o
        s = min(self._shift, o._shift)
        a = (self._num * o._den).shifted(self._shift - s)
        b = (o._num * self._den).shifted(o._shift - s)
        return _canonical(a + b, self._den * o._den, s)

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._add(o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._add(-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return _canonical(self._num * o._num, self._den * o._den,
                          self._shift + o._shift)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not o._num:
            raise ZeroDivisionError("division by zero QExpr")
        return _canonical(self._num * o._den, self._den * o._num,
                          self._shift - o._shift)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if n < 0:
            return (QExpr(1) / self) ** (-n)
        # powers of coprime parts stay coprime: no canonicalization needed
        return _qexpr(self._num ** n, self._den ** n, self._shift * n)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        dv = self._den(x)
        if dv == 0 or (x == 0 and self._shift < 0):
            raise ZeroDivisionError(f"pole at q = {x}")
        return self._num(x) * x ** self._shift / dv

    def eval_at_one(self) -> Fraction:
        """Value at q = 1, exact. Raises PoleAtOneError when den(1) = 0."""
        dv = self._den(1)
        if dv == 0:
            raise PoleAtOneError("denominator vanishes at q = 1")
        return Fraction(self._num(1), dv)

    def __str__(self):
        n = str(self._num)
        if self._shift:
            power = "q" if self._shift == 1 else f"q^{self._shift}"
            n = power if self._num == ONE else f"{power}*({n})"
        if self._den == ONE:
            return n
        d = str(self._den)
        if len(self._den) > 1:
            d = f"({d})"
        if " " in n:
            n = f"({n})"
        return f"{n}/{d}"

    def __repr__(self):
        r = f"QExpr({self._num!r}, {self._den!r})"
        return f"{r}.shifted({self._shift})" if self._shift else r


def _qexpr(num: Poly, den: Poly, shift: int) -> QExpr:
    # Trusted constructor for parts that are already canonical.
    out = object.__new__(QExpr)
    out._num, out._den, out._shift = num, den, shift
    return out


def _canonical(num: Poly, den: Poly, shift: int) -> QExpr:
    return object.__new__(QExpr)._canonicalize(num, den, shift)
