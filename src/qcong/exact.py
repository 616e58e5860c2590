"""Exact arithmetic in Z[q] and its fraction field.

Two layers: dense integer polynomials (Poly), and fractions of those
times a signed power of q and a product of cyclotomic powers (QExpr),
which carries negative q-powers as an integer shift and the cyclotomic
factors as an exponent map. Each rule is stated once: _phi_power forms
every product of cyclotomic powers, _sum_parts every sum of two QExprs
(congruence.check_congruence's difference among them, which it folds
part by part), and _pack every evaluation at a power of two.
Everything is immutable and hashable, and every operation is exact; there
is no floating point anywhere in this module.

The three hot loops hand their work to CPython's bigint arithmetic, and
every fast result carries a certificate:

- Multiplication of long operands uses Kronecker substitution: both
  polynomials are evaluated at 2^k, the integers are multiplied, and the
  product's balanced base-2^k digits are read back. k bounds every
  product coefficient, so the digits are the coefficients.
- Every exact division and every Phi_d valuation is one call to one
  routine, _split, which splits off up to `most` factors of b:
  _kronecker_valuation packs both operands at B = 2^k and divides the
  integer a(B) by b(B), up to `most` times, while the remainder is 0. A
  nonzero remainder at the first division proves that b does not divide
  a. A count v >= 1 and its quotient Q are accepted only when
  |Q|_inf |b|_1^v < B/2, which makes b^v Q and a the balanced digits of
  one integer. Otherwise k is widened a few times, and then long
  division, repeated up to `most` times, decides inside the same routine.
- gcd_rational runs the heuristic gcd GCDHEU of Char, Geddes and Gonnet:
  an integer gcd of values at a point xi = 2^(8w), read back into
  balanced digits by the same unpacker and accepted only when it divides
  both inputs. Both inputs are packed at that point by the same packer.
  Otherwise the primitive pseudo-remainder sequence decides.

Only the product keeps a schoolbook loop for short operands, where it
is faster; a constant factor, a Poly of one coefficient or an int or
Fraction times a QExpr, scales coefficients and takes neither loop.
One Z-division loop, _divmod_z, serves the division fallback, the PRS
pseudo-remainders and congruence.reduce_mod.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from operator import index, mul

# Operand length from which Kronecker multiplication beats the schoolbook
# loop; see the measurement recorded in CHANGES.md.
_KRONECKER_MUL_MIN_LEN = 4
# Widths (division) and evaluation points (gcd) tried before long division
# or the PRS decides.
_KRONECKER_DIV_TRIES = 4
_HEU_GCD_TRIES = 6


class NotDivisibleError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class BothZeroError(ValueError):
    """Raised when a gcd of two zero polynomials is requested."""


def _strip(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs if n == len(coeffs) else coeffs[:n])  # one copy


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


@lru_cache(maxsize=1024)
def _kept_offset(n: int, w: int) -> int:
    # 2^(8w-1) in each of n slots: balanced digit d sits as d + 2^(8w-1)
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _offset(n: int, w: int) -> int:
    # _pack and _unpack meet a few short offsets often: up to 1 KiB, each
    # is built once; a longer one costs little beside the product it packs
    return (_kept_offset if n * w <= 1024 else _kept_offset.__wrapped__)(n, w)


def _pack(c, w: int) -> int:
    """c evaluated at 2^(8w); every |c_i| must be below 2^(8w-1).

    A wider c_i raises OverflowError, an ArithmeticError, at any w.
    """
    code = _STRUCT_CODE.get(w)
    if code:
        try:
            raw = struct.pack(f"<{len(c)}{code}", *c)
        except struct.error:  # int.to_bytes below raises OverflowError
            raise OverflowError(f"a coefficient overflows {w}-byte slots") from None
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


def _kronecker_valuation(a, b, most=math.inf):
    """Certified split a = b^v Q of the nonzero a: (v, Q), Q's coefficients
    as a tuple, with b^v Q = a in Z[q], v <= most, and b^(v+1) not dividing
    a when v < most, so that v is then b's multiplicity. An unbounded
    `most` needs b != ±1.

    a and b are packed at B = 2^k, and a(B) is divided by b(B), at most
    `most` times, while the remainder is 0. When no width tried certifies
    the count, long division, repeated up to `most` times, decides.

    >>> _kronecker_valuation((1, -2, 1), (-1, 1))
    (2, (1,))
    >>> _kronecker_valuation((1, -2, 1), (-1, 1), 1)
    (1, (-1, 1))
    """
    bits = max(_max_bits(a), _max_bits(b)) + len(a).bit_length()
    norm_bits = sum(map(abs, b)).bit_length()  # bits(|b|_1)
    for _ in range(_KRONECKER_DIV_TRIES):
        w = _width(bits)
        x, y = _pack(a, w), _pack(b, w)
        v = 0
        while v < most:
            qv, r = divmod(x, y)
            if r:
                break
            x = qv
            v += 1
        if not v:
            # b | a in Z[q] forces b(B) | a(B) in Z
            return 0, a
        # Q(B) = a(B) / b(B)^v. When 2^(k-1) bounds |Q|_inf |b|_1^v, hence
        # every coefficient of b^v Q, then b^v Q and a are the balanced
        # digits of one integer, so b^v Q = a; and when v < most, b(B)^(v+1)
        # does not divide a(B), so b^(v+1) does not divide a.
        n = len(a) - v * (len(b) - 1)
        q = _unpack(x, n, w) if n > 0 else None
        if q is not None and _max_bits(q) + v * norm_bits < 8 * w - 1:
            return v, q
        bits *= 2
    v = 0
    while v < most and (q := _long_div(a, b)) is not None:
        a, v = q, v + 1
    return v, tuple(a)


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
        # operator.index stores a bool as its int and rejects a float,
        # Fraction or str with TypeError
        self._c = _strip([index(x) for x in coeffs])

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "Poly":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

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
            other = Poly((other,))
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
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self._c, other._c
            if len(a) > 1 and len(b) > 1:
                if min(len(a), len(b)) >= _KRONECKER_MUL_MIN_LEN:
                    return _mk(_kronecker_mul(a, b))
                return _mk(_schoolbook_mul(a, b))
            if not a or not b:
                return ZERO
            # a constant factor is a scalar
            p, c = (self, b[0]) if len(b) == 1 else (other, a[0])
        elif isinstance(other, int):
            p, c = self, other
        else:
            return NotImplemented
        if c == 1:
            return p  # immutable, so shared
        if c == 0:
            return ZERO
        return _mk(tuple([c * x for x in p._c]))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = base if result is ONE else result * base
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
        if not other._c:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._c:
            return ZERO
        q, v = _split(self, other, 1)
        return q if v else None

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact quotient in Z[q].

        Raises NotDivisibleError when other does not divide self over Z[q],
        and ZeroDivisionError when other is zero.
        """
        q = self._div_core(other)
        if q is None:
            raise NotDivisibleError(f"{other!r} does not divide {self!r} in Z[q]")
        return q

    def content(self) -> int:
        """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
        return math.gcd(*self._c)

    def primitive(self) -> "Poly":
        """self divided by its content; the zero polynomial maps to itself."""
        return self.scaled_down(self.content() or 1)

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
        for a in reversed(self._c):
            acc = acc * x + a
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


def _at(p: Poly, w: int) -> int:
    # p(2^(8w)): packed when its coefficients fit the slots, else Horner
    try:
        return _pack(p._c, w)
    except OverflowError:
        return p(1 << (8 * w))


def _heu_gcd(a: Poly, b: Poly):
    """GCDHEU on primitive nonconstant inputs: (g, a/g, b/g) for their
    gcd g, or None when no point tried gave a certified gcd.

    Char, Geddes and Gonnet, "GCDHEU: Heuristic polynomial GCD algorithm
    based on integer GCD computation", J. Symbolic Comput. 7 (1989) 31-48,
    Theorem 1 (also Geddes, Czapor and Labahn, "Algorithms for Computer
    Algebra", 1992, Theorem 7.7): for primitive a, b and an integer
    xi > 1 + 2 min(|a|_inf, |b|_inf), let G be the primitive part of the
    polynomial whose balanced base-xi digits are gcd(a(xi), b(xi)). If G
    divides both a and b, then G is their gcd. Here xi = 2^(8w), so the
    digits come from _unpack. The first w is set by the smaller norm, the
    least that the bound allows, and w only grows; an input too wide for
    the slots is evaluated by Horner's rule (_at). The two divisions that
    certify G are the cofactors.
    """
    n = min(len(a), len(b))
    w = _width((2 * min(_norm(a._c), _norm(b._c)) + 1).bit_length())
    for _ in range(_HEU_GCD_TRIES):
        digits = _unpack(math.gcd(_at(a, w), _at(b, w)), n, w)
        # more than n digits: G would outgrow a or b and divide neither
        if digits is not None:
            g = _mk(digits).primitive()
            if len(g) == 1:
                return ONE, a, b
            if g.leading < 0:
                g = -g
            qa = a._div_core(g)
            qb = None if qa is None else b._div_core(g)
            if qb is not None:
                return g, qa, qb
        w = _width(8 * w)
    return None


def gcd_rational(a: Poly, b: Poly, *, cofactors=None) -> Poly:
    """Primitive gcd g in Q[q], returned with positive leading coefficient.

    Integer content of the inputs is ignored: gcd_rational(2*p, 4*p) is the
    primitive part of p. Tries the heuristic gcd GCDHEU first and falls
    back to the primitive pseudo-remainder sequence. A list passed as
    cofactors receives a/g and b/g, exact in Z[q] since g is primitive;
    where GCDHEU decides, they are the divisions that certified g, scaled
    back by the contents, so nothing is divided twice.

    >>> gcd_rational(Poly([-1, 0, 1]), Poly([1, 2, 1]))
    Poly([1, 1])
    """
    if not a and not b:
        raise BothZeroError("gcd of two zero polynomials")
    quotients = None
    if len(a) == 1 or len(b) == 1:
        g, quotients = ONE, (a, b)
    else:
        pa, pb = a.primitive(), b.primitive()
        heu = _heu_gcd(pa, pb) if pa and pb else None
        if heu is not None:
            g, qa, qb = heu
            quotients = (qa * a.content(), qb * b.content())
        else:
            g = _prs_gcd(pa, pb) if pa and pb else pa or pb
            if g.leading < 0:
                g = -g
    if cofactors is not None:
        cofactors += quotients or (a.exact_div(g), b.exact_div(g))
    return g


def _num_den(x):
    # -> (Poly numerator, int denominator)
    if isinstance(x, Poly):
        return x, 1
    if isinstance(x, int):
        return Poly((x,)), 1
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


@lru_cache(maxsize=1024)
def _phi_power(factors: tuple) -> Poly:
    """prod Phi_d^e over the sorted (d, e) pairs of factors, each e >= 1,
    multiplied pairwise so that the operands of each product balance.

    The one product of cyclotomic powers: cofactors, frac_sum's common
    denominator and CycloModulus.poly all come from here."""
    # cyclotomic.py builds Phi_d with this module's arithmetic
    from .cyclotomic import cyclotomic
    out = [cyclotomic(d) ** e for d, e in factors] or [ONE]
    while len(out) > 1:
        out = [a * b for a, b in zip(out[::2], out[1::2])] + out[len(out) & ~1:]
    return out[0]


def _split(p: Poly, b: Poly, most=math.inf):
    """(p / b^v, v) for the largest v <= most with b^v | p, p nonzero:
    every exact division and every Phi_d valuation."""
    v, q = _kronecker_valuation(p._c, b._c, most)
    return (_mk(q) if v else p), v


@lru_cache(maxsize=64)
def _fold_weights(blocks: int, k: int) -> tuple:
    """Row t, column j: the coefficient of y^t in y^j mod (y - 1)^k.

    y^j = sum_i C(j, i) (y - 1)^i and (y - 1)^i = sum_t C(i, t)
    (-1)^(i-t) y^t, so for j >= k the entry is
    sum_(t<=i<k) C(j, i) C(i, t) (-1)^(i-t)
    = (-1)^(k-1-t) C(j, t) C(j-t-1, k-1-t), and y^j is its own remainder
    for j < k.
    """
    return tuple(
        tuple((-1) ** (k - 1 - t) * math.comb(j, t) * math.comb(j - t - 1, k - 1 - t)
              if j >= k else int(j == t) for j in range(blocks))
        for t in range(k))


def _fold(c, d: int, k: int):
    """The coefficients c mod (q^d - 1)^k, at most k*d of them.

    With y = q^d, c = sum_j C_j(q) y^j over its base-q^d digits C_j of
    degree below d, and y^j mod (y - 1)^k = sum_(t<k) w[t][j] y^t.
    """
    if len(c) <= k * d:
        return c
    if k == 1:  # every weight is 1
        return [sum(c[r::d]) for r in range(d)]
    # rows for a power of two of blocks, so few tables serve every length;
    # map stops at the end of c[r::d]
    blocks = 1 << (-(-len(c) // d) - 1).bit_length()
    out = []
    for row in _fold_weights(blocks, k):
        out += [sum(map(mul, row, c[r::d])) for r in range(d)]
    return out


def _phi_divides(p: Poly, d: int, phi: Poly) -> bool:
    # Phi_d | q^d - 1, so Phi_d | p exactly when it divides p mod q^d - 1,
    # the fold at k = 1: O(len p) adds, and no division of p
    r = _mk(_fold(p._c, d, 1))
    return not r or r._div_core(phi) is not None


def _common(a: dict, b: dict):
    """(m, xa, xb) for two exponent maps: m their per-d minimum, xa and xb
    the sorted (d, e) pairs by which each exceeds it."""
    m, xa, xb = {}, [], []
    for d in sorted(a.keys() | b.keys()):
        ea, eb = a.get(d, 0), b.get(d, 0)
        low = min(ea, eb)
        if low:
            m[d] = low
        if ea > low:
            xa.append((d, ea - low))
        if eb > low:
            xb.append((d, eb - low))
    return m, tuple(xa), tuple(xb)


def _combined(a: dict, b: dict, sign: int = 1) -> dict:
    # the exponent map of a * b (sign 1) or a / b (sign -1)
    out = dict(a)
    for d, e in b.items():
        out[d] = out.get(d, 0) + sign * e
    return {d: e for d, e in out.items() if e}


def _times(p: Poly, factors: tuple) -> Poly:
    # p * prod Phi_d^e over factors
    return p * _phi_power(factors) if factors else p


def _sum_parts(x: "QExpr", y: "QExpr") -> tuple:
    """(parts, den, shift, m) with x + y = q^shift * num / den * prod
    Phi_d^(m_d) and num = sum of p * q^t * prod Phi_d^e over the two
    parts (p, factors, t), formed with no gcd and no division.

    m is the per-d minimum of the two exponent maps, and each side's
    factors are its cofactor prod Phi_d^(e_d - m_d), left unmultiplied.
    Equal dens are kept; otherwise each p is its num times the other
    side's den, over the product of both dens.
    """
    s = min(x._shift, y._shift)
    m, xa, xb = _common(x._phis, y._phis)
    a, b = x._num, y._num
    da, db = x._den, y._den
    if da == db:
        den = da
    else:
        a, b, den = a * db, b * da, da * db
    return ((a, xa, x._shift - s), (b, xb, y._shift - s)), den, s, m


def _parts_num(parts) -> Poly:
    # num of _sum_parts: each cofactor multiplied in
    (a, xa, ta), (b, xb, tb) = parts
    return _times(a, xa).shifted(ta) + _times(b, xb).shifted(tb)



class QExpr:
    """q^shift * num / den * prod_d Phi_d^e_d, num and den in Z[q], e_d != 0.

    The exponent map holds the cyclotomic factors whose factorization is
    known (qcombinatorics' factored builders put them there). A sum
    (_sum_parts) takes the per-d minimum exponent and multiplies each
    num by its cofactor; products and powers add exponents; nothing is
    divided. den is what is left of a denominator passed in as a plain
    Poly: when num and den are both nonconstant, gcd_rational reduces
    them, so their primitive parts stay coprime. With a constant den, as
    every builder's is, no gcd is taken.

    The canonical form is built when the value is observed (==, hash,
    str, repr, num, den, shift, evaluation), and kept: each Phi_d is
    divided out of the side opposite its exponent as far as it goes, and
    what is left is multiplied in, with no gcd. Its invariants: num and
    den have nonzero constant terms (every power of q, of either sign,
    lives in shift), den has a positive leading coefficient, the
    primitive parts of num and den are coprime in Q[q], and the integer
    contents of num and den are coprime, so a rational constant like 3/8
    is stored with content 3 upstairs and 8 downstairs. Zero is num 0,
    den 1, shift 0.

    >>> x = QExpr(Poly([0, 0, 2]), Poly([0, 8]))
    >>> print(x)
    q/4
    >>> QExpr(Poly([-1, 0, 1]), Poly([1, 1])) == QExpr(Poly([-1, 1]))
    True
    """

    __slots__ = ("_num", "_den", "_shift", "_phis", "_canon")

    def __init__(self, num=0, den=1):
        pn, dn = _num_den(num)
        pd, dd = _num_den(den)
        if dd != 1:
            pn = pn * dd
        if dn != 1:
            pd = pd * dn
        _reduced(pn, pd, 0, {}, self)

    def _observed(self) -> tuple:
        # (num, den, shift) in canonical form, built once
        if self._canon is None:
            self._canon = _canonical(self._num, self._den, self._shift,
                                     self._phis)
        return self._canon

    @property
    def num(self) -> Poly:
        return self._observed()[0]

    @property
    def den(self) -> Poly:
        return self._observed()[1]

    @property
    def shift(self) -> int:
        return self._observed()[2]

    def __bool__(self):
        return bool(self._num)

    def shifted(self, k: int) -> "QExpr":
        """Multiply by q**k, for any sign of k; q is a unit, so no gcd."""
        if not k or not self._num:
            return self
        return _qexpr(self._num, self._den, self._shift + k, self._phis)

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._observed() == o._observed()

    def __hash__(self):
        # as the equal int, Fraction or Poly hashes, when there is one
        num, den, shift = self._observed()
        if len(num) <= 1 and len(den) == 1 and not shift:
            return hash(Fraction(num[0], den[0]))
        if den == ONE and shift >= 0:
            return hash(num.shifted(shift))
        return hash((num, den, shift))

    def __neg__(self):
        return _qexpr(-self._num, self._den, self._shift, self._phis)

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
        parts, den, shift, m = _sum_parts(self, o)
        return _reduced(_parts_num(parts), den, shift, m)

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
        if isinstance(other, (int, Fraction)):
            # a rational constant scales num and den: their primitive
            # parts, and so their coprimality, are unchanged
            a, b = other.numerator, other.denominator
            if not a or not self._num:
                return _qexpr(ZERO, ONE, 0, {})
            return _qexpr(self._num * a, self._den if b == 1 else self._den * b,
                          self._shift, self._phis)
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return _reduced(self._num * o._num, self._den * o._den,
                        self._shift + o._shift, _combined(self._phis, o._phis))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not o._num:
            raise ZeroDivisionError("division by zero QExpr")
        return _reduced(self._num * o._den, self._den * o._num,
                        self._shift - o._shift,
                        _combined(self._phis, o._phis, -1))

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if not n:
            return QExpr(1)
        if not self._num:
            if n < 0:
                raise ZeroDivisionError("division by zero QExpr")
            return self
        num, den = (self._num, self._den) if n > 0 else (self._den, self._num)
        k = abs(n)
        # powers of coprime parts stay coprime: no gcd needed
        return _qexpr(num ** k, den ** k, self._shift * n,
                      {d: e * n for d, e in self._phis.items()})

    def __call__(self, x) -> Fraction:
        num, den, shift = self._observed()
        x = Fraction(x)
        dv = den(x)
        if dv == 0 or (x == 0 and shift < 0):
            raise ZeroDivisionError(f"pole at q = {x}")
        return num(x) * x ** shift / dv

    def __str__(self):
        num, den, shift = self._observed()
        n = str(num)
        if shift:
            power = "q" if shift == 1 else f"q^{shift}"
            n = power if num == ONE else f"{power}*({n})"
        if den == ONE:
            return n
        d = str(den)
        if len(den) > 1:
            d = f"({d})"
        if " " in n:
            n = f"({n})"
        return f"{n}/{d}"

    def __repr__(self):
        num, den, shift = self._observed()
        r = f"QExpr({num!r}, {den!r})"
        return f"{r}.shifted({shift})" if shift else r


def _qexpr(num, den, shift, phis, out=None) -> QExpr:
    # Trusted constructor, into out or a new QExpr: num is zero, or its
    # primitive part is coprime to den's.
    if out is None:
        out = object.__new__(QExpr)
    out._num, out._den, out._shift, out._phis = num, den, shift, phis
    out._canon = None
    return out


def _reduced(num, den, shift, phis, out=None) -> QExpr:
    # _qexpr after reducing num against den, when both are nonconstant
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        num, den, shift, phis = ZERO, ONE, 0, {}
    elif len(num) > 1 and len(den) > 1:
        parts = []
        gcd_rational(num, den, cofactors=parts)
        num, den = parts
    return _qexpr(num, den, shift, phis, out)


def _canonical(num: Poly, den: Poly, shift: int, phis: dict) -> tuple:
    # The canonical (num, den, shift) of q^shift * num / den * prod
    # Phi_d^e, for num and den with coprime primitive parts.
    if not num:
        return ZERO, ONE, 0
    up, down = [], []
    for d, e in sorted(phis.items()):
        phi = _phi_power(((d, 1),))
        if e < 0:
            if _phi_divides(num, d, phi):
                num, v = _split(num, phi, -e)
                e += v
        elif _phi_divides(den, d, phi):
            den, v = _split(den, phi, e)
            e -= v
        if e > 0:
            up.append((d, e))
        elif e < 0:
            down.append((d, -e))
    num, vn = _q_split(_times(num, tuple(up)))
    den, vd = _q_split(_times(den, tuple(down)))
    t = math.gcd(num.content(), den.content())
    num, den = num.scaled_down(t), den.scaled_down(t)
    if den.leading < 0:
        num = -num
        den = -den
    return num, den, shift + vn - vd
