"""Constructors for the standard q-objects: q-integers, Pochhammer products
of the form prod (1 - q^(m*j)), Gaussian binomials, the sums of the
theorem terms f_k, the Apery-type sums of guguo and gsz_03, the
q-analogue of the Fermat quotient, and three flavors of q-harmonic sums.

All results are exact. Gaussian binomials, the f_k sums, the Apery-type
sums and every sum of c/(1 - q^m) are formed on one integer that packs
the coefficients at B = 2^W, so no large polynomial product, division or
add is formed per term. The first three step by ratios of factors
1 - q^m (_times_ratio) and are read under a q = 1 certificate (_read).
frac_sum, which the q-harmonic sums go through, adds its terms over
their known common denominator, a product of cyclotomic polynomials, and
keeps that denominator factored. The Fermat quotient's Pochhammer ratio
is a product of shift-adds. qint, one_minus_qpow and qbinom give [n],
1 - q^m and [n, k] as products of cyclotomic polynomials, factored, for
use in denominators and products, where QExpr then takes no gcd. The
heavily reused constructors are memoized, with bounds above what every
default grid uses, since statement verification calls them across
overlapping parameter grids.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclotomic import cyclotomic, divisors
from .exact import (ONE, Poly, QExpr, ZERO, _mk, _pack, _phi_power, _qexpr,
                    _unpack, _width)


@lru_cache(maxsize=256)
def q_integer(n: int) -> Poly:
    """[n] = 1 + q + ... + q^(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q_integer needs n >= 0")
    return Poly((1,) * n)


def _factored(sign: int, ds) -> QExpr:
    # sign * prod Phi_d over ds, carried as an exponent map
    return _qexpr(_mk((sign,)), ONE, 0, dict.fromkeys(ds, 1))


def qint(n: int) -> QExpr:
    """[n] = prod_(d | n, d > 1) Phi_d, factored; [0] = 0.

    >>> qint(6) == q_integer(6)
    True
    """
    if n < 0:
        raise ValueError("qint needs n >= 0")
    return _factored(1, divisors(n)[1:]) if n else QExpr(0)


def one_minus_qpow(m: int) -> QExpr:
    """1 - q^m = -prod_(d | m) Phi_d, factored."""
    if m < 1:
        raise ValueError("one_minus_qpow needs m >= 1")
    return _factored(-1, divisors(m))


def qbinom(n: int, k: int) -> QExpr:
    """[n, k], factored; 0 outside 0 <= k <= n.

    [n, k] = prod_(d <= n) Phi_d^e_d with
    e_d = floor(n/d) - floor(k/d) - floor((n-k)/d), which is 0 or 1,
    since each Phi_d, d > 1, divides [m]! exactly floor(m/d) times.

    >>> qbinom(4, 2) == q_binomial(4, 2)
    True
    """
    if k < 0 or k > n:
        return QExpr(0)
    return _factored(1, [d for d in range(2, n + 1)
                         if n // d - k // d - (n - k) // d])


@lru_cache(maxsize=256)
def q_pochhammer(base_exp: int, count: int) -> Poly:
    """prod_{j=1}^{count} (1 - q^(base_exp * j)); empty product is 1.

    base_exp=1 gives (q;q)_count and base_exp=2 gives (q^2;q^2)_count.
    """
    if base_exp < 1:
        raise ValueError("base_exp must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    out = ONE
    for j in range(1, count + 1):
        out = out - out.shifted(base_exp * j)
    return out


@lru_cache(maxsize=1024)
def q_binomial(n: int, k: int) -> Poly:
    """Gaussian binomial coefficient; 0 outside 0 <= k <= n.

    For 2k > n it is the cached [n, n-k]; otherwise it is stepped from 1
    by [n, j] = [n, j-1] (1 - q^(n-j+1)) / (1 - q^j) for j = 1..k
    (_times_ratio), and read by _read.

    >>> q_binomial(4, 2)
    Poly([1, 1, 2, 1, 1])
    """
    if k < 0 or k > n:
        return ZERO
    if 2 * k > n:
        return q_binomial(n, n - k)
    # Width: [n, j] has coefficients >= 0 that sum to C(n, j) <= C(n, k),
    # so W - 1 >= bits(C(n, k)) + 1 keeps every quotient read below within
    # what _div_one_minus_qpow can read; + 2 leaves a bit to spare.
    total = math.comb(n, k)
    w = _width(total.bit_length() + 2)
    bits = 8 * w
    x, deg = 1, 0
    for j in range(1, k + 1):
        x, deg = _times_ratio(x, deg, n - j + 1, j, bits)
    return _read(x, deg + 1, w, total, f"[{n}, {k}]")


def _div_one_minus_qpow(x: int, j: int, size: int, bits: int) -> int:
    """x / (1 - B^j) at B = 2^bits, for a quotient of at most size digits.

    Multiplying x = (1 - B^j) Q(B) by 1 + B^j + ... + B^(s-j), by doubling
    the stride s, gives Q(B) (1 - B^s); once s >= size its low s digits,
    read balanced, are Q(B) whenever every coefficient of Q is at most
    2^(bits-1) - 1 in absolute value. The quotient is checked against x
    exactly, so a division that is not exact, or a Q too wide for its
    slots, raises ArithmeticError instead of returning a wrong integer.
    """
    y, s = x, j
    while s < size:
        y += y << (s * bits)
        s *= 2
    top = 1 << (s * bits - 1)
    low = ((y + top) & ((top << 1) - 1)) - top
    if x != low - (low << (j * bits)):
        raise ArithmeticError(f"1 - q^{j} did not divide exactly")
    return low


def _times_ratio(x: int, deg: int, a: int, b: int, bits: int):
    """(x (1 - B^a) / (1 - B^b), deg + a - b) at B = 2^bits.

    x packs a polynomial of degree deg. Multiplying by 1 - B^a is a shift
    and a subtraction; the division is _div_one_minus_qpow's, checked
    exactly, and its quotient of degree deg + a - b must fit the slots.
    """
    deg += a - b
    return _div_one_minus_qpow(x - (x << (a * bits)), b, deg + 1, bits), deg


def _read(v: int, size: int, w: int, total: int, what: str) -> Poly:
    """The polynomial of size coefficients packed in v at B = 2^(8w).

    The polynomial must have coefficients >= 0 that sum to total, its
    value at q = 1. Base-B digits that are all >= 0 and sum to total are
    then its own coefficients, since every carry between slots would
    lower the digit sum by B - 1; any other digits raise ArithmeticError.
    """
    coeffs = _unpack(v, size, w)
    if coeffs is None or min(coeffs) < 0 or sum(coeffs) != total:
        raise ArithmeticError(f"{what} overflowed its {w}-byte slots")
    return _mk(coeffs)


def fk_values(n: int, alpha: int) -> tuple[int, int, int]:
    """fk_sums at q = 1: (sum v_k, sum k v_k, sum (n-k) v_k), k < n, for
    v_k = C(alpha+k-1, k) C(alpha+n-1, n-1-k), the value of f_k at q = 1."""
    vals = [math.comb(alpha + k - 1, k) * math.comb(alpha + n - 1, n - 1 - k)
            for k in range(n)]
    return (sum(vals), sum(k * v for k, v in enumerate(vals)),
            sum((n - k) * v for k, v in enumerate(vals)))


@lru_cache(maxsize=128)
def _fk_stepped(n: int, alpha: int) -> tuple:
    """(plain, shifted, top, w, want) for the f_k of fk_sums: plain and
    shifted are sum f_k(B) and sum f_k(B) B^k at B = 2^(8w), top is the
    largest degree of an f_k, and want is fk_values(n, alpha).

    f_0 is [alpha+n-1, n-1], and
    f_(k+1) = f_k q^(k+1) (1 - q^(alpha+k)) (1 - q^(n-1-k))
              / ((1 - q^(k+1)) (1 - q^(alpha+k+1))),
    taken in two exact halves, each of which leaves a polynomial.
    Memoized, so every sum the statements read at one (n, alpha) shares
    one stepping.
    """
    if n < 1 or alpha < 1:
        raise ValueError("fk_sums needs n >= 1 and alpha >= 1")
    want = fk_values(n, alpha)
    # Width: every polynomial read below has coefficients >= 0, so each
    # is bounded by its value at q = 1. These are the mid-step
    # [alpha+k, k+1] [alpha+n-1, n-1-k], each next term and the plain sum
    # (at most want[0]), and the weighted and double sums (want[1] and
    # want[2] >= want[0], since n - k >= 1). The mid-step can exceed all
    # three sums, as at (n, alpha) = (2, 3). W - 1 >= bits(peak) + 1 keeps
    # every one of them below 2^(W-1) - 1, as _div_one_minus_qpow needs.
    peak = max(want + tuple(
        math.comb(alpha + k, k + 1) * math.comb(alpha + n - 1, n - 1 - k)
        for k in range(n - 1)))
    f0 = q_binomial(alpha + n - 1, n - 1)
    w = _width(peak.bit_length() + 1)
    bits = 8 * w
    x = _pack(f0.coeffs, w)
    deg = (n - 1) * alpha  # of [alpha+k-1, k] [alpha+n-1, n-1-k]
    plain = shifted = 0
    top = 0
    for k in range(n):
        lift = math.comb(k + 1, 2)
        top = max(top, lift + deg)
        f = x << (lift * bits)
        plain += f
        shifted += f << (k * bits)
        if k == n - 1:
            break
        # [alpha+k-1, k] -> [alpha+k, k+1], then
        # [alpha+n-1, n-1-k] -> [alpha+n-1, n-2-k]
        x, deg = _times_ratio(x, deg, alpha + k, k + 1, bits)
        x, deg = _times_ratio(x, deg, n - 1 - k, alpha + k + 1, bits)
    return plain, shifted, top, w, want


def _fk_sum(n: int, alpha: int, which: int) -> Poly:
    """fk_sums(n, alpha)[which], read alone from the shared stepping.

    sum f_k [k] = sum f_k (1 - q^k) / (1 - q) and
    sum_j q^j sum_(k<=j) f_k = sum f_k (q^k - q^n) / (1 - q), so each of
    those two takes one division by 1 - q, and the plain sum none.
    """
    plain, shifted, top, w, want = _fk_stepped(n, alpha)
    bits = 8 * w
    if which == 0:
        v = plain
    elif which == 1:
        v = _div_one_minus_qpow(plain - shifted, 1, top + n, bits)
    else:
        v = _div_one_minus_qpow(shifted - (plain << (n * bits)), 1, top + n,
                                bits)
    return _read(v, top + n, w, want[which], f"f_k sums at n={n}, alpha={alpha}")


def fk_sums(n: int, alpha: int) -> tuple[Poly, Poly, Poly]:
    """The sums of f_k = q^C(k+1,2) [alpha+k-1, k] [alpha+n-1, n-1-k], k < n.

    Returns (sum f_k, sum f_k [k], sum_j q^j sum_(k<=j) f_k), j < n. All
    terms are formed on one integer packed at B = 2^W, stepped from f_0
    by ratios of factors 1 - q^m (_fk_stepped), and only the sums of f_k
    and f_k q^k are accumulated; the other two sums are each one division
    by 1 - q (_fk_sum).

    >>> fk_sums(2, 2)
    (Poly([1, 2, 2]), Poly([0, 1, 1]), Poly([1, 2, 3, 2]))
    """
    return tuple(_fk_sum(n, alpha, which) for which in range(3))


def apery_values(n: int) -> list[int]:
    """[n+k, k] [n-1, k] at q = 1 for k < n: C(n+k, k) C(n-1, k)."""
    return [math.comb(n + k, k) * math.comb(n - 1, k) for k in range(n)]


def apery_sum(n: int, r: int) -> Poly:
    """sum_(k<n) q^(r(n-k)^2 + (r-1)k) ([n+k, k] [n-1, k])^(2r).

    The Apéry-type left side of guguo (r = 1) and gsz_03. The square
    s_k = ([n+k, k] [n-1, k])^2 is stepped from s_0 = 1 by
    s_(k+1) = s_k ((1 - q^(n+k+1)) (1 - q^(n-1-k)))^2 / (1 - q^(k+1))^4,
    one factor at a time (_times_ratio); s_k^r is an integer power, added
    at its q-power, and the sum is read by _read.

    >>> apery_sum(2, 1)
    Poly([0, 1, 2, 3, 3, 1])
    """
    if n < 1 or r < 1:
        raise ValueError("apery_sum needs n >= 1 and r >= 1")
    total = sum(v ** (2 * r) for v in apery_values(n))
    # Width: every polynomial read below is a product of Gaussian
    # binomials, so its coefficients are >= 0 and bounded by its value at
    # q = 1. These are the powers s_k^j, j <= r, and the sum (at most
    # total), and the quotients of the four divisions from s_k to
    # s_(k+1), at most [n+k+1, k+1]^2 max([n-1, k], [n-1, k+1])^2 at
    # q = 1, since [n+k, k] <= [n+k+1, k+1] there. W - 1 >= bits(peak) + 1
    # keeps every one of them below 2^(W-1) - 1, as _div_one_minus_qpow
    # needs.
    peak = max([total] + [
        math.comb(n + k + 1, k + 1) ** 2
        * max(math.comb(n - 1, k), math.comb(n - 1, k + 1)) ** 2
        for k in range(n - 1)])
    w = _width(peak.bit_length() + 1)
    bits = 8 * w
    x, deg = 1, 0  # s_k(B) and its degree
    acc = 0
    top = 0  # the largest degree of a term
    for k in range(n):
        lift = r * (n - k) ** 2 + (r - 1) * k
        top = max(top, lift + r * deg)
        acc += x ** r << (lift * bits)
        if k == n - 1:
            break
        # [n+k, k] -> [n+k+1, k+1] twice, then [n-1, k] -> [n-1, k+1] twice
        for m in (n + k + 1, n + k + 1, n - 1 - k, n - 1 - k):
            x, deg = _times_ratio(x, deg, m, k + 1, bits)
    return _read(acc, top + 1, w, total, f"apery sum at n={n}, r={r}")


@lru_cache(maxsize=128)
def q_fermat_quotient(m: int, n: int) -> QExpr:
    """((q^m;q^m)_{n-1} / (q;q)_{n-1} - 1) / [n].

    At q = 1 this degenerates to the classical Fermat quotient
    (m^(n-1) - 1)/n. The inner quotient is the polynomial
    prod_{j<n} (1 + q^j + ... + q^((m-1)j)), built by shift-adds, so only
    the final division by [n] is a fraction, kept factored.
    """
    if m < 1 or n < 1:
        raise ValueError("q_fermat_quotient needs m >= 1 and n >= 1")
    ratio = ONE
    for j in range(1, n):
        ratio = sum((ratio.shifted(i * j) for i in range(m)), ZERO)
    return (ratio - 1) / qint(n)


def frac_sum(terms) -> QExpr:
    """sum c / (1 - q^m) over the pairs (c, m), c a Poly or int, m >= 1.

    1 - q^m = -prod_{d | m} Phi_d, so L = prod Phi_d over every d dividing
    some m is a common denominator, and each term is c Q_m / L with
    Q_m = L / (1 - q^m). L is packed once at B = 2^W, each distinct m
    takes one checked stride division for Q_m(B), every term adds its
    packed c times Q_m(B) to one integer, and the numerator's digits are
    read once. The sum keeps L factored, as the exponent map
    {d: -1 for d in D}: no gcd is taken, and it is reduced only when
    observed.

    >>> frac_sum([(1, 1), (Poly([1, 1]), 2)]) == QExpr(2, Poly([1, -1]))
    True
    """
    terms = list(terms)
    ds = sorted({d for _, m in terms for d in divisors(m)})
    den = _phi_power(tuple((d, 1) for d in ds))
    by_m = {}  # m -> the coefficient tuples of its nonzero c
    for c, m in terms:
        if not isinstance(c, Poly):
            c = Poly((c,))
        if c:
            by_m.setdefault(m, []).append(c.coeffs)
    if not by_m:
        return QExpr(0)
    den_c = den.coeffs
    # Width: L = (1 - q^m) Q_m makes each coefficient of Q_m a stride
    # partial sum of L's, so |Q_m|_inf <= |L|_1 and |c Q_m|_inf <=
    # |c|_1 |L|_1. Every Q_m read below, every packed c, L itself and the
    # numerator are thus at most bound = |L|_1 sum_t |c_t|_1, and
    # W - 1 >= bits(bound) + 1 keeps them below 2^(W-1) - 1, as
    # _div_one_minus_qpow needs.
    bound = sum(map(abs, den_c)) * sum(
        sum(map(abs, c)) for group in by_m.values() for c in group)
    w = _width(bound.bit_length() + 1)
    bits = 8 * w
    x = _pack(den_c, w)
    acc = 0
    size = 1  # digits of the numerator
    for m, group in by_m.items():
        acc += sum(_pack(c, w) for c in group) * _div_one_minus_qpow(
            x, m, len(den_c) - m, bits)
        size = max(size, len(den_c) - m - 1 + max(map(len, group)))
    # A second line of defence, not a certificate: the digits are signed,
    # so carries between slots can cancel in the digit sum (one-byte slots
    # returned wrong sums that passed it); the width above is what makes
    # the digits right. The numerator at q = 1 is sum_t c_t(1) Q_(m_t)(1),
    # and Q_m(1) = -prod Phi_d(1) over the d that do not divide m, which
    # is -P / m for P = prod_(d > 1) Phi_d(1), since
    # prod_(d | m, d > 1) Phi_d(1) = [m](1) = m.
    p1 = math.prod(sum(cyclotomic(d).coeffs) for d in ds if d > 1)
    want = -sum(sum(c) * (p1 // m) for m, group in by_m.items() for c in group)
    coeffs = _unpack(acc, size, w)
    if coeffs is None or sum(coeffs) != want:
        raise ArithmeticError(f"sum of c/(1 - q^m) overflowed {w}-byte slots")
    return _qexpr(_mk(coeffs), ONE, 0, dict.fromkeys(ds, -1))


def _alt_frac_sum(bound: int, offset: int, q_weight: bool) -> QExpr:
    """sum_{k=1}^{bound} (-1)^k q^(k if q_weight) / (1 - q^(k+offset))."""
    return frac_sum(
        (Poly.monomial(k if q_weight else 0, (-1) ** k), k + offset)
        for k in range(1, bound + 1)
    )


def _even_recip_sum(bound: int) -> QExpr:
    """sum_{k=1}^{bound} 1/(1 - q^(2k))."""
    return frac_sum((1, 2 * k) for k in range(1, bound + 1))


def q_harmonic(kind: str, bound: int) -> QExpr:
    """Partial q-harmonic sum up to the given bound; 0 for bound = 0.

    kind "plain_even" sums 1/[2k], "alternating" sums (-1)^k/[k], and
    "alternating_q" sums (-q)^k/[k], each for k = 1..bound. With
    1/[k] = (1 - q)/(1 - q^k), each is 1 - q, kept factored, times a sum
    of c/(1 - q^m).
    """
    recips = {
        "plain_even": _even_recip_sum,
        "alternating": lambda b: _alt_frac_sum(b, 0, q_weight=False),
        "alternating_q": lambda b: _alt_frac_sum(b, 0, q_weight=True),
    }.get(kind)
    if recips is None:
        raise ValueError(f"unknown harmonic kind {kind!r}")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    return one_minus_qpow(1) * recips(bound)
