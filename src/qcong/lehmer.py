"""Generalized Lehmer-Euler numbers of order alpha, exactly over Q.

The base series for modulus r is f(t) = sum_{l>=0} t^(rl)/(rl)!, which
equals the average of e^(zeta^j t) over the r-th roots of unity; W_{r,n}
of order alpha is n! times the t^n coefficient of f^(-alpha). No
root-of-unity arithmetic is ever needed, and no series is truncated:
J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7)
gives each coefficient of f^s from the ones before it, in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction


def lehmer_euler_numbers(r: int, alpha: int, count: int) -> list[Fraction]:
    """W_{r,n} of order alpha for n = 0..count, as exact rationals.

    For g = f^s with f_0 = 1, Miller's recurrence reads
    m g_m = sum_{k=1..m} ((s + 1)k - m) f_k g_(m-k). With s = -alpha,
    f_k = 1/k! at r | k and W_m = m! g_m it becomes
    m W_m = sum_{r|k, 1<=k<=m} ((1 - alpha)k - m) C(m, k) W_(m-k), W_0 = 1.
    Every W_m is an integer, since n! [t^n] of a power of a series
    sum c_n t^n / n! with integer c_n and c_0 = 1 is one, so the sum is
    taken over the integers and divided by m exactly.

    >>> [str(w) for w in lehmer_euler_numbers(2, 1, 6)]
    ['1', '0', '-1', '0', '5', '0', '-61']
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if r < 1 or alpha < 1:
        raise ValueError("need r >= 1 and alpha >= 1")
    w = [1]
    for m in range(1, count + 1):
        total = sum(((1 - alpha) * k - m) * math.comb(m, k) * w[m - k]
                    for k in range(r, m + 1, r) if w[m - k])
        wm, rem = divmod(total, m)
        if rem:
            raise ArithmeticError(f"W_{m} of r={r}, alpha={alpha} is not an integer")
        w.append(wm)
    return [Fraction(v) for v in w]
