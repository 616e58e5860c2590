"""Generalized Lehmer-Euler numbers of order alpha, exactly over Q.

The base series for modulus r is f(t) = sum_{l>=0} t^(rl)/(rl)!, which
equals the average of e^(zeta^j t) over the r-th roots of unity; W_{r,n}
of order alpha is n! times the t^n coefficient of f^(-alpha). No
root-of-unity arithmetic is ever needed, and no series is truncated:
J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7)
gives each coefficient of f^s from the ones before it.
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

    >>> [str(w) for w in lehmer_euler_numbers(2, 1, 6)]
    ['1', '0', '-1', '0', '5', '0', '-61']
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if r < 1 or alpha < 1:
        raise ValueError("need r >= 1 and alpha >= 1")
    w = [Fraction(1)]
    for m in range(1, count + 1):
        # from Fraction(0), so an empty sum (m < r) is not the int 0
        total = Fraction(0)
        for k in range(r, m + 1, r):
            if w[m - k]:
                total += ((1 - alpha) * k - m) * math.comb(m, k) * w[m - k]
        w.append(total / m)
    return w
