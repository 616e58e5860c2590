"""Phi_d valuations of a difference from its residues mod (q^d - 1)^K.

check_congruence folds the parts of lhs - rhs above a length crossover.
These tests hold the fold to plain division, seeded differences
c Phi_d^v R to phi_valuation, and every default q-cell to the unfolded
verdict.
"""

import math
import random

import pytest

from qcong import congruence
from qcong.congruence import CycloModulus, Status, _fold, check_congruence
from qcong.cyclotomic import cyclotomic, phi_valuation
from qcong.exact import Poly, QExpr, _divmod_z
from qcong.qcombinatorics import qint
from qcong.statements import REGISTRY, HypothesisViolation, QCongruence


def _valuations(monkeypatch, limit=40):
    """The polynomials check_congruence takes valuations of, in order; a
    call past limit fails, so a K that never grows cannot loop forever."""
    seen = []

    def spy(p, d):
        seen.append((p, d))
        assert len(seen) <= limit, "K never reached the degree bound"
        return phi_valuation(p, d)

    monkeypatch.setattr(congruence, "phi_valuation", spy)
    return seen


def test_fold_is_the_remainder_by_q_d_minus_1_to_the_k():
    rng = random.Random(27)
    for _ in range(300):
        d, k = rng.randint(1, 12), rng.randint(1, 6)
        c = [rng.randint(-2 ** 70, 2 ** 70) for _ in range(rng.randint(0, 150))]
        modulus = ((Poly.monomial(d) - 1) ** k).coeffs  # monic
        assert Poly(_fold(tuple(c), d, k)) == Poly(_divmod_z(c, modulus)[1])


def _random_poly(rng, length, bits):
    c = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(length)]
    c[0] = c[0] or 1
    c[-1] = c[-1] or 1
    return Poly(c)


def _pair(diff, rng, s1, s2, m):
    """(lhs, rhs) with lhs - rhs = q^s2 diff / [m]: lhs a shifted
    polynomial, rhs a factored QExpr sum whose 1/[m] makes lhs's num
    carry the cofactor [m]."""
    lhs_num = _random_poly(rng, rng.randint(300, 500), 60)
    lhs = QExpr(lhs_num).shifted(s1)
    rhs = (QExpr(lhs_num * Poly((1,) * m)).shifted(s1)
           - QExpr(diff).shifted(s2)) / qint(m)
    return lhs, rhs


CASES = [
    # d, e, v, extra Phi_d in R, c, q-shifts, m (d | m puts 1/Phi_d in rhs)
    (7, 2, 2, 0, 1, (0, 0), 12),
    (7, 2, 3, 0, -1, (5, -3), 12),      # margin e + 1: K doubles once
    (5, 2, 2, 3, 6, (-4, 2), 12),       # margin 5 > e + 1
    (11, 1, 1, 6, -2 ** 200 - 1, (3, 3), 12),  # margin 7: K = 2, 4, 8
    (5, 3, 0, 0, 1, (0, 7), 10),        # a pole: margin -1
    (7, 2, 0, 1, 1, (-2, -9), 14),      # the pole cancels: margin 0
    (3, 1, 9, 0, 1, (1, 0), 8),
]


@pytest.mark.parametrize("d, e, v, extra, c, shifts, m", CASES)
def test_seeded_differences_match_phi_valuation(monkeypatch, d, e, v, extra,
                                                c, shifts, m):
    rng = random.Random(d * 1000 + v * 10 + extra)
    phi = cyclotomic(d)
    for bits in (4, 200):
        r = _random_poly(rng, rng.randint(200, 400), bits) * phi ** extra
        diff = c * phi ** v * r
        lhs, rhs = _pair(diff, rng, *shifts, m)
        want = phi_valuation(diff, d) - (m % d == 0)
        modulus = CycloModulus.phi(d, e)
        seen = _valuations(monkeypatch)
        got = check_congruence(lhs, rhs, modulus)
        assert got.factors[0].margin == want
        # folded from the first valuation on, at K = e + 1
        assert len(seen[0][0]) <= (e + 1) * d
        monkeypatch.setattr(congruence, "_FOLD_MIN_RATIO", math.inf)
        assert check_congruence(lhs, rhs, modulus) == got
        monkeypatch.undo()
        status = (Status.ILL_POSED if want < 0 else
                  Status.HOLDS if want >= e else Status.FAILS)
        assert got.status is status


def test_margin_e_takes_one_fold_and_more_doubles_k(monkeypatch):
    # K starts at e + 1, so a margin of exactly e, the usual holds, is
    # read from one residue; margin 5 at e = 2 needs K = 3, then 6
    rng = random.Random(5)
    d, e = 7, 2
    phi = cyclotomic(d)
    r = _random_poly(rng, 400, 30)
    for v, ks in ((2, [3]), (5, [3, 6])):
        lhs, rhs = _pair(phi ** v * r, rng, 0, 0, 12)
        seen = _valuations(monkeypatch)
        got = check_congruence(lhs, rhs, CycloModulus.phi(d, e))
        assert got.factors[0].margin == v
        assert len(seen) == len(ks)
        assert all(len(p) <= k * d for (p, _), k in zip(seen, ks))
        monkeypatch.undo()


def test_zero_residue_is_not_a_zero_difference(monkeypatch):
    # (q^d - 1)^K R folds to 0 at K = e + 1, yet it is not 0: its margin is
    # K + v_d(R), read from the difference itself
    rng = random.Random(9)
    d, e = 7, 2
    r = _random_poly(rng, 400, 30)
    diff = (Poly.monomial(d) - 1) ** (e + 1) * r
    lhs, rhs = _pair(diff, rng, 2, -1, 12)
    seen = _valuations(monkeypatch)
    got = check_congruence(lhs, rhs, CycloModulus.phi(d, e))
    assert got.factors[0].margin == e + 1 + phi_valuation(r, d)
    assert not seen[0][0] and len(seen) == 2


def test_zero_difference_has_margin_inf(monkeypatch):
    rng = random.Random(11)
    lhs, rhs = _pair(Poly(), rng, 3, -5, 12)
    seen = _valuations(monkeypatch)
    got = check_congruence(lhs, rhs, CycloModulus(((5, 2), (7, 1))))
    assert got.status is Status.HOLDS
    assert [f.margin for f in got.factors] == [math.inf, math.inf]
    assert [f.to_dict()["val_num"] for f in got.factors] == ["inf", "inf"]
    # each factor: one zero residue, then the difference, formed once
    assert [len(p) for p, _ in seen] == [0, 0, 0, 0]


def test_every_default_q_cell_folded_or_not(monkeypatch):
    cells = []
    for tag, stmt in REGISTRY.items():
        for variant in stmt.variants:
            for params in stmt.default_grid():
                try:
                    stmt.hypotheses(params)
                    built = stmt.build(params, variant)
                except HypothesisViolation:
                    continue
                if isinstance(built, QCongruence):
                    cells.append(built)
    assert len(cells) == 963
    verdicts = []
    for ratio in (congruence._FOLD_MIN_RATIO, 0, math.inf):
        monkeypatch.setattr(congruence, "_FOLD_MIN_RATIO", ratio)
        verdicts.append([check_congruence(*c) for c in cells])
    assert verdicts[0] == verdicts[1] == verdicts[2]
