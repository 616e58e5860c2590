import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qcong import exact
from qcong.congruence import Status, check_congruence
from qcong.cyclotomic import CycloModulus, cyclotomic
from qcong.exact import ONE, Poly, QExpr
from qcong.qcombinatorics import (
    _alt_frac_sum, _even_recip_sum, fk_sums, frac_sum, one_minus_qpow,
    q_binomial, q_fermat_quotient, q_harmonic, q_integer, q_pochhammer,
    qbinom, qint,
)
from qcong.statements import (
    REGISTRY,
    HypothesisViolation,
    IntCongruence,
    QCongruence,
    RationalIdentity,
    VerdictRecord,
    _corner,
    _guided_chunks,
    _theorem_grid,
    evaluate_built,
    m_star,
    run_cell,
    verify,
)

ALL_TAGS = [
    "t1", "t2", "cor1a", "cor1b", "pan1", "pan2", "guozeng_01", "guguo",
    "gsz_03", "lemma_a1", "lemma_a2", "step_a3", "step_a4", "step_a5",
    "step_a6", "step_a7", "step_a8", "step_a9_0", "step_a9", "step_a10",
    "step_a11_a12", "step_b1", "step_b2", "step_b3", "step_b4", "step_b5",
    "step_b6", "step_b7", "identity_t0", "cong_t0a",
]


def test_registry_tags():
    assert sorted(REGISTRY) == sorted(ALL_TAGS)
    assert len(REGISTRY) == 30


def test_registry_variant_consistency():
    for stmt in REGISTRY.values():
        assert stmt.canonical_variant in stmt.variants
        assert "as_printed" in stmt.variants
    assert REGISTRY["cor1a"].variants == ("as_printed", "standard_fermat_quotient")
    assert REGISTRY["t1"].variants == ("as_printed",)


def test_default_grids_satisfy_hypotheses():
    for stmt in REGISTRY.values():
        for params in stmt.default_grid():
            stmt.hypotheses(params)  # must not raise
            assert set(params) == set(stmt.params)
    assert REGISTRY["t1"].params == ("n", "alpha")
    assert REGISTRY["step_a4"].params == ("n", "alpha", "k")
    assert REGISTRY["step_a9_0"].params == ("t", "n")


def _status(tag, params, variant=None):
    stmt = REGISTRY[tag]
    if variant is None:
        variant = stmt.canonical_variant
    return run_cell(tag, variant, params).verdict.status


def test_theorem_cells_hold():
    assert _status("t1", {"n": 3, "alpha": 2}) is Status.HOLDS
    assert _status("t1", {"n": 7, "alpha": 6}) is Status.HOLDS
    assert _status("t2", {"n": 5, "alpha": 4}) is Status.HOLDS


def test_corollary_variants():
    # printed constant (2^p-1)/p misses the usual Fermat quotient by 2^p
    assert _status("cor1a", {"p": 3, "alpha": 2}, "as_printed") is Status.FAILS
    assert (
        _status("cor1a", {"p": 3, "alpha": 2}, "standard_fermat_quotient")
        is Status.HOLDS
    )
    assert _status("cor1b", {"p": 5, "alpha": 4}, "as_printed") is Status.FAILS
    assert (
        _status("cor1b", {"p": 5, "alpha": 4}, "standard_fermat_quotient")
        is Status.HOLDS
    )


def test_pan_variants():
    assert _status("pan1", {"p": 5}) is Status.HOLDS
    assert _status("pan2", {"p": 5}, "as_printed") is Status.FAILS
    assert _status("pan2", {"p": 5}, "corrected") is Status.HOLDS


def test_pan_statements_returns_triples():
    one = REGISTRY["pan1"].build({"p": 7}, "as_printed")
    two = REGISTRY["pan2"].build({"p": 7}, "as_printed")
    assert one.modulus == CycloModulus.phi(7, 2) == two.modulus
    assert one.lhs != one.rhs  # congruent mod Phi_7^2 but not equal


def test_step_a4_domain_boundary():
    # holds strictly below k = n - alpha, fails with margin 1 above it
    assert _status("step_a4", {"n": 7, "alpha": 2, "k": 3}) is Status.HOLDS
    assert _status("step_a4", {"n": 7, "alpha": 2, "k": 0}) is Status.HOLDS
    rec = run_cell("step_a4", "as_printed", {"n": 7, "alpha": 2, "k": 6})
    assert rec.verdict.status is Status.FAILS
    assert rec.verdict.factors[0].margin == 1
    rec = run_cell("step_a4", "as_printed", {"n": 9, "alpha": 4, "k": 7})
    assert rec.verdict.status is Status.FAILS


def test_step_a7_variants():
    assert _status("step_a7", {"n": 5, "alpha": 2}, "as_printed") is Status.FAILS
    assert _status("step_a7", {"n": 5, "alpha": 2}, "corrected") is Status.HOLDS
    assert _status("step_a7", {"n": 9, "alpha": 6}, "corrected") is Status.HOLDS


def test_step_b1_variants():
    assert _status("step_b1", {"n": 5, "alpha": 2}, "as_printed") is Status.FAILS
    assert _status("step_b1", {"n": 5, "alpha": 2}, "corrected") is Status.HOLDS


def test_step_b6_printed_holds_only_on_diagonal():
    # the printed bracket agrees with the corrected one iff alpha=(n+1)/2
    assert _status("step_b6", {"n": 7, "alpha": 4}, "as_printed") is Status.HOLDS
    assert _status("step_b6", {"n": 7, "alpha": 2}, "as_printed") is Status.FAILS
    assert _status("step_b6", {"n": 5, "alpha": 2}, "as_printed") is Status.FAILS
    for params in ({"n": 7, "alpha": 2}, {"n": 7, "alpha": 4},
                   {"n": 9, "alpha": 6}):
        assert _status("step_b6", params, "corrected") is Status.HOLDS


def test_guozeng_modulus_one_is_trivial():
    rec = run_cell("guozeng_01", "as_printed", {"n": 1})
    assert rec.verdict.status is Status.HOLDS
    assert "trivial" in rec.verdict.note


def test_identity_t0_false_at_m_zero():
    # sum_{k<=n} (-1)^k k^0 is -1 or 0, but the Euler-polynomial side
    # evaluates to 0 or 1; the identity genuinely needs m >= 1
    assert _status("identity_t0", {"m": 0, "n": 1}) is Status.FAILS
    assert _status("identity_t0", {"m": 0, "n": 2}) is Status.FAILS
    assert _status("identity_t0", {"m": 3, "n": 17}) is Status.HOLDS
    grid = REGISTRY["identity_t0"].default_grid()
    assert all(c["m"] >= 1 for c in grid)


def test_a11_a12_lhs_is_single_q_binomial():
    # the k = 0 term of the t1 sum is [alpha+n-1, n-1]
    cell = {"n": 7, "alpha": 4}
    assert REGISTRY["step_a11_a12"].build(cell, "as_printed").lhs == QExpr(
        q_binomial(10, 6))


def _one_minus_qpow(m):
    return ONE - Poly.monomial(m)


def test_reciprocal_sums_match_term_by_term_reference():
    # the reference adds one QExpr per term
    zero = QExpr(0)
    for cell in _theorem_grid(15):
        n, a = cell["n"], cell["alpha"]
        ks = range(1, n)
        for offset in (0, a):
            plain = [QExpr((-1) ** k, _one_minus_qpow(k + offset)) for k in ks]
            assert _alt_frac_sum(n - 1, offset, False) == sum(plain, zero)
            weighted = [t.shifted(k) for k, t in zip(ks, plain)]
            assert _alt_frac_sum(n - 1, offset, True) == sum(weighted, zero)
        even = [QExpr(1, _one_minus_qpow(2 * k)) for k in range(1, (n + 1) // 2)]
        assert _even_recip_sum((n - 1) // 2) == sum(even, zero)
        # step_a6, step_a7 (both variants) and step_b2, with the sum inside
        # their right side added term by term
        one_minus_qn = QExpr(_one_minus_qpow(n))
        ratio_sum = sum([QExpr(ONE + Poly.monomial(i), _one_minus_qpow(i))
                         for i in range(1, a)], zero)
        a6 = (QExpr(q_binomial(n - 1, n - a)) * (-1) ** (a - 1)
              * QExpr(1).shifted(math.comb(a, 2))
              * (1 + one_minus_qn * ratio_sum))
        assert REGISTRY["step_a6"].build(cell, "as_printed").rhs == a6
        recip_sum = sum([QExpr(1, _one_minus_qpow(i)) for i in range(1, a)],
                        zero)
        sign = QExpr((-1) ** (a - 1)).shifted(-math.comb(a, 2))
        for variant, inner in (("as_printed", 1 - recip_sum),
                               ("corrected", 1 - one_minus_qn * recip_sum)):
            assert REGISTRY["step_a7"].build(cell, variant).rhs == sign * inner
        tail = sum([QExpr((-1) ** k * q_integer(k), _one_minus_qpow(k + a))
                    for k in ks], zero)
        b2 = one_minus_qn * tail + QExpr(q_integer(n - a))
        assert REGISTRY["step_b2"].build(cell, "as_printed").rhs == b2
        # step_a3 and step_b4, with the reciprocal terms of their right
        # side added one QExpr at a time
        one_minus_q = Poly([1, -1])
        fermat = q_fermat_quotient(2, n)
        alt = sum([QExpr((-1) ** k, _one_minus_qpow(k))
                   for k in range(1, a + 1)], zero)
        a3 = (-2 * alt - 2 * fermat / QExpr(one_minus_q)
              - QExpr(1, _one_minus_qpow(n)) - Fraction(n - 1, 2)
              + QExpr(1, _one_minus_qpow(a)))
        assert REGISTRY["step_a3"].build(cell, "as_printed").rhs == a3
        alt_q = sum([QExpr((-1) ** k, q_integer(k)).shifted(k)
                     for k in range(1, a + 1)], zero)
        inner = (Fraction(1 - n, 2) * QExpr(one_minus_q) - 2 * fermat
                 - 2 * alt_q - QExpr(1, q_integer(n)).shifted(n)
                 + QExpr(1, q_integer(a)).shifted(a))
        b4 = inner.shifted(-a) / QExpr(one_minus_q)
        assert REGISTRY["step_b4"].build(cell, "as_printed").rhs == b4


def _closed_form_rhs(tag, p, variant):
    """The right sides of the proof steps in closed form: one product per
    sign, q-power and 1 - q^n = [n](1 - q), each expansion written out."""
    n, a = p["n"], p.get("alpha")
    omq = one_minus_qpow(n)
    if tag == "gsz_03":
        r, qn = p["r"], q_integer(n)
        return (QExpr(qn.shifted((r - 1) * n + 1))
                - Fraction(r * (2 * r - 1) * (n - 1) ** 2, 4)
                * QExpr(Poly([1, -1]) ** 2 * qn ** 3).shifted(1))
    if tag == "step_a4":
        k = p["k"]
        return (omq * QExpr((-1) ** k).shifted(-math.comb(k + 1, 2))
                / (one_minus_qpow(a + k) * qbinom(a + k - 1, k)))
    if tag == "step_a5":
        return omq * _alt_frac_sum(n - 1, a, q_weight=False) + 1
    if tag == "step_a6":
        ratio_sum = frac_sum((ONE + Poly.monomial(i), i) for i in range(1, a))
        return (QExpr(q_binomial(n - 1, n - a)) * ((-1) ** (a - 1))
                * QExpr(1).shifted(math.comb(a, 2)) * (1 + omq * ratio_sum))
    if tag == "step_a7":
        recip_sum = frac_sum((1, i) for i in range(1, a))
        if variant != "as_printed":
            recip_sum = omq * recip_sum
        return QExpr((-1) ** (a - 1)).shifted(-math.comb(a, 2)) * (1 - recip_sum)
    if tag == "step_a8":
        return QExpr(1).shifted(-math.comb(a, 2)) * ((a - 1) * omq - 1)
    if tag == "step_a9_0":
        return 1 - p["t"] * omq
    if tag in ("step_a9", "step_b5"):
        rhs = 1 + Fraction(2 * a - n - 1, 2) * omq
        return rhs.shifted(-a) if tag == "step_b5" else rhs
    qn, qa = q_integer(n), q_integer(a)
    if tag == "step_a10":
        return (2 * QExpr(qn * Poly([1, -1]))
                + QExpr(qn * (2 * Poly.monomial(a) - ONE) - qa) / qint(a)
                - 2 * qint(n) * q_fermat_quotient(2, n)
                - 2 * qint(n) * q_harmonic("alternating", a))
    assert tag == "step_b6"
    core = qa - (a - 1) * (qa * qn * Poly([1, -1])) - qn
    if variant == "as_printed":
        bracket = 1 + (2 * a - n - 1) * omq
    else:
        bracket = (2 + (2 * a - n - 1) * omq) / 2
    return bracket * QExpr(core).shifted(-a)


CLOSED_FORM_RUNS = [
    ("gsz_03", "as_printed"), ("step_a4", "as_printed"),
    ("step_a5", "as_printed"), ("step_a6", "as_printed"),
    ("step_a7", "as_printed"), ("step_a7", "corrected"),
    ("step_a8", "as_printed"), ("step_a9_0", "as_printed"),
    ("step_a9", "as_printed"), ("step_a10", "as_printed"),
    ("step_b5", "as_printed"), ("step_b6", "as_printed"),
    ("step_b6", "corrected"),
]


@pytest.mark.parametrize("tag, variant", CLOSED_FORM_RUNS)
def test_right_sides_equal_their_closed_forms(tag, variant):
    # QExpr == compares canonical forms, so a rewrite that changes a value
    # fails here even where it keeps every margin
    for p in REGISTRY[tag].default_grid():
        built = REGISTRY[tag].build(p, variant)
        assert built.rhs == _closed_form_rhs(tag, p, variant), p
        if tag in ("step_a9", "step_b5"):
            n, a = p["n"], p["alpha"]
            shift = n * (n - 2 * a + 1) // 2 - (a if tag == "step_b5" else 0)
            assert built.lhs == QExpr(1).shifted(shift), p


def test_m_star_examples_and_q1_bridge():
    assert m_star(1, 2) == 5
    assert m_star(0, 3) == 1
    # q=1 specialization of the t1 sum matches the integer sum
    for n, alpha in ((3, 2), (5, 2), (5, 4)):
        assert fk_sums(n, alpha)[0](1) == m_star(n - 1, alpha)
    with pytest.raises(ValueError):
        m_star(2, 0)


def test_m_star_matches_the_direct_binomial_sum():
    for n in range(31):
        for alpha in range(1, 13):
            assert m_star(n, alpha) == sum(
                math.comb(alpha + k - 1, k) * math.comb(alpha + n, n - k)
                for k in range(n + 1))


def test_corner_is_the_t1_term_at_k_equal_n_minus_alpha():
    for cell in REGISTRY["t1"].default_grid():
        n, a = cell["n"], cell["alpha"]
        k = n - a
        term = (q_binomial(a + k - 1, k)
                * q_binomial(a + n - 1, n - 1 - k)).shifted(math.comb(k + 1, 2))
        assert _corner(n, a).shifted(math.comb(n - a + 1, 2)) == term


def test_t2_double_sum_at_q1_is_cor1b_lhs():
    # cor1b is t2 at q -> 1 with n = p
    for cell in REGISTRY["cor1b"].default_grid():
        lhs = REGISTRY["cor1b"].build(cell, "as_printed").lhs
        assert fk_sums(cell["p"], cell["alpha"])[2](1) == lhs


def test_run_cell_hypothesis_violation_is_ill_posed():
    rec = run_cell("t1", "as_printed", {"n": 4, "alpha": 2})
    assert rec.verdict.status is Status.ILL_POSED
    assert "odd" in rec.hypothesis_error
    # p must be an odd prime, and 1 <= alpha <= p - 1 keeps every
    # denominator coprime to p
    for bad in ({"p": 9, "alpha": 2}, {"p": 2, "alpha": 1},
                {"p": 5, "alpha": 5}):
        rec = run_cell("cong_t0a", "as_printed", bad)
        assert rec.verdict.status is Status.ILL_POSED


def test_run_cell_rejects_unknown_variant():
    with pytest.raises(ValueError):
        run_cell("t1", "corrected", {"n": 3, "alpha": 2})


def test_verify_deterministic_and_parallel_agree():
    grid = [{"t": t, "n": n} for t in (0, 1, 2) for n in (2, 3)]
    seq = verify("step_a9_0", grid=grid, jobs=1)
    par = verify("step_a9_0", grid=list(reversed(grid)), jobs=2)
    strip = lambda rs: [(r.statement, r.variant, r.params, r.verdict) for r in rs]
    assert strip(seq) == strip(par)
    assert [r.params for r in seq] == sorted(r.params for r in seq)


def test_verify_runs_share_one_pool(pools):
    runs = [("pan2", "as_printed", None),
            ("step_a9_0", None, [{"t": 1, "n": 3}]),
            ("pan2", None, None)]
    single = [verify(tag, grid=grid, variant=variant)
              for tag, variant, grid in runs]
    assert pools == []
    together = verify(runs, jobs=2)
    assert pools == [2]
    key = lambda r: (r.statement, r.variant, r.params)
    strip = lambda rs: [(r.statement, r.variant, r.params, r.verdict) for r in rs]
    assert strip(together) == strip(sorted(sum(single, []), key=key))
    verify(runs[1:2], jobs=2)  # one cell: no pool, whatever jobs says
    assert pools == [2]
    verify("step_a9_0", grid=[{"t": 1, "n": 3}, {"t": 2, "n": 3}], jobs=3)
    assert pools == [2, 2]  # never more workers than cells
    with pytest.raises(ValueError):
        verify(runs, grid=[{"t": 1, "n": 3}])
    with pytest.raises(ValueError):
        verify(runs, variant="as_printed")


def test_worker_exception_reaches_caller_and_no_child_is_left(monkeypatch):
    def boom(params, variant):
        if params["t"] == 0:
            time.sleep(60)  # a busy worker is killed, not waited for
        raise RuntimeError("boom")

    monkeypatch.setitem(vars(REGISTRY["step_a9_0"]), "build", boom)
    for grid in ([{"t": t, "n": n} for t in (1, 2) for n in (2, 3)],
                 [{"t": 0, "n": 2}, {"t": 1, "n": 2}]):
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^boom$"):
            verify("step_a9_0", grid=grid, jobs=2)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_dead_worker_raises_child_process_error():
    # a child that never replies must not hang verify: run it under a timeout
    code = (
        "import os\n"
        "from qcong import REGISTRY, verify\n"
        "vars(REGISTRY['step_a9_0'])['build'] = lambda p, v: os._exit(3)\n"
        "try:\n"
        "    verify('step_a9_0', grid=[{'t': 1, 'n': 2}, {'t': 1, 'n': 3}],"
        " jobs=2)\n"
        "except ChildProcessError as e:\n"
        "    print(e)\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"worker \d+ died before it answered "
                        r"\(exit status 3\)\nno child left\n",
                        proc.stdout), proc.stdout


def test_no_fork_runs_cells_in_process(monkeypatch, pools):
    grid = [{"t": t, "n": n} for t in (0, 1, 2) for n in (2, 3)]
    serial = verify("step_a9_0", grid=grid, jobs=1)
    monkeypatch.delattr(os, "fork")
    strip = lambda rs: [(r.statement, r.variant, r.params, r.verdict) for r in rs]
    assert strip(verify("step_a9_0", grid=grid, jobs=2)) == strip(serial)
    assert pools == []


def test_guided_chunks_plan():
    for n_cells in (0, 1, 2, 3, 5, 7, 40, 884, 1500):
        for workers in (2, 3, 4):
            cells = list(range(n_cells))
            chunks = _guided_chunks(cells, workers)
            # every cell exactly once, in order, no empty chunk
            assert [c for chunk in chunks for c in chunk] == cells
            assert all(chunks)
            sizes = [len(chunk) for chunk in chunks]
            assert sizes == sorted(sizes, reverse=True)
            cap = -(-n_cells // (8 * workers))
            left = n_cells
            for size in sizes:
                assert size == max(1, min(cap, left // (2 * workers)))
                left -= size
            # the last 2 * workers cells go out one at a time
            assert sizes[-min(n_cells, 2 * workers):] == [1] * min(n_cells, 2 * workers)
    # fewer cells than 2 * workers: one cell per chunk
    assert _guided_chunks(["a", "b", "c"], 2) == [["a"], ["b"], ["c"]]
    # no chunk is larger than ceil(cells / (8 * workers)), so heavy cells
    # at the front of the grid are spread over the workers too
    sizes = [len(c) for c in _guided_chunks(list(range(884)), 2)]
    assert sizes[:12] == [56] * 12 and sizes[12:15] == [53, 39, 30]


def test_verdict_record_json_round_trip():
    records = verify("pan2", variant="as_printed")
    payload = json.dumps([r.to_dict() for r in records])
    parsed = [VerdictRecord.from_dict(d) for d in json.loads(payload)]
    assert parsed == records


def test_ill_posed_record_carries_its_hypothesis_error():
    rec = verify("t1", grid=[{"n": 4, "alpha": 2}])[0]
    out = rec.to_dict()
    assert list(out)[-2:] == ["note", "hypothesis_error"]
    assert out["hypothesis_error"] == "n must be a positive odd integer, got 4"
    assert VerdictRecord.from_dict(json.loads(json.dumps(out))) == rec


def test_builders_return_expected_kinds():
    kinds = {
        "t1": QCongruence,
        "guozeng_01": IntCongruence,
        "identity_t0": RationalIdentity,
        "cong_t0a": IntCongruence,
    }
    for tag, kind in kinds.items():
        stmt = REGISTRY[tag]
        built = stmt.build(stmt.default_grid()[0], stmt.canonical_variant)
        assert isinstance(built, kind)


def test_evaluate_built_rejects_foreign_types():
    with pytest.raises(TypeError):
        evaluate_built(object())


def test_int_congruence_ill_posed_when_denominator_shares_factor():
    from fractions import Fraction

    built = IntCongruence(Fraction(1, 3), Fraction(0), 9)
    assert evaluate_built(built).status is Status.ILL_POSED


def _default_cells():
    # every default cell of every statement, in each of its variants
    return [(tag, variant, params) for tag, stmt in REGISTRY.items()
            for variant in stmt.variants for params in stmt.default_grid()]


def _as_observed(x):
    # the same value rebuilt from its canonical form, with nothing factored
    return QExpr(x.num, x.den).shifted(x.shift)


def test_every_q_cell_decides_alike_as_built_and_as_observed():
    # sides as built, with their cyclotomic factors carried as exponent
    # maps, against the same sides observed first, reduced to canonical
    # form, and decided through the reduced fractions
    cells = 0
    for tag, variant, params in _default_cells():
        built = REGISTRY[tag].build(params, variant)
        if not isinstance(built, QCongruence):
            continue
        as_built = check_congruence(built.lhs, built.rhs, built.modulus)
        observed = check_congruence(_as_observed(built.lhs),
                                    _as_observed(built.rhs), built.modulus)
        assert as_built == observed, (tag, variant, params)
        cells += 1
    assert cells == 963


def test_default_sweep_takes_no_gcd_and_evicts_from_no_cache(monkeypatch):
    # the builders' denominators are all factored or constant, so no sum,
    # product or quotient has a nonconstant den to reduce; and no cache is
    # ever full, so none evicts
    def no_gcd(*args, **kwargs):
        raise AssertionError("gcd_rational called")

    caches = [q_integer, q_pochhammer, q_binomial, q_fermat_quotient,
              cyclotomic, exact._phi_power]
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(exact, "gcd_rational", no_gcd)
    records = [run_cell(*cell) for cell in _default_cells()]
    assert len(records) == 1615
    assert not any(r.hypothesis_error for r in records)
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize < info.maxsize, (cache, info)


def test_t1_and_t2_each_read_one_f_k_sum(monkeypatch):
    # t1 reads sum f_k and t2 the double sum: one _read each, and only the
    # double sum divides by 1 - q; fk_sums reads all three. The stepping
    # is memoized, so t1 and t2 at one (n, alpha) step it once.
    from qcong import qcombinatorics

    calls = []
    for name in ("_div_one_minus_qpow", "_read", "_times_ratio"):
        def spy(*args, _name=name, _real=getattr(qcombinatorics, name)):
            calls.append((_name, sys._getframe(1).f_code.co_name))
            return _real(*args)
        monkeypatch.setattr(qcombinatorics, name, spy)

    def counted(fn):
        del calls[:]
        fn()
        return {c: calls.count(c) for c in set(calls)}

    n, a = 9, 4
    cell = {"n": n, "alpha": a}
    qcombinatorics._fk_stepped.cache_clear()
    q_binomial(a + n - 1, n - 1)
    t1 = counted(lambda: REGISTRY["t1"].build(cell, "as_printed"))
    assert t1[("_times_ratio", "_fk_stepped")] == 2 * (n - 1)
    assert t1[("_read", "_fk_sum")] == 1
    assert ("_div_one_minus_qpow", "_fk_sum") not in t1
    t2 = counted(lambda: REGISTRY["t2"].build(cell, "as_printed"))
    assert ("_times_ratio", "_fk_stepped") not in t2
    assert t2[("_read", "_fk_sum")] == 1
    assert t2[("_div_one_minus_qpow", "_fk_sum")] == 1
    both = counted(lambda: fk_sums(n, a))
    assert both == {("_read", "_fk_sum"): 3, ("_div_one_minus_qpow", "_fk_sum"): 2}
    qcombinatorics._fk_stepped.cache_clear()
