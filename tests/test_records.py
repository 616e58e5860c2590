"""Contracts of the value records: read-only, equal and hashed by value,
validated where they are built, and round-tripped by pickle and JSON."""

import math
import pickle
from fractions import Fraction

import pytest

from qcong.congruence import CanonicalRep, FactorCheck, Status, Verdict
from qcong.cyclotomic import CycloModulus
from qcong.exact import ONE, QExpr
from qcong.statements import (
    REGISTRY,
    IntCongruence,
    QCongruence,
    RationalIdentity,
    Statement,
    VerdictRecord,
)


def _factor():
    return FactorCheck(5, 2, 1, 0)


def _verdict():
    return Verdict(Status.FAILS, (_factor(), FactorCheck(7, 1, math.inf, 0)))


def _record(hypothesis_error=""):
    return VerdictRecord("t1", "as_printed", (("alpha", 2), ("n", 5)),
                         _verdict(), 3, hypothesis_error)


@pytest.mark.parametrize("obj, field", [
    (_factor(), "d"),
    (_verdict(), "status"),
    (CanonicalRep(Fraction(1), ONE), "scale"),
    (CycloModulus.phi(3), "factors"),
    (QCongruence(QExpr(1), QExpr(1), CycloModulus.phi(3)), "modulus"),
    (IntCongruence(Fraction(1), Fraction(1), 3), "lhs"),
    (RationalIdentity(Fraction(1), Fraction(1)), "rhs"),
    (_record(), "elapsed_ms"),
    (REGISTRY["t1"], "build"),
])
def test_fields_are_read_only(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))


@pytest.mark.parametrize("make", [
    _factor,
    _verdict,
    lambda: CycloModulus(((5, 2), (3, 1))),
    _record,
])
def test_equal_and_hashed_by_value(make):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_records_differing_in_one_field_differ():
    assert FactorCheck(5, 2, 1, 0) != FactorCheck(5, 2, 2, 0)
    assert Verdict(Status.HOLDS) != Verdict(Status.HOLDS, note="x")
    assert _record() != _record("n must be odd")


def test_cyclo_modulus_sorts_and_validates():
    assert CycloModulus(((7, 1), (3, 2))).factors == ((3, 2), (7, 1))
    assert CycloModulus(((7, 1), (3, 2))) == CycloModulus(((3, 2), (7, 1)))
    for bad in (((0, 1),), ((3, 0),), ((3, 1), (3, 2))):
        with pytest.raises(ValueError):
            CycloModulus(bad)


def test_cyclo_modulus_reads_a_generator_once():
    # read by the sort, not used up by the checks
    assert CycloModulus((d, 1) for d in (5, 3)).factors == ((3, 1), (5, 1))


def test_verdict_record_pickles_with_factors():
    rec = _record()
    assert rec.verdict.factors
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_verdict_record_dict_round_trip_with_hypothesis_error():
    rec = VerdictRecord(
        "pan1", "as_printed", (("p", 9),),
        Verdict(Status.ILL_POSED, note="hypothesis violated: p not prime"),
        0, "p not prime",
    )
    assert VerdictRecord.from_dict(rec.to_dict()) == rec


def test_statement_rebinds_through_object_setattr():
    # a tracer wraps build and hypotheses this way
    def build(params, variant):
        return RationalIdentity(Fraction(1), Fraction(1))

    stmt = Statement("x", "a test entry", None, None, lambda: [{"n": 1}])
    object.__setattr__(stmt, "build", build)
    assert stmt.build is build
    assert stmt.params == ("n",)
