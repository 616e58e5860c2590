"""Exact verification of q-congruences over Z[q].

The package builds polynomial and rational q-expressions with integer
arithmetic only, factors moduli into cyclotomic powers, and decides
congruences by comparing cyclotomic-adic valuations of exact differences.
"""

__version__ = "0.1.0"

from .congruence import (
    CanonicalRep,
    FactorCheck,
    NotInvertibleError,
    Status,
    Verdict,
    check_congruence,
    check_int_congruence,
    reduce_mod,
)
from .cyclotomic import (
    CycloModulus,
    cyclotomic,
    factor_q_integer,
    is_prime,
    phi_valuation,
)
from .euler import (
    euler_numbers,
    euler_polynomial,
    euler_polynomial_value,
)
from .exact import (
    BothZeroError,
    NotDivisibleError,
    Poly,
    QExpr,
    gcd_rational,
)
from .lehmer import lehmer_euler_numbers
from .qcombinatorics import (
    q_binomial,
    q_fermat_quotient,
    q_harmonic,
    q_integer,
    q_pochhammer,
)
from .statements import (
    REGISTRY,
    HypothesisViolation,
    Statement,
    VerdictRecord,
    m_star,
    run_cell,
    verify,
)

__all__ = [
    "BothZeroError",
    "CanonicalRep",
    "CycloModulus",
    "FactorCheck",
    "HypothesisViolation",
    "NotDivisibleError",
    "NotInvertibleError",
    "Poly",
    "QExpr",
    "REGISTRY",
    "Statement",
    "Status",
    "Verdict",
    "VerdictRecord",
    "check_congruence",
    "check_int_congruence",
    "cyclotomic",
    "euler_numbers",
    "euler_polynomial",
    "euler_polynomial_value",
    "factor_q_integer",
    "gcd_rational",
    "is_prime",
    "lehmer_euler_numbers",
    "m_star",
    "phi_valuation",
    "q_binomial",
    "q_fermat_quotient",
    "q_harmonic",
    "q_integer",
    "q_pochhammer",
    "reduce_mod",
    "run_cell",
    "verify",
]
