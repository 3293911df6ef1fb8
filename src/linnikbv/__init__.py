"""Desk-scale toolkit for shifted primes p = x^2 + y^2 + 1.

Computes the two-squares function, the enveloping sieve, r-weighted prime
counts in progressions and their averaged discrepancy over moduli, the
four-way divisor-range decomposition of that average, and exact empirical
checkers for the supporting lemmas.
"""

import os

# numpy's OpenBLAS starts a thread pool that spins at import; nothing here
# calls BLAS, so one thread saves that CPU.  A value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ConfigurationError, PreconditionError
from .sieve import (
    Params,
    f_enveloping,
    h_indicator,
    primes_up_to,
    r_two_squares,
    r_via_identity,
)
from .linnik import (
    DecompositionResult,
    DiscrepancyRow,
    LinnikConstant,
    bv_sum,
    decompose,
    discrepancy,
    linnik_constant,
    sum_r_shifted_primes,
    theta0,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DecompositionResult",
    "DiscrepancyRow",
    "LinnikConstant",
    "Params",
    "PreconditionError",
    "bv_sum",
    "decompose",
    "discrepancy",
    "f_enveloping",
    "h_indicator",
    "linnik_constant",
    "primes_up_to",
    "r_two_squares",
    "r_via_identity",
    "sum_r_shifted_primes",
    "theta0",
]
