import math
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from linnikbv import arith, linnik, sieve
from linnikbv.errors import PreconditionError
from linnikbv.sieve import Params

import oracles


def test_theta0_value():
    t = linnik.theta0()
    assert t > 0
    assert 0.5 - t == math.e * math.log(2.0) / 4  # exact float identity
    assert math.floor(t * 10**4) == 289  # leading digits 0.0289


def test_sum_r_examples():
    assert linnik.sum_r_shifted_primes(2) == 4
    assert linnik.sum_r_shifted_primes(5) == 12


def test_sum_r_against_lattice_oracle():
    X = 10**4
    expected = sum(oracles.r_lattice(p - 1) for p in oracles.primes(X))
    assert linnik.sum_r_shifted_primes(X) == expected


def test_sum_r_frozen_value():
    # Frozen from the naive per-prime factorization oracle.
    assert linnik.sum_r_shifted_primes(10**5) == 25784


def test_sum_r_counts_a_prime_endpoint():
    # X = 10037 is prime with r(X - 1) = 16, so the last weight counts.
    X = 10037
    expected = sum(oracles.r_lattice(p - 1) for p in oracles.primes(X))
    assert linnik.sum_r_shifted_primes(X) == expected == 3392


def test_sum_r_frozen_value_over_two_weight_chunks():
    # 78 498 primes: the weight array is filled in two chunks.
    assert len(sieve.prime_array(10**6)) > linnik.REDUCTION_CHUNK
    # Frozen from a direct gather of the chi table at the primes.
    assert linnik.sum_r_shifted_primes(10**6) == 208236


def test_linnik_constant_single_factor():
    res = linnik.linnik_constant(1 / 3)
    assert res.prime_bound == 3
    assert res.value == math.pi * (1 - 1 / 6)


def test_linnik_constant_bound_forced():
    res = linnik.linnik_constant(1e-3)
    assert res.prime_bound >= 10**3
    assert res.tail_bound <= 1e-3


def test_linnik_constant_log_stability():
    for tol in (1e-3, 1e-4):
        v1 = linnik.linnik_constant(tol).value
        v2 = linnik.linnik_constant(tol / 10).value
        assert abs(math.log(v1) - math.log(v2)) <= 2 * tol


def test_linnik_constant_six_decimals():
    # The 1e-8 and 1e-9 truncations agree to six decimals; the rounded value
    # is frozen from the development run.
    v8 = linnik.linnik_constant(1e-8).value
    v9 = linnik.linnik_constant(1e-9).value
    assert round(v8, 6) == round(v9, 6) == 2.674032
    # Exact floats: linnik_constant multiplies per prime segment, so these
    # also pin the segment boundaries.
    assert v8 == 2.67403201741816
    assert v9 == 2.674032017144351


def test_linnik_constant_exact_floats():
    # Exact floats, pinned like the 1e-8 and 1e-9 values above.
    assert linnik.linnik_constant(1e-6).value == 2.6740320174536163
    assert linnik.linnik_constant(1e-7).value == 2.6740320175588885


def test_discrepancy_trivial_modulus():
    row = linnik.discrepancy(50, 1, 1)
    assert row.discrepancy == 0
    assert row.weighted_count == row.main_term


def _discrepancy_oracle(X, q, a):
    """Per-prime weighted count over p = a (q), p <= X, and its main term."""
    weights = {p: oracles.r_lattice(p - 1) for p in oracles.primes(X)}
    weighted = sum(w for p, w in weights.items() if p % q == a % q)
    return weighted, Fraction(sum(weights.values()), oracles.phi(q))


def test_discrepancy_oracle_rows():
    for X, q, a in ((50, 4, 1), (100, 3, 2)):
        row = linnik.discrepancy(X, q, a)
        weighted, main = _discrepancy_oracle(X, q, a)
        assert row.weighted_count == weighted
        assert row.main_term == main
        assert row.discrepancy == weighted - main
        assert abs(row.discrepancy) <= row.weighted_count + row.main_term


# 10037 is prime and r(10036) = 16, so the last index of the strided sum
# carries weight; 10061 is a prime residue above X.
EDGE_X = 10037


@pytest.mark.parametrize(
    "q, a",
    [(1, 1), (1, 10061), (4, 1), (13, 1), (52, 1), (24, 10061), (7, 10061), (10039, 10037)],
)
def test_discrepancy_strided_edges(q, a):
    assert oracles.r_lattice(EDGE_X - 1) == 16
    row = linnik.discrepancy(EDGE_X, q, a)
    weighted, main = _discrepancy_oracle(EDGE_X, q, a)
    assert (row.weighted_count, row.main_term) == (weighted, main)


def test_discrepancy_rejects_common_factor():
    with pytest.raises(PreconditionError):
        linnik.discrepancy(100, 4, 2)


def test_discrepancy_residue_reduces_mod_q():
    # The fixed residue may exceed q; only its class mod q matters.
    tall = linnik.discrepancy(10**4, 4, 7)
    reduced = linnik.discrepancy(10**4, 4, 3)
    assert tall.weighted_count == reduced.weighted_count
    assert tall.discrepancy == reduced.discrepancy


def test_discrepancy_sums_over_reduced_residues():
    # Signed discrepancies over a reduced residue system add up to minus
    # the r-weight carried by primes dividing q.
    X = 10**4
    weights = {p: oracles.r_lattice(p - 1) for p in oracles.primes(X)}
    for q in range(1, 21):
        rows = [
            linnik.discrepancy(X, q, a)
            for a in range(1, q + 1)
            if gcd(a, q) == 1
        ]
        total = sum((r.discrepancy for r in rows), Fraction(0))
        lost = sum(w for p, w in weights.items() if q % p == 0)
        assert total == -lost


def test_split_r_p2():
    params = Params(10**4, 0.0)
    assert sum(linnik.split_r_by_ranges(2, params)) == 1


def test_split_r_oracle_triples():
    params = Params(10**4, 0.0)
    for p in (13, 97):
        expected = oracles.split_chi_ranges(p, params.X, params.D)
        assert linnik.split_r_by_ranges(p, params) == expected


def test_split_r_identity_small():
    for params in (Params(10**4, 0.0), Params(10**4, 2.0), Params(10**4, 0.0, override_exponent=3.0)):
        for p in oracles.primes(3000):
            triple = linnik.split_r_by_ranges(p, params)
            assert 4 * sum(triple) == oracles.r_lattice(p - 1)


def test_split_r_preconditions():
    params = Params(100, 0.0)
    with pytest.raises(PreconditionError):
        linnik.split_r_by_ranges(101, params)
    with pytest.raises(PreconditionError):
        linnik.split_r_by_ranges(91, params)  # 7 * 13


def test_bv_sum_trivial_when_Q_is_one():
    assert linnik.bv_sum(Params(10**4, 0.0, 1)) == 0


def test_bv_sum_oracle_value():
    params = Params(10**4, 1.0, 1)
    value = linnik.bv_sum(params)
    assert value == 3396  # frozen from the per-q direct enumeration oracle
    assert value == oracles.bv_sum_direct(10**4, 1.0, 1)


@pytest.mark.parametrize("a", [1, 10061])
def test_bv_sum_strided_edges(a):
    # X prime with r(X - 1) > 0, and a residue above X.
    params = Params(EDGE_X, 2.0, a)
    assert linnik.bv_sum(params) == oracles.bv_sum_direct(EDGE_X, 2.0, a)


def test_bv_sum_equals_per_modulus_discrepancies():
    # About 1500 moduli, many sharing a phi value: the phi-grouped sum must
    # equal the sum of the per-modulus gaps exactly.
    params = Params(10**5, 3.0, 3)
    moduli = linnik._moduli(params)
    assert len({arith.euler_phi(q) for q in moduli}) < len(moduli)
    expected = sum(abs(linnik.discrepancy(10**5, q, 3).discrepancy) for q in moduli)
    assert linnik.bv_sum(params) == expected


def test_chi_divisor_sum_fits_a_byte_below_bulk_cap():
    # b = r/4 is largest at n built from primes = 1 (mod 4) alone, with
    # exponents not increasing along 5, 13, 17, 29, ...; the maximum below
    # the cap must fit the uint8 weights of bv_sum.
    cap = sieve.BULK_TABLE_LIMIT
    primes = [p for p in oracles.primes(100) if p % 4 == 1]

    def best(n, i, e_max):
        top = (1, n)
        e, m = 0, n
        while e < e_max and i < len(primes) and m * primes[i] <= cap:
            e, m = e + 1, m * primes[i]
            b, arg = best(m, i + 1, e)
            top = max(top, ((e + 1) * b, arg))
        return top

    b, n = best(1, 0, 64)
    assert b == 48 <= np.iinfo(np.uint8).max
    assert sieve.r_via_identity(n) == 4 * b


def test_decompose_degenerate_D():
    with pytest.raises(PreconditionError, match="degenerate-D"):
        linnik.decompose(Params(10**6, 0.0))


def test_decompose_oracle_quadruple():
    params = Params(10**4, 1.0, 1, override_exponent=0.0)
    result = linnik.decompose(params)
    expected = oracles.decompose_direct(10**4, 1.0, 1, 0.0)
    assert (result.S1, result.S2, result.S3, result.S4) == expected
    # Frozen from the same oracle run.
    assert (result.S1, result.S2, result.S3, result.S4) == (
        845,
        Fraction(208, 3),
        0,
        0,
    )


def test_decompose_components_nonnegative_and_lhs_consistent():
    params = Params(10**4, 1.0, 3, override_exponent=1.0)
    result = linnik.decompose(params)
    for part in (result.S1, result.S2, result.S3, result.S4):
        assert part >= 0
    assert result.lhs == linnik.bv_sum(params)
    assert result.total == result.S1 + result.S2 + result.S3 + result.S4


def test_decompose_second_oracle_point():
    # Different residue, nonintegral D, and a modulus range above 1.
    params = Params(10**4, 1.2, 5, override_exponent=1.5)
    result = linnik.decompose(params)
    expected = oracles.decompose_direct(10**4, 1.2, 5, 1.5)
    assert (result.S1, result.S2, result.S3, result.S4) == expected


def test_decompose_holds_one_window_at_a_time():
    X = 1 << 20
    params = Params(X, 1.0, 1, override_exponent=2)
    # Cached tables are built first, so only decompose's own arrays count.
    sieve.chi_divisor_sums(X)
    sieve.prime_array(X)
    tracemalloc.start()
    try:
        linnik.decompose(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window_bytes = 4 * (X + 1)  # one int32 window over 0..X
    assert peak < 2 * window_bytes
