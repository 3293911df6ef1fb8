import math
import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from linnikbv import arith
from linnikbv.arith import Residue
from linnikbv.errors import PreconditionError

import oracles


def test_chi_examples():
    assert arith.chi(1) == 1
    assert arith.chi(4) == 0
    assert arith.chi(7) == -1


def test_chi_matches_oracle_small():
    for n in range(1, 1000):
        assert arith.chi(n) == oracles.chi(n)


def test_chi_completely_multiplicative_exhaustive():
    # chi(mn) == chi(m)chi(n) for all m, n <= 10^4, vectorized in chunks.
    N = 10**4
    vals = np.zeros(N + 1, dtype=np.int8)
    idx = np.arange(N + 1)
    vals[idx % 4 == 1] = 1
    vals[idx % 4 == 3] = -1
    lookup = np.array([0, 1, 0, -1], dtype=np.int8)  # chi by residue mod 4
    res = (idx[1:] % 4).astype(np.int8)
    c = vals[1:]
    for start in range(0, N, 500):
        block = slice(start, start + 500)
        prod_res = (res[block, None].astype(np.int16) * res[None, :]) % 4
        assert np.array_equal(lookup[prod_res], c[block, None] * c[None, :])


def test_chi_partial_sums_bounded():
    N = 10**5
    vals = np.zeros(N, dtype=np.int32)
    idx = np.arange(1, N + 1)
    vals[idx % 4 == 1] = 1
    vals[idx % 4 == 3] = -1
    partial = np.cumsum(vals)
    assert set(np.unique(partial)) <= {0, 1}


def test_euler_phi_examples():
    assert arith.euler_phi(1) == 1
    assert arith.euler_phi(13) == 12
    assert arith.euler_phi(12) == 4


def test_euler_phi_matches_gcd_count():
    for n in range(1, 400):
        assert arith.euler_phi(n) == oracles.phi(n)


def test_euler_phi_multiplicative_sampled():
    rng = random.Random(20240608)
    checked = 0
    while checked < 10**4:
        m = rng.randrange(1, 3000)
        n = rng.randrange(1, 3000)
        if gcd(m, n) == 1:
            assert arith.euler_phi(m * n) == arith.euler_phi(m) * arith.euler_phi(n)
            checked += 1


def test_moebius_examples():
    assert arith.moebius(1) == 1
    assert arith.moebius(4) == 0
    assert arith.moebius(6) == 1


def test_moebius_matches_oracle():
    for n in range(1, 500):
        assert arith.moebius(n) == oracles.mobius(n)


def test_crt_examples():
    assert arith.crt_l(Residue(1, 3), Residue(1, 4)) == Residue(1, 12)
    assert arith.crt_l(Residue(2, 3), Residue(3, 4)) == Residue(11, 12)
    assert arith.crt_l(Residue(1, 2), Residue(2, 4)) is None
    assert arith.crt_l(Residue(0, 1), Residue(0, 1)) == Residue(0, 1)


def test_crt_exhaustive_vs_scan():
    for d in range(1, 31):
        for q in range(1, 31):
            for v1 in range(d):
                for v2 in range(q):
                    got = arith.crt_l(Residue(v1, d), Residue(v2, q))
                    expected = oracles.crt_all_solutions(v1, d, v2, q)
                    if got is None:
                        assert expected == []
                    else:
                        assert expected == [got.value]
                        assert got.modulus == d * q // gcd(d, q)


def test_crt_coprime_result_is_coprime():
    rng = random.Random(7)
    for _ in range(2000):
        d = rng.randrange(1, 100)
        q = rng.randrange(1, 100)
        v1 = rng.randrange(d)
        v2 = rng.randrange(q)
        if gcd(v1, d) == 1 and gcd(v2, q) == 1:
            got = arith.crt_l(Residue(v1, d), Residue(v2, q))
            if got is not None:
                assert gcd(got.value, got.modulus) == 1


def test_omega_examples():
    assert arith.omega_big(1) == 0
    assert arith.omega_big(13) == 1
    assert arith.omega_big(12) == 3


def test_omega_additive():
    rng = random.Random(11)
    for _ in range(500):
        m = rng.randrange(1, 5000)
        n = rng.randrange(1, 5000)
        assert arith.omega_big(m * n) == arith.omega_big(m) + arith.omega_big(n)


def test_sigma_minus1_examples():
    assert arith.sigma_minus1(1) == 1
    assert arith.sigma_minus1(6) == 2
    assert arith.sigma_minus1(6, 2) == Fraction(1, 2)


def _sigma_sqrt(n):
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d * d != n:
                total += n // d
    return total


def test_sigma_minus1_is_sigma_over_n():
    for n in range(1, 10**4 + 1):
        assert arith.sigma_minus1(n) == Fraction(_sigma_sqrt(n), n)


def _sequential_sum(values, weights=None):
    """The per-term Fraction sum that reciprocal_sum replaces."""
    weights = [1] * len(values) if weights is None else weights
    return sum((Fraction(w, v) for v, w in zip(values, weights)), Fraction(0))


@pytest.mark.parametrize("X", [1, 2, 10, 100, 1000, 10**4])
def test_reciprocal_sum_on_the_murty_grid(X):
    phi = oracles.totient_table(X)[1:]
    assert arith.reciprocal_sum(phi) == _sequential_sum(phi.tolist())


@pytest.mark.parametrize("y", [100, 1000, 10**4, 80004])
@pytest.mark.parametrize("q", [1, 4, 7])
def test_reciprocal_sum_on_the_hooley13q_grid(y, q):
    threshold = 1.25 * math.log(math.log(y)) - 1.0
    ns = np.arange(q, y + 1, q)
    ns = ns[oracles.omega_table(y)[ns] > threshold]
    assert arith.reciprocal_sum(ns) == _sequential_sum(ns.tolist())


def test_reciprocal_sum_with_repeats_and_weights():
    rng = random.Random(5)
    values = [rng.choice([1, 2, 3, 6, 97, 2**24 - 3, 2**24]) for _ in range(500)]
    weights = [rng.randrange(-10**12, 10**12) for _ in values]
    assert arith.reciprocal_sum(np.array(values)) == _sequential_sum(values)
    assert arith.reciprocal_sum(np.array(values), weights) == _sequential_sum(values, weights)
    assert arith.reciprocal_sum(np.array([6, 6, 3])) == Fraction(2, 3)


def test_reciprocal_sum_of_nothing_is_zero():
    empty = np.array([], dtype=np.int64)
    assert arith.reciprocal_sum(empty) == 0
    assert arith.reciprocal_sum(empty, []) == 0
    assert isinstance(arith.reciprocal_sum(empty), Fraction)


def test_tau_trunc_examples():
    assert arith.tau_trunc(1, 10) == 1
    assert arith.tau_trunc(13, 1) == 1
    assert arith.tau_trunc(12, 3) == 3


def test_tau_trunc_real_threshold():
    assert arith.tau_trunc(12, 3.5) == 3
    assert arith.tau_trunc(12, 4.0) == 4


def test_tau_k_examples():
    assert arith.tau_k(1, 4) == 1
    assert arith.tau_k(13, 2) == 2
    assert arith.tau_k(6, 2) == 4


def test_tau_k_matches_tuple_recursion():
    for n in range(1, 61):
        for k in range(1, 5):
            assert arith.tau_k(n, k) == oracles.tau_tuples(n, k)


def test_tau_2_is_divisor_count():
    for n in range(1, 10**4 + 1):
        assert arith.tau_k(n, 2) == len(arith.divisors(n))


def test_r_envelope_examples():
    assert arith.r_envelope(1, 1, 1, 1) == math.log(2.0)
    assert arith.r_envelope(1, 2, 1, 1) == math.log(2.0) / 2
    assert arith.r_envelope(6, 1, 2, 3) == pytest.approx(math.log(6.0), rel=1e-13)


def test_preconditions_rejected():
    for fn in (arith.chi, arith.euler_phi, arith.moebius, arith.omega_big):
        with pytest.raises(PreconditionError):
            fn(0)
    with pytest.raises(PreconditionError):
        arith.tau_k(5, 0)
    with pytest.raises(PreconditionError):
        arith.crt_l(Residue(5, 3), Residue(0, 1))
