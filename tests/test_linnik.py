import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from linnikbv import arith, lemmas, linnik, sieve
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


def test_sum_r_frozen_value_at_a_million():
    # Frozen from a direct gather of the chi table at the primes.
    assert linnik.sum_r_shifted_primes(10**6) == 208236


@pytest.mark.parametrize("X", [2, 3, 4, 5, 16, 17])
def test_sum_r_small_X_against_lattice_oracle(X):
    # X = 2 is p = 2 alone, read at b(1); even X leaves out entry X/2 (p = X + 1).
    expected = sum(oracles.r_lattice(p - 1) for p in oracles.primes(X))
    assert linnik.sum_r_shifted_primes(X) == expected


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


def test_linnik_constant_holds_one_bool_mask_per_segment():
    # The primes are read off each segment's odd mask (SEGMENT_LENGTH / 2
    # bytes) REDUCTION_CHUNK entries at a time: a few int64 and float64
    # chunk temporaries of 128 KiB and the sieve's small lists fit in
    # 1 MiB.  The int64 primes of the largest segment below 10^8 alone are
    # 2.3 MB, and a mask held while the next is struck adds 2 MiB.
    bound = sieve.SEGMENT_LENGTH // 2 + (1 << 20)
    assert oracles.peak_bytes(linnik.linnik_constant, 1e-8) < bound


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
    with pytest.raises(PreconditionError):
        linnik.discrepancies(100, 2, [1, 3, 4])


def test_discrepancies_match_one_modulus_at_a_time():
    # One pass over the primes serves every modulus: the rows equal the
    # one-modulus calls, in the order of the moduli, repeats included.
    moduli = [52, 1, 13, 4, 24, 7, 13, 10039]
    rows = linnik.discrepancies(EDGE_X, 10061, moduli)
    assert rows == [linnik.discrepancy(EDGE_X, q, 10061) for q in moduli]
    assert linnik.discrepancies(EDGE_X, 1, []) == []


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
    phis = linnik._totients(moduli).tolist()
    assert phis == [arith.euler_phi(q) for q in moduli]
    assert len(set(phis)) < len(moduli)
    expected = sum(abs(row.discrepancy) for row in linnik.discrepancies(10**5, 3, moduli))
    assert linnik.bv_sum(params) == expected


def test_chi_divisor_sum_fits_a_byte_below_the_stream_limit():
    # b = r/4 is largest at n built from primes = 1 (mod 4) alone, with
    # exponents not increasing along 5, 13, 17, 29, ...; the maximum over
    # the m = (p - 1)/2 < 2^29 of every p <= 2^30 must fit the uint8 windows
    # of bv_sum, which are summed mod 256.
    cap = 1 << 29
    primes = [p for p in oracles.primes(100) if p % 4 == 1]

    def best(n, i, e_max):
        top = (1, n)
        e, m = 0, n
        while e < e_max and i < len(primes) and m * primes[i] < cap:
            e, m = e + 1, m * primes[i]
            b, arg = best(m, i + 1, e)
            top = max(top, ((e + 1) * b, arg))
        return top

    b, n = best(1, 0, 64)
    assert b == 96 <= np.iinfo(np.uint8).max
    assert sieve.r_via_identity(n) == 4 * b
    assert sieve.r_via_identity(243061325) == 4 * 96  # 5^2 * 13 * 17 * 29 * 37 * 41


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


@pytest.mark.parametrize(
    "X, A, a, exponent, windows",
    [
        # D < X/D: the low, mid and high ranges partition [1, X].
        (10**4, 1.0, 3, 1.0, 3),
        (10**4, 2.0, 10007, 1.5, 3),
        (10**5, 1.5, 4, 2.0, 3),
        # D = X/D = 100 and D > X/D: the lhs reads the range (1, X) itself.
        (10**4, 1.0, 1, 0.0, 4),
        (10**4, 1.0, 3, -1.0, 4),
    ],
)
def test_decompose_lhs_equals_bv_sum(monkeypatch, X, A, a, exponent, windows):
    read = []

    def sums_at_primes(X, a, moduli, ranges, *rest):
        read.append(len(ranges))
        return linnik_sums_at_primes(X, a, moduli, ranges, *rest)

    linnik_sums_at_primes = linnik.sums_at_primes
    monkeypatch.setattr(linnik, "sums_at_primes", sums_at_primes)
    params = Params(X, A, a, override_exponent=exponent)
    assert linnik.decompose(params).lhs == linnik.bv_sum(params)
    assert read == [windows, 1]


@pytest.mark.parametrize(
    "X, A, a, exponent",
    [
        # Different residue, nonintegral D, and a modulus range above 1.
        (10**4, 1.2, 5, 1.5),
        # About 85 moduli, a residue above X, so a % q != a.
        (10**4, 2.0, 10007, 1.5),
        # An even residue: only odd moduli, and a % q != a at q = 1 and 3.
        (10**4, 1.5, 4, 1.0),
    ],
)
def test_decompose_second_oracle_point(X, A, a, exponent):
    params = Params(X, A, a, override_exponent=exponent)
    result = linnik.decompose(params)
    expected = oracles.decompose_direct(X, A, a, exponent)
    assert (result.S1, result.S2, result.S3, result.S4) == expected


@pytest.mark.parametrize("X", [65537, 65538, 3 * 2**16 + 17, 1_000_003])
def test_prime_weights_read_under_the_mask_match_full_table(X):
    # 65537 is prime and one past a kernel segment; at 65538 the last block
    # ends at m = (X - 1) // 2, before p = X + 1.
    full = oracles.chi_divisor_sums(X)
    primes = sieve.prime_array(X)
    (got,) = linnik.sums_at_primes(X, 1, [1, 4], [(1, X)], np.uint8)
    assert got.total == int(full[primes - 1].sum())
    assert got.classes == [got.total, int(full[primes[primes % 4 == 1] - 1].sum())]
    assert linnik.sum_r_shifted_primes(X) == 4 * got.total


# The stream holds one window at a time, struck in place: at X = 2^24 a
# block is shifted_block_length(2^24) = 2^20 m, so a uint8 window of 1 MiB
# or an int16 window of 2 MiB, far below the X/2 = 8 MiB of one whole-range
# uint8 table over m.
BIG_X = 1 << 24
BLOCK = sieve.shifted_block_length(BIG_X)


def test_prime_weights_hold_a_byte_chi_table():
    # One uint8 window, 1 MiB, and the sieve's and the kernel's small
    # working arrays; a mask beside it, or a window kept alive while the
    # next is built, adds 1 MiB.
    assert BLOCK == 1 << 20
    assert oracles.peak_bytes(linnik.bv_sum, Params(BIG_X, 1.0, 1)) < 2 * BLOCK


def test_decompose_holds_one_window_at_a_time():
    # One int16 window, 2 MiB; a mask beside it adds 1 MiB, and a second
    # window alive at once 2 MiB.
    params = Params(BIG_X, 1.0, 1, override_exponent=2)
    assert oracles.peak_bytes(linnik.decompose, params) < 3 * BLOCK


def test_sum_r_builds_no_array_over_the_range():
    # One uint8 window, 1 MiB; a mask beside it adds 1 MiB, and a uint8
    # weight array over 0..X alone would be 16 MiB.
    assert oracles.peak_bytes(linnik.sum_r_shifted_primes, BIG_X) < 2 * BLOCK


def test_discrepancy_builds_no_array_over_the_range():
    # The class sum and the total come from the same window, as for
    # sum_r_shifted_primes.
    assert oracles.peak_bytes(linnik.discrepancy, BIG_X, 3, 1) < 2 * BLOCK


@pytest.mark.parametrize("q, a", [(1, 1), (3, 1), (4, 3), (97, 5), (200003, 17)])
def test_discrepancy_matches_the_full_table_at_the_primes(q, a):
    # 10^6 + 3 is prime; 200003 is a modulus past half of X.
    X = 1_000_003
    primes = sieve.prime_array(X)
    weights = oracles.chi_divisor_sums(X)[primes - 1]
    row = linnik.discrepancy(X, q, a)
    assert row.weighted_count == 4 * int(weights[primes % q == a % q].sum())
    assert row.main_term == Fraction(4 * int(weights.sum()), oracles.phi(q))


@pytest.mark.parametrize("X", [65537, 65538, 3 * 2**16 + 17, 1_000_003])
def test_half_range_windows_masked_match_full_windows(X):
    # Windows over m = (p - 1)/2 cut at D and X/D, against the full windows
    # over 0..X read at p - 1.  D < sqrt(X) < X/D keeps all three nonempty.
    D = 20.3
    primes = sieve.prime_array(X)
    assert primes[:2].tolist() == [2, 3]
    first, last = sieve.open_range(D, X / D)
    ranges = [(1, first - 1), (first, last), (last + 1, X)]
    got = [[] for _ in ranges]
    for i, (_, w) in enumerate(sieve.chi_range_sums(X, ranges)):
        assert w.dtype == np.int16
        got[i % 3].append(w.copy())
    for (lo, hi), parts, want in zip(ranges, got, oracles.chi_range_sums(X, D)):
        col = np.concatenate(parts)
        at_primes = want[primes - 1]
        assert at_primes.any()
        assert int(lo <= 1 <= hi) == at_primes[0]  # p = 2 reads m = 1
        assert np.array_equal(col[(primes[1:] - 1) // 2], at_primes[1:])
        assert np.count_nonzero(col) == np.count_nonzero(at_primes[1:])  # 0 off the primes


@pytest.mark.parametrize("X, length", [(2003, 1), (2003, 7), (10**4 + 1, 64), (10**4 + 1, 1000)])
def test_streamed_sums_do_not_depend_on_the_block_length(monkeypatch, X, length):
    def run():
        params = Params(X, 2.0, 3, override_exponent=1.0)
        dec = linnik.decompose(params)
        return (
            linnik.sum_r_shifted_primes(X),
            [vars(linnik.discrepancy(X, q, a)) for q, a in P2_CLASSES],
            linnik.bv_sum(Params(X, 2.0, 2)),
            (dec.S1, dec.S2, dec.S3, dec.S4, dec.lhs),
            [lemmas.hooley1_lhs(X, omega) for omega in (0.5, 1.0, 5.0)],
        )

    whole = run()  # one block
    monkeypatch.setattr(sieve, "shifted_block_length", lambda X: length)
    assert run() == whole


def test_sum_r_matches_the_lattice_count_at_2_26():
    # The fourth route: lattice points with x^2 + y^2 + 1 prime, read off a
    # bitmap of the odd primes alone.
    for X in (2, 16, 17, 10**4):
        assert oracles.shifted_prime_lattice_count(X) == linnik.sum_r_shifted_primes(X)
    X = 1 << 26
    assert linnik.sum_r_shifted_primes(X) == oracles.shifted_prime_lattice_count(X)


# p = 2 is in the class 2 mod every odd q; an even q takes stride q/2 over
# m = (p - 1)/2, and q = 1, 2 take stride 1.
P2_CLASSES = [(1, 2), (3, 2), (5, 2), (9, 2), (2, 1), (4, 3), (6, 5), (52, 1), (52, 27)]


@pytest.mark.parametrize("X", [1000, 1001, 10**4, 10**4 + 1])
@pytest.mark.parametrize("q, a", P2_CLASSES)
def test_discrepancy_class_starts_and_p2(X, q, a):
    row = linnik.discrepancy(X, q, a)
    assert (row.weighted_count, row.main_term) == _discrepancy_oracle(X, q, a)


@pytest.mark.parametrize("X", [10**4, 10**4 + 1])
@pytest.mark.parametrize("a", [1, 2])
def test_bv_sum_class_starts_and_p2(X, a):
    # Q = (log X)^2 is about 85: q = 1, 2 and strides q/2 up to 42 at a = 1,
    # and every odd q holding p = 2 at a = 2.
    assert linnik.bv_sum(Params(X, 2.0, a)) == oracles.bv_sum_direct(X, 2.0, a)


@pytest.mark.parametrize("X", [10**4, 10**4 + 1])
def test_decompose_at_a_2_holds_p2_in_every_class(X):
    result = linnik.decompose(Params(X, 2.0, 2, override_exponent=1.0))
    expected = oracles.decompose_direct(X, 2.0, 2, 1.0)
    assert (result.S1, result.S2, result.S3, result.S4) == expected
