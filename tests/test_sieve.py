import math
from bisect import bisect_left, bisect_right
from math import isqrt

import numpy as np
import pytest

from linnikbv import sieve
from linnikbv.errors import ConfigurationError, PreconditionError
from linnikbv.sieve import FactorTable, Params

import oracles


def bytearray_sieve(limit):
    """Independent one-shot sieve used as the prime oracle."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [n for n, f in enumerate(flags) if f]


def test_primes_examples():
    assert sieve.primes_up_to(10) == [2, 3, 5, 7]
    assert sieve.primes_up_to(1) == []
    assert len(sieve.primes_up_to(10**6)) == 78498


def test_primes_match_oracle():
    assert sieve.primes_up_to(10**4) == bytearray_sieve(10**4)
    assert sieve.primes_up_to(10**6) == bytearray_sieve(10**6)


def test_primes_segmentation_irrelevant():
    expected = sieve.primes_up_to(10**4)
    for seg in (64, 1000, 10**6):
        assert sieve.primes_up_to(10**4, segment_length=seg) == expected


def _expected_segments(limit, length):
    """bytearray_sieve split as iter_prime_segments splits it: [2, sqrt(limit)], then steps of length."""
    if limit < 2:
        return []
    primes = bytearray_sieve(limit)
    root = isqrt(limit)
    segments = [primes[: bisect_right(primes, root)]]
    for lo in range(root + 1, limit + 1, length):
        seg = primes[bisect_left(primes, lo) : bisect_left(primes, lo + length)]
        if seg:
            segments.append(seg)
    return segments


def _assert_segment_shape(limit, length=None):
    got = list(sieve.iter_prime_segments(limit, length))
    expected = _expected_segments(limit, length or sieve.DEFAULT_SEGMENT_LENGTH)
    assert len(got) == len(expected), (limit, length)
    for arr, seg in zip(got, expected):
        assert arr.dtype == np.int64
        assert arr.tolist() == seg, (limit, length)


def test_prime_segment_shape_pinned():
    # linnik_constant multiplies per segment, so its float bytes depend on
    # exactly these boundaries.
    for limit in range(401):
        for length in (1, 2, 7, 64):
            _assert_segment_shape(limit, length)
    for p in (2, 3, 5, 31, 97):
        for limit in (p * p - 1, p * p, p * p + 1):
            for length in (7, None):
                _assert_segment_shape(limit, length)
    _assert_segment_shape(10**6 + 7)


def test_zero_segment_length_rejected():
    with pytest.raises(ConfigurationError):
        sieve.primes_up_to(100, segment_length=0)


def test_factor_table_examples():
    assert sieve.factor_table(2, 10).spf.tolist() == [2, 3, 2, 5, 2, 7, 2, 3]
    assert sieve.factor_table(1, 2).spf.tolist() == [1]
    assert sieve.factor_table(97, 98).spf.tolist() == [97]


def test_factor_table_matches_trial_division():
    table = sieve.factor_table(1, 3000)
    for n in range(1, 3000):
        assert int(table.spf[n - 1]) == oracles.spf(n)


def test_factor_table_budget_enforced():
    with pytest.raises(ConfigurationError):
        sieve.factor_table(1, 1000, segment_length=100)


def test_factor_table_segment_consistency():
    N = 10**5
    whole = sieve.factor_table(2, N)
    for k in (17, 1000, 65536):
        left = sieve.factor_table(2, k)
        right = sieve.factor_table(k, N)
        assert np.array_equal(np.concatenate([left.spf, right.spf]), whole.spf)


def test_factorize_examples():
    assert sieve.factorize(12) == [(2, 2), (3, 1)]
    assert sieve.factorize(1) == []
    assert sieve.factorize(97) == [(97, 1)]


def test_factorize_with_table_and_fallback():
    table = sieve.factor_table(50, 100)
    assert sieve.factorize(75, table) == [(3, 1), (5, 2)]
    assert sieve.factorize(64, table) == [(2, 6)]
    with pytest.raises(PreconditionError):
        sieve.factorize(75, table, fallback=False)


def test_factorize_matches_oracle():
    table = sieve.factor_table(1, 2001)
    for n in range(1, 2001):
        assert sieve.factorize(n, table) == oracles.factorize(n)


def test_factorization_invariants_sampled():
    import random

    rng = random.Random(99)
    table = sieve.factor_table(1, 10**5)
    for _ in range(2000):
        n = rng.randrange(1, 10**5)
        fac = sieve.factorize(n, table)
        primes = [p for p, _ in fac]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(e >= 1 for _, e in fac)
        product = 1
        for p, e in fac:
            product *= p**e
        assert product == n


def test_primes_equal_single_factor_fixed_points():
    N = 10**5
    table = sieve.factor_table(1, N + 1)
    from_factorization = [
        n for n in range(2, N + 1) if sieve.factorize(n, table) == [(n, 1)]
    ]
    assert from_factorization == sieve.primes_up_to(N)


def test_r_two_squares_examples():
    assert sieve.r_two_squares(1) == 4
    assert sieve.r_two_squares(3) == 0
    assert sieve.r_two_squares(25) == 12


def test_r_via_identity_examples():
    assert sieve.r_via_identity(2) == 4
    assert sieve.r_via_identity(9) == 4
    assert sieve.r_via_identity(1) == 4


def test_r_triple_agreement_small():
    table = sieve.factor_table(1, 2001)
    lattice = oracles.r_lattice_bulk(2000)
    for n in range(1, 2001):
        assert sieve.r_two_squares(n, table) == sieve.r_via_identity(n) == lattice[n]


def test_gauss_circle_small():
    N = 500
    table = sieve.factor_table(1, N + 1)
    total = sum(sieve.r_two_squares(n, table) for n in range(1, N + 1))
    assert total == oracles.disk_lattice_count(N)


def test_params_derived_quantities():
    p = Params(10**4, 1.0, 1)
    log_x = math.log(10**4)
    assert p.Q == log_x
    assert p.D == math.sqrt(10**4) / log_x**15.0
    assert p.Y == (10**4) ** (1.0 / math.log(log_x) ** 2)
    assert p.primes_y == (2, 3, 5)
    assert Params(10**6, 0.0).primes_y == (2, 3, 5, 7)


def test_params_override_exponent():
    p = Params(10**4, 1.0, 1, override_exponent=0.0)
    assert p.D == 100.0
    assert p.exponent == 0.0


def test_params_preconditions():
    with pytest.raises(PreconditionError):
        Params(15, 1.0)
    with pytest.raises(PreconditionError):
        Params(100, -0.5)
    with pytest.raises(PreconditionError):
        Params(100, 1.0, 0)


def test_h_indicator_examples():
    big = Params(10**6, 0.0)  # Y ~ 7.4, prime support {2, 3, 5, 7}
    assert sieve.h_indicator(1, big) == 1
    assert sieve.h_indicator(14, big) == 0
    assert sieve.h_indicator(11, big) == 1


def test_f_enveloping_examples():
    big = Params(10**6, 0.0)
    assert sieve.f_enveloping(5, big) == 1
    assert sieve.f_enveloping(11, big) == 1
    assert sieve.f_enveloping(15, big) == 0


def test_f_enveloping_matches_oracle():
    params = Params(10**4, 0.0)
    support = set(params.primes_y)
    for n in range(1, 500):
        assert sieve.f_enveloping(n, params) == oracles.f_value(n, support)


def test_f_enveloping_is_majorant_small():
    params = Params(2 * 10**4, 1.0)
    prime_set = set(sieve.primes_up_to(2 * 10**4))
    for n in range(1, 2 * 10**4 + 1):
        f = sieve.f_enveloping(n, params)
        assert f in (0, 1)
        if n in prime_set:
            assert f == 1


def test_chi_divisor_sums_match_identity():
    b = sieve.chi_divisor_sums(2000)
    for n in range(1, 2001):
        assert 4 * int(b[n]) == sieve.r_via_identity(n)


def test_chi_range_sums_match_split():
    X, D = 2000, 9.7
    low, mid, high = sieve.chi_range_sums(X, D)
    for n in range(1, X + 1, 37):
        l = m = h = 0
        for d in oracles.divisors(n):
            c = oracles.chi(d)
            if d <= D:
                l += c
            if D < d < X / D:
                m += c
            if d >= X / D:
                h += c
        assert (int(low[n]), int(mid[n]), int(high[n])) == (l, m, h)


def _window_cases(limit):
    """Window ends at 1, around sqrt(limit), at or past limit, and empty."""
    root = isqrt(limit)
    ends = sorted({0, 1, 2, 7, root - 1, root, root + 1, root + 2, limit // 3,
                   limit - 1, limit, limit + 5})
    return [(first, last) for first in ends for last in ends]


@pytest.mark.parametrize("limit", [0, 1, 9, 100, 101, 1000, 4099])
def test_chi_divisor_window_matches_oracle(limit):
    for first, last in _window_cases(limit):
        got = sieve._chi_divisor_window(limit, first, last)
        assert got.dtype == np.int32
        assert np.array_equal(got, oracles.chi_divisor_window(limit, first, last)), (first, last)


def test_chi_divisor_window_spans_segments():
    # More odd d above sqrt(limit) than one scatter segment holds.
    limit = 3 * 2**16 + 17
    for first, last in [(1, limit), (isqrt(limit) + 1, limit), (600, 70000), (70001, 131073)]:
        got = sieve._chi_divisor_window(limit, first, last)
        assert np.array_equal(got, oracles.chi_divisor_window(limit, first, last)), (first, last)


def test_chi_divisor_window_checks_bulk_cap():
    with pytest.raises(ConfigurationError, match="bulk cap"):
        sieve._chi_divisor_window(sieve.BULK_TABLE_LIMIT + 1, 1, 10)


@pytest.mark.parametrize(
    "limit, D",
    [
        (10**4, 1),
        (10**4, 9.7),
        (10**4, 100),  # D = X/D
        (10**4, 300),  # D > X/D: low and high overlap, mid is empty
        (10**4, 99.5),
        (10**4, 10**6),
        (3 * 2**16 + 17, 20.3),
    ],
)
def test_chi_range_sums_match_oracle(limit, D):
    got = sieve.chi_range_sums(limit, D)
    for arr, want in zip(got, oracles.chi_range_sums(limit, D)):
        assert arr.dtype == np.int32
        assert np.array_equal(arr, want)


def test_totient_and_omega_tables():
    phi = sieve.totient_table(2000)
    om = sieve.omega_table(2000)
    for n in range(1, 2001):
        assert int(om[n]) == oracles.omega(n)
    for n in range(1, 301):
        assert int(phi[n]) == oracles.phi(n)


@pytest.mark.parametrize(
    "limit",
    [sieve.TABLE_SEGMENT_LENGTH - 1, sieve.TABLE_SEGMENT_LENGTH,
     sieve.TABLE_SEGMENT_LENGTH + 1, 3 * sieve.TABLE_SEGMENT_LENGTH + 17],
)
@pytest.mark.parametrize("name", ["chi_divisor_sums", "totient_table", "omega_table"])
def test_prime_power_tables_match_loop_oracles(name, limit):
    table = getattr(sieve, name)(limit)
    expected = getattr(oracles, name)(limit)
    assert table.dtype == expected.dtype
    assert np.array_equal(table, expected)
    assert not table.flags.writeable


def test_concurrent_table_construction_is_consistent():
    from concurrent.futures import ThreadPoolExecutor

    bounds = [(1 + 5000 * i, 1 + 5000 * (i + 1)) for i in range(8)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(lambda b: sieve.factor_table(*b), bounds))
    whole = sieve.factor_table(1, bounds[-1][1])
    joined = np.concatenate([t.spf for t in tables])
    assert np.array_equal(joined, whole.spf)
