import math
from bisect import bisect_left, bisect_right
from math import isqrt

import numpy as np
import pytest

from linnikbv import arith, sieve
from linnikbv.errors import ConfigurationError, PreconditionError
from linnikbv.sieve import Params

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


def test_primes_segmentation_irrelevant(monkeypatch):
    expected = sieve.primes_up_to(10**4)
    for seg in (64, 1000, 10**6):
        monkeypatch.setattr(sieve, "SEGMENT_LENGTH", seg)
        assert sieve.primes_up_to(10**4) == expected


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


def _assert_segment_shape(limit):
    got = list(sieve.iter_prime_segments(limit))
    expected = _expected_segments(limit, sieve.SEGMENT_LENGTH)
    assert len(got) == len(expected), limit
    for arr, seg in zip(got, expected):
        assert arr.dtype == np.int64
        assert arr.tolist() == seg, limit


def _consume_and_drop(limit):
    for seg in sieve.iter_prime_segments(limit):
        del seg


def test_prime_segments_are_released_as_they_are_consumed():
    # A consumer that drops each segment holds one: the bool array of odd
    # numbers being struck (SEGMENT_LENGTH / 2 bytes) beside the int64
    # primes read off it, the first segment past sqrt(2^25) being the
    # largest.  A generator that keeps the last segment alive while it
    # sieves the next adds a second int64 segment, 2.3 MB.
    limit = 1 << 25
    largest = max(seg.nbytes for seg in sieve.iter_prime_segments(limit))
    bound = sieve.SEGMENT_LENGTH // 2 + largest + (1 << 18)
    assert oracles.peak_bytes(_consume_and_drop, limit) < bound


def test_prime_segment_shape_pinned(monkeypatch):
    # linnik_constant multiplies per segment, so its float bytes depend on
    # exactly these boundaries.
    assert sieve.SEGMENT_LENGTH == 1 << 22
    _assert_segment_shape(10**6 + 7)
    squares = [n for p in (2, 3, 5, 31, 97) for n in (p * p - 1, p * p, p * p + 1)]
    for limit in squares:
        _assert_segment_shape(limit)
    for length in (1, 2, 7, 64):
        monkeypatch.setattr(sieve, "SEGMENT_LENGTH", length)
        for limit in range(401):
            _assert_segment_shape(limit)
        if length == 7:
            for limit in squares:
                _assert_segment_shape(limit)


def _stream(X, ranges, dtype=np.int16):
    """chi_range_sums's windows joined per range over m = 0..(X - 1) // 2."""
    got = [[] for _ in ranges]
    for i, (m0, w) in enumerate(sieve.chi_range_sums(X, ranges, dtype)):
        assert m0 == sum(part.size for part in got[i % len(ranges)])
        got[i % len(ranges)].append(w.copy())
    return [np.concatenate(parts) if parts else np.zeros(0, dtype) for parts in got]


def test_odd_prime_mask_matches_is_prime(monkeypatch):
    # The window over d = 1 alone is 1 at every m >= 1, so what the striking
    # loop leaves of it is the odd-prime indicator: entry m stands for
    # 2m + 1, m = 0 (the unit 1) is off, and the last entry is the largest
    # odd number <= X.
    # The parent's limits, 2..400 and p^2 - 1, p^2, p^2 + 1 for p up to 211,
    # at every block length; p = 211 (22 261 m) only at the longer blocks.
    squares = [n for p in (23, 31, 97, 211) for n in (p * p - 1, p * p, p * p + 1)]
    for length in (None, 1, 2, 7):
        if length:
            monkeypatch.setattr(sieve, "shifted_block_length", lambda X: length)
        for X in list(range(2, 401)) + squares[: None if length in (None, 7) else -3]:
            (got,) = _stream(X, [(1, 1)])
            want = [oracles.is_prime(2 * m + 1) for m in range((X - 1) // 2 + 1)]
            assert got.tolist() == want, (X, length)


def test_factorize_examples():
    assert arith.factorize_trial(12) == [(2, 2), (3, 1)]
    assert arith.factorize_trial(1) == []
    assert arith.factorize_trial(97) == [(97, 1)]
    assert arith.factorize_trial(75) == [(3, 1), (5, 2)]
    assert arith.factorize_trial(64) == [(2, 6)]


def test_factorize_matches_oracle():
    for n in range(1, 3001):
        assert arith.factorize_trial(n) == oracles.factorize(n)


def test_factorization_invariants_sampled():
    import random

    rng = random.Random(99)
    for _ in range(2000):
        n = rng.randrange(1, 10**5)
        fac = arith.factorize_trial(n)
        primes = [p for p, _ in fac]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(e >= 1 for _, e in fac)
        product = 1
        for p, e in fac:
            product *= p**e
        assert product == n


def test_primes_equal_single_factor_fixed_points():
    N = 10**5
    from_factorization = [n for n in range(2, N + 1) if arith.factorize_trial(n) == [(n, 1)]]
    assert from_factorization == sieve.primes_up_to(N)


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int16])
def test_strike_zeroes_the_odd_composites_only(dtype):
    # The one striking loop serves the segments' bool arrays and the chi
    # windows: entry i stands for first + 2i, each odd composite goes to 0
    # and every other entry, the unit 1 included, keeps its value.
    base = np.array(oracles.primes(45), dtype=np.int64)  # enough below 47^2
    for first in (1, 3, 9, 25, 27, 121, 1001):
        values = (np.arange(500) % 5 + 1).astype(dtype)
        arr = values.copy()
        sieve._strike(arr, first, base)
        for i, v in enumerate(arr.tolist()):
            n = first + 2 * i
            assert v == (values[i] if n == 1 or oracles.is_prime(n) else 0), (first, n)


def test_divisors_of_matches_oracle():
    for n in range(1, 2001):
        assert sieve.divisors_of(n) == oracles.divisors(n)


def test_r_two_squares_examples():
    assert sieve.r_two_squares(1) == 4
    assert sieve.r_two_squares(3) == 0
    assert sieve.r_two_squares(25) == 12


def test_r_via_identity_examples():
    assert sieve.r_via_identity(2) == 4
    assert sieve.r_via_identity(9) == 4
    assert sieve.r_via_identity(1) == 4


def test_r_triple_agreement_small():
    lattice = oracles.r_lattice_bulk(2000)
    for n in range(1, 2001):
        assert sieve.r_two_squares(n) == sieve.r_via_identity(n) == lattice[n]


def test_gauss_circle_small():
    N = 500
    total = sum(sieve.r_two_squares(n) for n in range(1, N + 1))
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
    # Each prime p reads the ranges cut at D and X/D at m = (p - 1)/2.
    X, D = 4001, 9.7
    first, last = sieve.open_range(D, X / D)
    low, mid, high = _stream(X, [(1, first - 1), (first, last), (last + 1, X)])
    for p in oracles.primes(X)[1:]:
        l = m = h = 0
        for d in oracles.divisors(p - 1):
            c = oracles.chi(d)
            if d <= D:
                l += c
            if D < d < X / D:
                m += c
            if d >= X / D:
                h += c
        k = (p - 1) // 2
        assert (int(low[k]), int(mid[k]), int(high[k])) == (l, m, h)


def _window_cases(limit):
    """Window ends at 1, around sqrt(limit), at or past limit, and empty.

    The four starts root + 1 .. root + 4 above sqrt(limit) cover every
    residue mod 4, so both stride-4e slices of each cofactor start at
    every offset.
    """
    root = isqrt(limit)
    ends = sorted({-1, 0, 1, 2, 7, root - 1, root, root + 1, root + 2, root + 3,
                   root + 4, limit // 3, limit - 1, limit, limit + 5})
    return [(first, last) for first in ends for last in ends]


@pytest.mark.parametrize("limit", [0, 1, 9, 100, 101, 1000, 4095, 4096, 4097, 4099, 2**17 + 1])
def test_chi_divisor_window_matches_oracle(limit):
    for first, last in _window_cases(limit):
        got = sieve._chi_divisor_window(limit, first, last)
        assert got.dtype == np.int16
        assert np.array_equal(got, oracles.chi_divisor_window(limit, first, last)), (first, last)


def test_chi_divisor_window_spans_segments():
    # Windows from 1, from just above sqrt(limit) and from far above it, on a
    # range of many kernel segments; each cofactor's slices span the range.
    limit = 3 * 2**16 + 17
    for first, last in [(1, limit), (isqrt(limit) + 1, limit), (600, 70000), (70001, 131073)]:
        got = sieve._chi_divisor_window(limit, first, last)
        assert np.array_equal(got, oracles.chi_divisor_window(limit, first, last)), (first, last)


@pytest.mark.parametrize("limit", [10**5, 1 << 20])
def test_uint8_chi_table_matches_int32_window(limit):
    # The uint8 table is summed mod 256; every whole sum is in 0..48 below
    # the bulk cap, so it must equal the int32 window.
    table = sieve.chi_divisor_sums(limit)
    assert table.dtype == np.uint8
    assert np.array_equal(table, sieve._chi_divisor_window(limit, 1, limit))


@pytest.mark.parametrize("limit", [0, 1, 9, 60, 101])
def test_chi_divisor_window_blocks_match_the_whole_window(limit):
    # Blocks of 1 to 7 n, so the block edges fall on and beside every
    # multiple of each d and of each 4e.
    for first, last in _window_cases(limit):
        whole = sieve._chi_divisor_window(limit, first, last)
        for length in range(1, 8):
            parts = [
                sieve._chi_divisor_window(limit, first, last, start=n0, stop=n0 + length)
                for n0 in range(0, limit + 1 - length, length)
            ]
            parts.append(sieve._chi_divisor_window(limit, first, last, start=len(parts) * length))
            assert np.array_equal(np.concatenate(parts), whole), (first, last, length)


@pytest.mark.parametrize("dtype", [np.int16, np.uint8])
def test_chi_divisor_window_from_a_start_matches_the_slice(dtype):
    # Starts on multiples of odd d <= sqrt(limit) (63, 21 * 61) and of 4e
    # (4 * 13 * 20, 4 * 64 * 7), one past them, and near the end.
    limit = 4099
    starts = [0, 1, 63, 64, 1281, 1282, 1040, 1041, 1792, 1793, limit - 3, limit]
    for first, last in [(1, limit), (65, limit), (2, 64), (10, 300), (65, 1000), (700, 4000)]:
        whole = sieve._chi_divisor_window(limit, first, last, dtype)
        for start in starts:
            for length in (1, 5, 97, 1000):
                stop = min(start + length, limit + 1)
                got = sieve._chi_divisor_window(limit, first, last, dtype, start, stop)
                assert got.dtype == dtype
                assert np.array_equal(got, whole[start:stop]), (first, last, start, length)


def _most_divisors(cap):
    """(tau(n), n) largest below cap, over n = 2^e1 3^e2 5^e3 ... with e1 >= e2 >= ..."""
    primes = oracles.primes(100)

    def best(n, i, e_max):
        top = (1, n)
        e, m = 0, n
        while e < e_max and m * primes[i] < cap:
            e, m = e + 1, m * primes[i]
            t, arg = best(m, i + 1, e)
            top = max(top, ((e + 1) * t, arg))
        return top

    return best(1, 0, 64)


def test_signed_windows_fit_int16_below_the_stream_limit():
    # |w[m]| <= tau(m), and every window is over m <= (2^30 - 1) // 2 < 2^29:
    # tau(m) <= 1152 there (1344 below 2^30), so the int16 windows are exact.
    assert _most_divisors(1 << 29)[0] == 1152
    assert _most_divisors(1 << 30)[0] == 1344 < 2**15
    # 160225 = 5^2 * 13 * 17 * 29: all 24 divisors have chi = +1, the largest
    # sum up to it; the windows past sqrt(limit) and below it reach -6 and -5.
    limit = 160225
    extremes = []
    for first, last in [(1, limit), (401, limit), (2, 200)]:
        got = sieve._chi_divisor_window(limit, first, last)
        want = oracles.chi_divisor_window(limit, first, last)
        assert got.dtype == np.int16 and want.dtype == np.int32
        assert np.array_equal(got, want), (first, last)
        extremes.append((int(want.max()), int(want.min())))
    assert extremes == [(24, 0), (12, -6), (8, -5)]


@pytest.mark.parametrize(
    "lo, hi, want",
    [(2.0, 5.0, (3, 4)), (2.5, 4.5, (3, 4)), (0.5, 1.0, (1, 0)), (9.7, 9.9, (10, 9))],
)
def test_open_range_is_the_integers_strictly_inside(lo, hi, want):
    first, last = sieve.open_range(lo, hi)
    assert (first, last) == want
    assert list(range(first, last + 1)) == [d for d in range(12) if lo < d < hi]


def test_chi_divisor_window_checks_bulk_cap():
    with pytest.raises(ConfigurationError, match="bulk cap"):
        sieve._chi_divisor_window(sieve.BULK_TABLE_LIMIT + 1, 1, 10)


@pytest.mark.parametrize(
    "X, D",
    [
        (10**4, 1),
        (10**4, 9.7),
        (10**4, 100),  # D = X/D
        (10**4, 300),  # D > X/D: low and high overlap, mid is empty
        (10**4, 99.5),
        (10**4, 10**6),
        (3 * 2**16 + 17, 20.3),  # 24 blocks of 4096 m
    ],
)
def test_chi_range_sums_match_oracle(monkeypatch, X, D):
    # The windows over m = (p - 1)/2, cut at D and X/D, against the oracle's
    # whole windows over 0..(X - 1) // 2, at the odd primes only, in one
    # block and in blocks of many and of few m.
    limit = (X - 1) // 2
    first, last = sieve.open_range(D, X / D)
    ranges = [(1, first - 1), (first, last), (last + 1, X)]
    at_primes = np.array([oracles.is_prime(2 * m + 1) for m in range(limit + 1)])
    wants = [oracles.chi_divisor_window(limit, lo, hi) * at_primes for lo, hi in ranges]
    for length in (None, 4096, 7) if X < 10**5 else (None, 4096):
        if length:
            monkeypatch.setattr(sieve, "shifted_block_length", lambda X: length)
        for got, want, (lo, hi) in zip(_stream(X, ranges), wants, ranges):
            assert got.dtype == np.int16
            assert np.array_equal(got, want), (lo, hi, length)


def test_shifted_block_length_grows_with_sqrt_x():
    assert [sieve.shifted_block_length(1 << k) for k in (20, 22, 24, 26, 28, 30)] == [
        1 << 19, 1 << 19, 1 << 20, 1 << 21, 1 << 22, 1 << 23
    ]


def test_chi_range_sums_checks_the_stream_limit():
    with pytest.raises(PreconditionError, match="streaming limit"):
        next(sieve.chi_range_sums(sieve.STREAM_LIMIT + 1, [(1, 1)]))


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
@pytest.mark.parametrize(
    "name", ["chi_divisor_sums", "totient_table", "sigma_table", "omega_table"]
)
def test_prime_power_tables_match_loop_oracles(name, limit):
    table = getattr(sieve, name)(limit)
    expected = getattr(oracles, name)(limit)
    # The chi table is uint8 (every entry fits a byte) beside an int32
    # oracle, and the phi table int32 (phi(n) <= n <= 2^24) beside an int64 one.
    pinned = {"chi_divisor_sums": np.uint8, "totient_table": np.int32}
    assert table.dtype == pinned.get(name, expected.dtype)
    assert np.array_equal(table, expected)
    assert not table.flags.writeable


def test_sigma_table_matches_oracle():
    limit = 1 << 17
    table = sieve.sigma_table(limit)
    assert np.array_equal(table, oracles.sigma_table(limit))
    assert [int(v) for v in table[1:1001]] == [oracles.sigma(n) for n in range(1, 1001)]


def test_sigma_table_at_prime_powers_near_the_bulk_cap():
    # p^(e+1) passes 2^31 here (4093^3 is about 6.9e10), so an int32 power
    # in the kernel would wrap.
    limit = sieve.BULK_TABLE_LIMIT
    powers = [(2, 24), (3, 15), (5, 10), (7, 8), (13, 6), (23, 5), (61, 4), (251, 3), (4093, 2)]
    table = sieve.sigma_table(limit)
    for p, e in powers:
        assert p**e <= limit
        assert int(table[p**e]) == sum(p**k for k in range(e + 1))
    # The largest prime below the cap, and twice a prime square near it.
    assert int(table[16777213]) == 16777214
    assert int(table[2 * 2879**2]) == 3 * (1 + 2879 + 2879**2)



@pytest.mark.parametrize("name", ["totient_table", "sigma_table", "omega_table"])
def test_prime_power_table_segment_consistency(name, monkeypatch):
    # The kernel walks its range in TABLE_SEGMENT_LENGTH pieces; where the
    # pieces end must not change a single entry.
    limit = 5000
    build = getattr(sieve, name)
    whole = build(limit)
    for length in (1, 7, 64, 1000, 4999, 5000):
        monkeypatch.setattr(sieve, "TABLE_SEGMENT_LENGTH", length)
        assert np.array_equal(build(limit), whole), (name, length)


def test_concurrent_table_construction_is_consistent():
    from concurrent.futures import ThreadPoolExecutor

    # Tables and prime segments built side by side on four threads agree
    # with the ones built one at a time.
    limit = 40000
    names = ["chi_divisor_sums", "totient_table", "sigma_table", "omega_table"]
    builds = [getattr(sieve, n) for n in names] * 2
    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(lambda build: build(limit), builds))
        segments = list(pool.map(lambda n: np.concatenate(list(sieve.iter_prime_segments(n))),
                                 [limit] * 4))
    for build, table in zip(builds, tables):
        assert np.array_equal(table, build(limit)), build.__name__
    expected = np.array(sieve.primes_up_to(limit), dtype=np.int64)
    for arr in segments:
        assert np.array_equal(arr, expected)
