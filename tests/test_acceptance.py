"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Tolerances and runtime budgets are pinned here; exact means exact.
"""

import math
import time
from fractions import Fraction
from math import gcd

from linnikbv import arith, cli, lemmas, linnik, sieve
from linnikbv.sieve import Params

import oracles


def _announce(name):
    print(f"ACCEPTANCE PASS: {name}")


def test_two_squares_triple_agreement():
    # r_two_squares == r_via_identity == lattice count for 1 <= n <= 1e5,
    # exact equality, under 30 s single-threaded.
    start = time.perf_counter()
    N = 10**5
    lattice = oracles.r_lattice_bulk(N)
    for n in range(1, N + 1):
        a = sieve.r_two_squares(n)
        b = sieve.r_via_identity(n)
        assert a == b == lattice[n], f"mismatch at n={n}: {a}, {b}, {lattice[n]}"
    assert (4 * sieve.chi_divisor_sums(N)[1:].astype(int)).tolist() == lattice[1:]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"triple agreement took {elapsed:.1f}s"
    _announce(f"two-squares triple agreement to 1e5 ({elapsed:.1f}s)")


def test_theta0_constant():
    value = linnik.theta0()
    assert value == 0.5 - math.e * math.log(2.0) / 4
    assert math.floor(value * 10**4) == 289  # leading digits 0.0289
    _announce("theta0 equals 1/2 - e*log(2)/4 with leading digits 0.0289")


def test_enveloping_sieve_majorant():
    # f(p) = 1 for every prime p <= 1e6 at X = 1e6; f(n) in {0, 1} always.
    start = time.perf_counter()
    params = Params(10**6, 0.0)
    prime_set = set(sieve.primes_up_to(10**6))
    for n in range(1, 10**6 + 1):
        f = sieve.f_enveloping(n, params)
        if n in prime_set:
            assert f == 1
        else:
            assert f in (0, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"majorant sweep took {elapsed:.1f}s"
    _announce(f"enveloping sieve is a 0/1 majorant of the primes to 1e6 ({elapsed:.1f}s)")


def test_divisor_range_split_identity():
    # 4*(low + mid + high) == r(p-1) for every prime p <= 1e5 under three
    # parameter choices, one with an overridden exponent.  Exact.
    N = 10**5
    primes = sieve.primes_up_to(N)
    for params in (
        Params(N, 0.0),
        Params(N, 1.0),
        Params(N, 0.0, override_exponent=2.0),
    ):
        for p in primes:
            triple = linnik.split_r_by_ranges(p, params)
            assert 4 * sum(triple) == sieve.r_two_squares(p - 1)
    _announce("divisor-range split identity holds to 1e5 under 3 parameter sets")


def test_bv_sum_oracle_equivalence():
    # Single-pass accumulation equals the per-q enumeration oracle exactly
    # at X = 1e6, A = 2, a = 1; runtime < 5 min.
    start = time.perf_counter()
    params = Params(10**6, 2.0, 1)
    fast = linnik.bv_sum(params)
    moduli = [q for q in range(1, int(params.Q) + 1) if gcd(q, params.a) == 1]
    rows = linnik.discrepancies(params.X, params.a, moduli)
    per_q = sum((abs(row.discrepancy) for row in rows), Fraction(0))
    assert fast == per_q
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"bv_sum comparison took {elapsed:.1f}s"
    _announce(f"bv_sum(1e6, A=2) equals per-q oracle exactly, value {float(fast)} ({elapsed:.1f}s)")


def test_gauss_circle_cross_check():
    for N in (10**3, 10**4):
        total = sum(sieve.r_two_squares(n) for n in range(1, N + 1))
        assert total == oracles.disk_lattice_count(N)
    _announce("sum of r(n) matches closed-disk lattice counts at 1e3 and 1e4")


def test_brun_titchmarsh_holds():
    # Strict inequality for X = 1e6 and every q <= 1e3 with residue a = 1.
    X = 10**6
    for q in range(1, 10**3 + 1):
        res = lemmas.brun_titchmarsh_check(X, q, 1)
        assert res.holds, f"Brun-Titchmarsh failed at q={q}: {res}"
        assert res.count < res.bound
    _announce("Brun-Titchmarsh strict bound holds for all q <= 1e3 at X = 1e6")


# The documented small grid for the lemma-checker oracle suite (all inputs
# at or below 1e4).  Each entry is checked exactly against a naive oracle.
HOOLEY1_GRID = [(16, 0.1), (16, 1.0), (1000, 0.5), (10**4, 0.1), (10**4, 1.0)]
BT_GRID = [(10**4, q, 1) for q in range(1, 51)] + [(100, 3, 1), (50, 49, 1)]
COUNT_N_GRID = [(5, 1), (4, 1), (10, 3), (100, 1), (100, 7), (1000, 13), (10**4, 3)]
F_PROG_GRID = [(10, 1, 1), (2, 7, 1), (100, 4, 2), (100, 4, 1), (10**4, 7, 3), (10**4, 1, 1)]
ESTIMATE_B_GRID = [2, 10, 100, 10**4]
OMEGA_POWER_GRID = [
    (y, alpha)
    for y in (1, 3, 100, 10**4)
    for alpha in (Fraction(1, 2), 1, Fraction(3, 2), Fraction(7, 4))
]
HOOLEY13_GRID = [
    (y, alpha, omega)
    for y in (16, 100, 10**4)
    for alpha in (0.5, 0.9)
    for omega in (0.01, 1.0)
]
HOOLEY13Q_GRID = [
    (y, alpha, q)
    for y in (16, 100, 1000)
    for alpha in (1.1, 1.5)
    for q in (1, 2, 4, 7)
]
HOOLEY14_GRID = [
    (1, 1, 1, 1, 5),
    (1, 1, 1, 10, 5),
    (2, 3, 5, 1, 50),
    (1, 4, 9, 3, 101),
    (3, 1, 10, 2.5, 40),
]
HOOLEY15_GRID = [
    (u, up, 1.0, n, which)
    for (u, up, n) in ((2, 2, 1), (10, 10, 6), (10, 12, 1))
    for which in (1, 2, 3)
]
MURTY_GRID = [2, 3, 16, 1000, 10**4]
EPQ_GRID = [(p, q) for p in (101, 997) for q in (1, 3, 4)]


def test_lemma_checker_oracle_suite():
    start = time.perf_counter()
    params4 = Params(10**4, 0.0)

    for X, omega in HOOLEY1_GRID:
        log_x = math.log(X)
        lo, hi = math.sqrt(X) * log_x**-omega, math.sqrt(X) * log_x**omega
        expected = sum(
            abs(sum(oracles.chi(d) for d in oracles.divisors(p - 1) if lo < d < hi))
            for p in oracles.primes(X)
        )
        assert lemmas.hooley1_lhs(X, omega) == expected

    for X, q, a in BT_GRID:
        res = lemmas.brun_titchmarsh_check(X, q, a)
        assert res.count == oracles.pi_progression(X, q, a)
        assert res.holds == (res.count < 2 * X / (oracles.phi(q) * math.log(2 * X / q)))

    for n, r in COUNT_N_GRID:
        expected = sum(
            1
            for p2 in oracles.primes((n - 2) // r)
            if oracles.is_prime(n - r * p2)
        )
        assert lemmas.count_N(n, r) == expected

    support = set(params4.primes_y)
    for y, k, a in F_PROG_GRID:
        expected = sum(
            oracles.f_value(n, support) for n in range(1, y) if n % k == a % k
        )
        assert lemmas.f_progression_sum(y, k, a, params4) == expected

    for y in ESTIMATE_B_GRID:
        expected = Fraction(
            sum(oracles.f_value(n, support) for n in range(1, y)), y
        )
        assert lemmas.estimate_B(params4, y) == expected

    for y, alpha in OMEGA_POWER_GRID:
        expected = sum(
            (Fraction(alpha) ** oracles.omega(n) for n in range(1, y + 1)),
            Fraction(0),
        )
        assert lemmas.omega_power_sum(y, alpha) == expected

    for y, alpha, omega in HOOLEY13_GRID:
        log_y = math.log(y)
        lo, hi = math.sqrt(y) * log_y**-omega, math.sqrt(y) * log_y**omega
        threshold = alpha * math.log(log_y)
        expected = sum(
            (
                Fraction(1, n)
                for n in range(1, math.ceil(hi) + 1)
                if lo < n < hi and oracles.omega(n) <= threshold
            ),
            Fraction(0),
        )
        assert lemmas.hooley13_sum(y, alpha, omega) == expected

    for y, alpha, q in HOOLEY13Q_GRID:
        threshold = alpha * math.log(math.log(y)) - 1
        expected = sum(
            (
                Fraction(1, n)
                for n in range(q, y + 1, q)
                if oracles.omega(n) > threshold
            ),
            Fraction(0),
        )
        assert lemmas.hooley13q_sum(y, alpha, q) == expected

    for r, s, n, y, L in HOOLEY14_GRID:
        expected = sum(
            (
                Fraction(oracles.chi(l), oracles.phi(r * s * l))
                for l in range(math.ceil(y), L + 1)
                if gcd(l, n * s) == 1
            ),
            Fraction(0),
        )
        assert lemmas.hooley14_partial(r, s, n, y, L) == expected

    for u, up, omega, n, which in HOOLEY15_GRID:
        got = lemmas.hooley15_sums(u, up, omega, n, which, params4)
        assert got == oracles.hooley15_direct(u, up, omega, n, 10**4, which)

    for X in MURTY_GRID:
        expected = sum(
            (Fraction(1, arith.euler_phi(n)) for n in range(1, X + 1)), Fraction(0)
        )
        assert lemmas.murty_sum(X) == expected

    epq_params = Params(10**4, 0.0, 1, override_exponent=1.0)
    for p, q in EPQ_GRID:
        expected = oracles.epq_scan(p, q, 1, 10**4, epq_params.D)
        got = (lemmas.e_pq(p, q, epq_params), lemmas.f_pq(p, q, epq_params))
        assert got == expected
        assert abs(got[1]) <= got[0]

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"lemma oracle suite took {elapsed:.1f}s"
    _announce(f"lemma checkers match naive-loop oracles on the documented grid ({elapsed:.1f}s)")


# Frozen from this implementation's oracle run at X = 1e6:
# ratios 1.9350637..., 1.9370401..., 1.9383364..., 1.9392120...
MURTY_RATIO_AT_1E6 = 1.939212072531151
MURTY_RATIO_BOUND = MURTY_RATIO_AT_1E6 * 1.05
MURTY_STEP_MARGIN = 0.003


def test_murty_ratio_stability():
    ratios = [
        float(lemmas.murty_sum(X)) / math.log(X)
        for X in (10**3, 10**4, 10**5, 10**6)
    ]
    for earlier, later in zip(ratios, ratios[1:]):
        assert 0 < later - earlier < MURTY_STEP_MARGIN
    for ratio in ratios:
        assert ratio <= MURTY_RATIO_BOUND
    _announce(f"murty ratio is stable and bounded: {[round(r, 6) for r in ratios]}")


def test_reports_deterministic_across_threads(capsys):
    # --threads is accepted and has no effect: Q = (log 10^5)^3 gives about
    # 1526 moduli, and every thread count prints the same bytes.
    bv_outputs = set()
    dec_outputs = set()
    for threads in ("1", "2", "8"):
        assert cli.main(
            ["bvsum", "--x", "100000", "--A", "3", "--a", "1", "--threads", threads]
        ) == 0
        bv_outputs.add(capsys.readouterr().out)
        assert cli.main(
            ["decompose", "--x", "100000", "--A", "3", "--override-exponent", "2",
             "--threads", threads, "--format", "json"]
        ) == 0
        dec_outputs.add(capsys.readouterr().out)
    assert len(bv_outputs) == 1
    assert len(dec_outputs) == 1
    _announce("bvsum and decompose reports are byte-identical across 1/2/8 threads")
