import functools
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from linnikbv import arith, lemmas, sieve
from linnikbv.errors import PreconditionError
from linnikbv.sieve import Params

import oracles


def hooley1_direct(X, omega):
    log_x = math.log(X)
    lo = math.sqrt(X) * log_x**-omega
    hi = math.sqrt(X) * log_x**omega
    total = 0
    for p in oracles.primes(X):
        total += abs(
            sum(oracles.chi(d) for d in oracles.divisors(p - 1) if lo < d < hi)
        )
    return total


def test_hooley1_examples():
    assert lemmas.hooley1_lhs(16, 0.1) == 0
    assert lemmas.hooley1_lhs(10**4, 1.0) == 986  # frozen from the direct scan
    assert lemmas.hooley1_lhs(10**3, 1.0) == hooley1_direct(10**3, 1.0)


@pytest.mark.parametrize("X", [10**4, 10**5])
@pytest.mark.parametrize("omega", [0.5, 1.0])
def test_hooley1_odd_part_read_matches_full_window(X, omega):
    log_x = math.log(X)
    lo, hi = math.sqrt(X) * log_x**-omega, math.sqrt(X) * log_x**omega
    full = oracles.chi_divisor_window(X - 1, math.floor(lo) + 1, math.ceil(hi) - 1)
    expected = int(np.abs(full[sieve.prime_array(X) - 1]).sum())
    assert lemmas.hooley1_lhs(X, omega) == expected


def test_hooley1_omega_dependence():
    # Widening the window only changes sums inside absolute values, so the
    # total need not grow with omega; at X = 1000 it dips from 121 to 107.
    # All three values agree exactly with the direct scan.
    values = [lemmas.hooley1_lhs(10**3, w) for w in (0.5, 1.0, 2.0)]
    assert values == [96, 121, 107]
    assert values == [hooley1_direct(10**3, w) for w in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 5.0])
def test_hooley1_matches_direct_scan(omega):
    assert lemmas.hooley1_lhs(10**4, omega) == hooley1_direct(10**4, omega)


def test_hooley1_counts_p2_when_d1_is_in_the_window():
    # sqrt(1000)(log 1000)^-5 < 1, so d = 1 is in the window, and p = 2,
    # which has no entry under the odd-prime mask, adds |w[1]| = 1.
    X, omega = 10**3, 5.0
    hi = math.sqrt(X) * math.log(X) ** omega
    assert math.sqrt(X) * math.log(X) ** -omega < 1
    assert lemmas.hooley1_lhs(X, omega) == hooley1_direct(X, omega)
    odd = sum(
        abs(sum(oracles.chi(d) for d in oracles.divisors(p - 1) if d < hi))
        for p in oracles.primes(X)[1:]
    )
    assert lemmas.hooley1_lhs(X, omega) == 1 + odd


def test_brun_titchmarsh_examples():
    count, bound, holds = lemmas.brun_titchmarsh_check(100, 3, 1)
    assert (count, holds) == (11, True)
    assert count < bound
    count, _, holds = lemmas.brun_titchmarsh_check(100, 1, 1)
    assert (count, holds) == (25, True)
    count, bound, holds = lemmas.brun_titchmarsh_check(50, 49, 1)
    assert (count, holds) == (0, True)
    assert bound > 1


def test_brun_titchmarsh_counts_match_oracle():
    for X, q, a in ((10**5, 7, 3), (10**5, 12, 11), (2, 1, 1)):
        assert lemmas.brun_titchmarsh_check(X, q, a).count == oracles.pi_progression(X, q, a)


@pytest.mark.parametrize("length", [None, 1, 7, 64])
def test_brun_titchmarsh_strided_count_matches_oracle(monkeypatch, length):
    # Past sqrt(X) the count is one strided slice per odd mask, whose start
    # moves with each mask's first odd number.
    if length:
        monkeypatch.setattr(sieve, "SEGMENT_LENGTH", length)
    for X in (2, 3, 4, 99, 100, 2003):
        for q in (1, 2, 3, 4, 8, 9, 10, 12):
            if q >= X:
                continue
            for a in range(q):
                if gcd(a, q) == 1:
                    got = lemmas.brun_titchmarsh_check(X, q, a).count
                    assert got == oracles.pi_progression(X, q, a), (X, q, a)


def test_brun_titchmarsh_holds_one_odd_mask():
    # The odd mask of one segment (SEGMENT_LENGTH / 2 bytes) and the base
    # primes; int64 primes of a segment at 2^25 alone are 2.3 MB.
    bound = sieve.SEGMENT_LENGTH // 2 + (1 << 18)
    assert oracles.peak_bytes(lemmas.brun_titchmarsh_check, 1 << 25, 3, 1) < bound


def test_brun_titchmarsh_preconditions():
    with pytest.raises(PreconditionError):
        lemmas.brun_titchmarsh_check(100, 100, 1)
    with pytest.raises(PreconditionError):
        lemmas.brun_titchmarsh_check(100, 4, 2)


def test_count_N_examples():
    assert lemmas.count_N(5, 1) == 2
    assert lemmas.count_N(4, 1) == 1
    assert lemmas.count_N(10, 3) == 0


def test_count_N_rejects_large_r():
    with pytest.raises(PreconditionError):
        lemmas.count_N(10, 5)


def test_f_progression_examples():
    big = Params(10**6, 0.0)  # prime support {2, 3, 5, 7}
    support = set(big.primes_y)
    assert lemmas.f_progression_sum(10, 1, 1, big) == sum(
        oracles.f_value(n, support) for n in range(1, 10)
    )
    assert lemmas.f_progression_sum(2, 7, 1, big) == 1
    assert lemmas.f_progression_sum(100, 4, 2, big) == 1  # only n = 2


def test_estimate_B_examples():
    big = Params(10**6, 0.0)
    est = lemmas.estimate_B(big, 10)
    assert est == Fraction(1, 2)
    assert est <= 1
    prime_count = sum(1 for n in range(2, 10) if oracles.is_prime(n))
    assert est >= Fraction(prime_count, 10)


def test_omega_power_examples():
    assert lemmas.omega_power_sum(1, 0.5) == 1
    assert lemmas.omega_power_sum(3, 1.5) == 4
    with pytest.raises(PreconditionError):
        lemmas.omega_power_sum(3, 2.0)


def test_omega_power_degenerates_to_counting():
    for y in (1, 10, 100, 10**4):
        assert lemmas.omega_power_sum(y, 1) == y


@functools.lru_cache(maxsize=1)
def _omegas(y):
    return [oracles.omega(n) for n in range(1, y + 1)]


@pytest.mark.parametrize(
    "y, alpha",
    [(100, 1.3), (20_000, 1.5), (20_001, 1.5), (10**5, 0.75), (10**5, 1.75)],
)
def test_omega_power_float_path_is_the_fsum_of_the_powers(y, alpha):
    # A float alpha of large denominator, or y past the term cutoff, takes
    # the float path: the bytes of an fsum of float(alpha)**Omega(n) per n.
    exact = (Fraction(alpha).denominator <= lemmas.EXACT_ALPHA_DENOMINATOR
             and y <= lemmas.EXACT_SUM_TERM_LIMIT)
    value = lemmas.omega_power_sum(y, alpha)
    assert isinstance(value, Fraction if exact else float)
    if exact:
        assert value == sum((Fraction(alpha) ** k for k in _omegas(y)), Fraction(0))
    else:
        assert value == math.fsum(float(alpha) ** k for k in _omegas(y))


def test_hooley13_examples():
    assert lemmas.hooley13_sum(16, 0.5, 0.01) == 0
    value = lemmas.hooley13_sum(10**4, 0.5, 1.0)
    log_y = math.log(10**4)
    lo = math.sqrt(10**4) * log_y**-1.0
    hi = math.sqrt(10**4) * log_y**1.0
    threshold = 0.5 * math.log(log_y)
    expected = sum(
        (
            Fraction(1, n)
            for n in range(1, math.ceil(hi))
            if lo < n < hi and oracles.omega(n) <= threshold
        ),
        Fraction(0),
    )
    assert value == expected
    assert float(value) == 1.010461086957264  # frozen


def test_hooley13_monotone_in_omega():
    values = [lemmas.hooley13_sum(100, 0.5, w) for w in (0.5, 1.0, 2.0)]
    assert values == sorted(values)


def test_hooley13_preconditions():
    with pytest.raises(PreconditionError):
        lemmas.hooley13_sum(15, 0.5, 1.0)
    with pytest.raises(PreconditionError):
        lemmas.hooley13_sum(100, 1.0, 1.0)


def test_hooley13q_examples():
    assert lemmas.hooley13q_sum(100, 1.5, 101) == 0  # q > y
    v1 = lemmas.hooley13q_sum(100, 1.5, 1)
    v4 = lemmas.hooley13q_sum(100, 1.5, 4)
    assert float(v1) == 2.384560316590749  # frozen
    assert float(v4) == 0.9539895444383767  # frozen
    threshold = 1.5 * math.log(math.log(100)) - 1
    for q, value in ((1, v1), (4, v4)):
        expected = sum(
            (
                Fraction(1, n)
                for n in range(q, 101, q)
                if oracles.omega(n) > threshold
            ),
            Fraction(0),
        )
        assert value == expected


def test_hooley13q_unrestricted_case():
    # With alpha*loglog y < 2 and q prime, every multiple of q has
    # Omega(n) >= 1 > threshold, so the restriction is vacuous.
    for y, alpha, q in ((16, 1.5, 2), (16, 1.5, 3), (500, 1.02, 2), (1000, 1.01, 5)):
        assert alpha * math.log(math.log(y)) - 1 < 1
        full = sum((Fraction(1, n) for n in range(q, y + 1, q)), Fraction(0))
        assert lemmas.hooley13q_sum(y, alpha, q) == full


def _hooley13q_terms(y, alpha, q):
    threshold = alpha * math.log(math.log(y)) - 1.0
    return [Fraction(1, n) for n in range(q, y + 1, q) if oracles.omega(n) > threshold]


def test_hooley13q_exact_up_to_the_term_limit():
    # y = 80004 gives exactly EXACT_SUM_TERM_LIMIT terms at alpha 1.25, q 4.
    terms = _hooley13q_terms(80004, 1.25, 4)
    assert len(terms) == lemmas.EXACT_SUM_TERM_LIMIT
    value = lemmas.hooley13q_sum(80004, 1.25, 4)
    assert isinstance(value, Fraction)
    assert value == sum(terms, Fraction(0))


def test_hooley13q_fsum_past_the_term_limit():
    # y = 80008 gives one term more; the fsum of the same floats, any order.
    terms = _hooley13q_terms(80008, 1.25, 4)
    assert len(terms) == lemmas.EXACT_SUM_TERM_LIMIT + 1
    value = lemmas.hooley13q_sum(80008, 1.25, 4)
    assert isinstance(value, float)
    assert value == math.fsum(float(t) for t in terms)


def test_hooley14_examples():
    assert lemmas.hooley14_partial(1, 1, 1, 10, 5) == 0  # L < y
    assert lemmas.hooley14_partial(1, 1, 1, 1, 5) == Fraction(3, 4)
    with pytest.raises(PreconditionError):
        lemmas.hooley14_partial(2, 3, 6, 1, 10)


def test_hooley14_bracketing():
    r, s, n, y = 2, 3, 5, 1
    for L in (20, 37, 100):
        close = lemmas.hooley14_partial(r, s, n, y, L)
        far = lemmas.hooley14_partial(r, s, n, y, L + 4)
        slack = sum(
            Fraction(1, arith.euler_phi(r * s * l)) for l in range(L + 1, L + 5)
        )
        assert abs(far - close) <= slack


def test_hooley15_empty_window():
    params = Params(10**4, 0.0)
    for which in (1, 2, 3):
        assert lemmas.hooley15_sums(2, 2, 1e-9, 1, which, params) == 0


def test_hooley15_oracle_values():
    params = Params(10**4, 0.0)
    for which in (1, 2, 3):
        got = lemmas.hooley15_sums(10, 10, 1.0, 6, which, params)
        assert got == oracles.hooley15_direct(10, 10, 1.0, 6, 10**4, which)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("n", [720, 5040])
def test_hooley15_divisor_bisects_match_oracle(which, n):
    # n's divisors are taken once and bisected at u'/h; with u' = 3.7u every
    # h cuts them at a different point, as the oracle's rescans do.
    params = Params(10**4, 0.0)
    got = lemmas.hooley15_sums(10, 37, 1.0, n, which, params)
    assert got == oracles.hooley15_direct(10, 37, 1.0, n, 10**4, which)


def test_sigma_minus1_and_tau_trunc_take_the_divisors_once():
    n = 5040
    divs = arith.divisors(n)
    for y in (None, 0, 1, 7.5, Fraction(100, 3), 71, 5040, 6000):
        want = sum(Fraction(1, d) for d in oracles.divisors(n) if y is None or d > y)
        assert arith.sigma_minus1(n, y) == arith.sigma_minus1(n, y, divs) == want
        if y is not None:
            count = sum(1 for d in oracles.divisors(n) if d <= y)
            assert arith.tau_trunc(n, y) == arith.tau_trunc(n, y, divs) == count


def _hooley15_per_term(u, u_prime, n, which, params):
    """The Fractions of hooley15_sums's former loop, sigma_-1(d) by trial division per d."""
    u_exact, up_exact = Fraction(u), Fraction(u_prime)
    d_end = float(u_exact) * lemmas._log_powers(params.X, 1.0)[1]
    terms = []
    h = 1
    while h <= u_exact:
        d_lo, d_hi, y_h = u_exact / h, d_end / h, up_exact / h
        sigma_n = arith.sigma_minus1(n, y_h)
        d = int(d_lo) + 1
        while d < d_hi:
            if which == 2:
                terms.append(arith.sigma_minus1(d) / (h * d) * sigma_n)
            else:
                terms.append(Fraction(h) / u_exact / (h * d))
            d += 1
        h += 1
    return terms


@pytest.mark.parametrize("which", [2, 3])
def test_hooley15_exact_and_fsum_match_the_per_term_path(which):
    params = Params(10**4, 0.0)
    small = _hooley15_per_term(37.5, 80.25, 30, which, params)
    assert lemmas.hooley15_sums(37.5, 80.25, 1.0, 30, which, params) == sum(small, Fraction(0))
    # u = 400 builds about 21 600 terms, past the exact-sum cutoff.
    terms = _hooley15_per_term(400, 400, 12, which, params)
    assert len(terms) > lemmas.EXACT_SUM_TERM_LIMIT
    value = lemmas.hooley15_sums(400, 400, 1.0, 12, which, params)
    assert isinstance(value, float)
    assert value == math.fsum(float(t) for t in terms)


@pytest.mark.parametrize("which", [2, 3])
@pytest.mark.parametrize("u", [37, 37.5])
def test_hooley15_exact_branch_matches_oracle(which, u):
    # An integer u and a binary-fraction u, below the exact-sum cutoff.
    params = Params(10**4, 0.0)
    value = lemmas.hooley15_sums(u, 2 * u, 1.0, 30, which, params)
    assert isinstance(value, Fraction)
    assert value == oracles.hooley15_direct(u, 2 * u, 1.0, 30, 10**4, which)


# which = 2 at the integer u = 400 is the per-term test above.
@pytest.mark.parametrize("which, u", [(2, 400.5), (3, 400), (3, 400.5)])
def test_hooley15_fsum_branch_matches_oracle(which, u):
    # Past the cutoff each term is an int / int division, correctly rounded
    # like float(Fraction): the bytes of the per-term fsum, and within the
    # fsum's rounding of the exact oracle sum.
    params = Params(10**4, 0.0)
    terms = _hooley15_per_term(u, u, 12, which, params)
    assert len(terms) > lemmas.EXACT_SUM_TERM_LIMIT
    value = lemmas.hooley15_sums(u, u, 1.0, 12, which, params)
    assert isinstance(value, float)
    assert value == math.fsum(float(t) for t in terms)
    exact = float(oracles.hooley15_direct(u, u, 1.0, 12, 10**4, which))
    assert value == pytest.approx(exact, rel=1e-14)


def test_hooley15_term_cap(monkeypatch):
    params = Params(10**4, 0.0)
    # Ten h values and their (h, d) terms.
    count = 10 + len(_hooley15_per_term(10, 10, 6, 3, params))
    monkeypatch.setattr(lemmas, "HOOLEY15_TERM_LIMIT", count)
    for which in (1, 2, 3):
        assert lemmas.hooley15_sums(10, 10, 1.0, 6, which, params) == oracles.hooley15_direct(
            10, 10, 1.0, 6, 10**4, which
        )
    monkeypatch.setattr(lemmas, "HOOLEY15_TERM_LIMIT", count - 1)
    for which in (1, 2, 3):
        with pytest.raises(PreconditionError, match=r"\(h, d\) terms"):
            lemmas.hooley15_sums(10, 10, 1.0, 6, which, params)
    # u past the cap with nearly empty d ranges: the h values alone exceed it.
    monkeypatch.setattr(lemmas, "HOOLEY15_TERM_LIMIT", 1000)
    with pytest.raises(PreconditionError, match=r"\(h, d\) terms"):
        lemmas.hooley15_sums(1001, 1001, 1e-9, 6, 3, params)


def test_hooley15_rejects_bad_selector():
    params = Params(10**4, 0.0)
    with pytest.raises(PreconditionError):
        lemmas.hooley15_sums(10, 10, 1.0, 6, 4, params)


def test_murty_examples():
    assert lemmas.murty_sum(2) == 2
    assert lemmas.murty_sum(3) == Fraction(5, 2)


def test_murty_oracle_small():
    expected = sum((Fraction(1, oracles.phi(n)) for n in range(1, 201)), Fraction(0))
    assert lemmas.murty_sum(200) == expected


def test_murty_exact_at_the_term_limit():
    phi = oracles.totient_table(lemmas.EXACT_SUM_TERM_LIMIT)
    value = lemmas.murty_sum(lemmas.EXACT_SUM_TERM_LIMIT)
    assert isinstance(value, Fraction)
    assert value == sum((Fraction(1, int(f)) for f in phi[1:]), Fraction(0))


def test_murty_fsum_past_the_term_limit():
    X = lemmas.EXACT_SUM_TERM_LIMIT + 1
    phi = oracles.totient_table(X)
    value = lemmas.murty_sum(X)
    assert isinstance(value, float)
    assert value == math.fsum(float(Fraction(1, int(phi[n]))) for n in range(1, X + 1))


def test_murty_sum_builds_no_phi_table():
    # phi comes one kernel segment at a time: the segment, its cofactors
    # and the kernel's ones and exponent arrays are at most four int32
    # arrays of TABLE_SEGMENT_LENGTH (1 MiB), and one fsum chunk is
    # REDUCTION_CHUNK float64s and as many Python floats (640 KiB), within
    # 2 MiB.  The int32 phi table over 1..10^6 alone is 4 MB.
    assert oracles.peak_bytes(lemmas.murty_sum, 10**6) < 1 << 21


def test_sum_reciprocals_lets_go_of_each_summed_array():
    # A first int64 array of 4 * 10^5 terms (3.2 MB), past the term cutoff,
    # then three of 10^5 (800 KB): at most the first beside the next one
    # built, or two small ones and one fsum chunk (640 KiB), within 512 KiB.
    # Holding the first to the end adds two small arrays and a chunk.
    big, small = 4 * 10**5, 10**5

    def arrays():
        yield np.arange(1, big + 1)
        for k in range(3):
            yield np.arange(big + 1 + k * small, big + 1 + (k + 1) * small)

    bound = 8 * (big + small) + (1 << 19)
    assert oracles.peak_bytes(lemmas._sum_reciprocals, arrays()) < bound


def test_hooley13q_sum_scales_the_picked_indices_in_place():
    # Omega comes one kernel segment at a time, as phi does for murty_sum:
    # four kernel arrays of TABLE_SEGMENT_LENGTH at most 32 bits wide
    # (1 MiB), the picks of one segment in place and those held up to the
    # term cutoff (under 300 KB), and one fsum chunk within 2 MiB.  The
    # whole-range uint8 Omega table over 0..10^6 is 1 MB, and an int64
    # index per multiple of 4 up to 10^6 is 2 MB.
    assert oracles.peak_bytes(lemmas.hooley13q_sum, 10**6, 1.25, 4) < 1 << 21


def test_omega_power_sum_builds_no_omega_table():
    # Omega comes one kernel segment at a time into a bincount of at most
    # log2 y + 1 counts: four kernel arrays of TABLE_SEGMENT_LENGTH at most
    # 32 bits wide (1 MiB) within 2 MiB.  The uint8 Omega table over
    # 0..4*10^6 alone is 4 MB.
    assert oracles.peak_bytes(lemmas.omega_power_sum, 4 * 10**6, 1.3) < 1 << 21


def test_hooley13_sum_picks_its_window_segment_by_segment():
    # The window (29.5, 3.39*10^6) of y = 10^8 at omega 2 holds about
    # 9*10^5 n with Omega(n) <= 2, past the term cutoff: four kernel arrays (1 MiB)
    # and one segment's picks or one fsum chunk within 2 MiB.  An int64
    # index over the window alone is 27 MB.
    assert oracles.peak_bytes(lemmas.hooley13_sum, 10**8, 0.75, 2.0) < 1 << 21


@pytest.mark.parametrize("length", [1, 7, 64, 1000])
def test_omega_checkers_segment_consistency(length, monkeypatch):
    # The Omega checkers read the kernel a segment at a time; where the
    # segments end must not change a value.  y = 5000 spans several
    # segments at each length, and hooley13's window (27.5, 3640.7) at
    # y = 10^5 crosses the edges at every multiple of the length.
    cases = [(lemmas.omega_power_sum, 5000, alpha) for alpha in (1.5, 1.3)]
    cases += [(lemmas.hooley13_sum, 10**5, 0.75, 1.0)]
    cases += [(lemmas.hooley13q_sum, 5000, 1.25, q) for q in (1, 3, 7, 64, 1000)]
    whole = [fn(*args) for fn, *args in cases]  # one segment: 5000 < TABLE_SEGMENT_LENGTH
    monkeypatch.setattr(sieve, "TABLE_SEGMENT_LENGTH", length)
    assert [fn(*args) for fn, *args in cases] == whole


def test_epq_empty_range():
    params = Params(10**4, 0.0, 1, override_exponent=-1.0)  # D > X/D
    assert lemmas.e_pq(101, 4, params) == 0
    assert lemmas.f_pq(101, 4, params) == 0


def test_epq_synthetic_oracle():
    params = Params(10**4, 0.0, 1, override_exponent=1.0)  # D ~ 10.86
    assert (lemmas.e_pq(101, 4, params), lemmas.f_pq(101, 4, params)) == (1, 1)
    for p in (101, 997):
        for q in (1, 3, 4):
            expected = oracles.epq_scan(p, q, params.a, params.X, params.D)
            assert (lemmas.e_pq(p, q, params), lemmas.f_pq(p, q, params)) == expected


def test_f_bounded_by_e():
    params = Params(10**4, 0.0, 1, override_exponent=1.5)
    for p in (11, 101, 601, 2113, 9973):
        for q in (1, 2, 3, 4, 5, 12):
            assert abs(lemmas.f_pq(p, q, params)) <= lemmas.e_pq(p, q, params)


def test_report_ratios_finite_and_reproducible():
    params = Params(10**4, 0.0)
    reports = [
        lemmas.report("murty", X=1000),
        lemmas.report("hooley1", X=100, omega=1.0),
        lemmas.report("omega_power", y=100, alpha=1.5),
        lemmas.report("hooley13", y=100, alpha=0.5, omega=1.0),
        lemmas.report("hooley13q", y=100, alpha=1.5, q=4),
        lemmas.report("estimate_b", params=params, y=100),
        lemmas.report("f_progression", params=params, y=100, k=4, a=1),
        lemmas.report("count_n", n=100, r=3),
        lemmas.report("brun_titchmarsh", X=100, q=3, a=1),
        lemmas.report("hooley14", params=params, r=1, s=1, n=1, y=1, L=9),
        lemmas.report("hooley15", params=params, u=10, u_prime=10, omega=1.0, n=6, which=3),
    ]
    for rep in reports:
        assert rep.envelope > 0
        assert rep.ratio >= 0
        assert math.isfinite(rep.ratio)
        again = lemmas.report(rep.lemma_id, params=params, **rep.inputs)
        assert again.lhs == rep.lhs and again.ratio == rep.ratio


def test_report_fills_defaults_from_the_checker_table():
    params = Params(10**4, 0.0)
    rep = lemmas.report("hooley15", params=params, u=10, omega=None, n=6, which=3)
    assert rep.inputs == {"u": 10, "u_prime": 10, "omega": 1.0, "n": 6, "which": 3}
    assert list(lemmas.report("hooley1", X=100).inputs) == ["X", "omega"]


@pytest.mark.parametrize(
    "lemma_id, params, inputs, message",
    [
        ("not_a_lemma", None, {}, "unknown lemma id"),
        ("omega_power", None, {"y": 100}, "requires input alpha"),
        ("murty", None, {"X": 100, "omega": 1.0}, "no input omega"),
    ],
)
def test_report_rejects_bad_calls(lemma_id, params, inputs, message):
    with pytest.raises(PreconditionError, match=message):
        lemmas.report(lemma_id, params=params, **inputs)
