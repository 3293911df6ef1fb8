import math
from fractions import Fraction
from math import gcd

import pytest

from linnikbv import arith, lemmas
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
