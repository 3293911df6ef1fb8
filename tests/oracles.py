"""Naive-loop oracles, independent of the library's sieving machinery.

Everything here is deliberately written the slow, obvious way (trial
division, gcd counting, direct lattice scans) so the fast implementations
have something honest to be checked against.
"""

import math
from fractions import Fraction
from math import gcd, isqrt

import numpy as np


def chi(n):
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes(limit):
    return [n for n in range(2, limit + 1) if is_prime(n)]


def factorize(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def spf(n):
    if n == 1:
        return 1
    for d in range(2, n + 1):
        if n % d == 0:
            return d


def phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def mobius(n):
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return (-1) ** len(fac)


def omega(n):
    return sum(e for _, e in factorize(n))


def sigma(n):
    return sum(divisors(n))


def tau_tuples(n, k):
    """Ordered k-tuples with product n, by direct recursion over divisors."""
    if k == 1:
        return 1
    return sum(tau_tuples(n // d, k - 1) for d in divisors(n))


def r_lattice(n):
    """Count of (x, y) with x^2 + y^2 = n by scanning the lattice."""
    count = 0
    for x in range(-isqrt(n), isqrt(n) + 1):
        y2 = n - x * x
        y = isqrt(y2)
        if y * y == y2:
            count += 1 if y == 0 else 2
    return count


def r_lattice_bulk(limit):
    """r(n) for all 0 <= n <= limit from one pass over the quarter lattice."""
    counts = [0] * (limit + 1)
    root = isqrt(limit)
    for x in range(-root, root + 1):
        x2 = x * x
        y = 0
        while x2 + y * y <= limit:
            if y == 0:
                counts[x2] += 1
            else:
                counts[x2 + y * y] += 2
            y += 1
    return counts


def disk_lattice_count(limit):
    """Lattice points inside the closed disk of radius sqrt(limit), origin excluded."""
    total = 0
    for x in range(-isqrt(limit), isqrt(limit) + 1):
        total += 2 * isqrt(limit - x * x) + 1
    return total - 1


def pi_progression(X, q, a):
    return sum(1 for p in primes(X) if p % q == a % q)


def f_value(n, primes_y):
    g = 1 if n in primes_y and is_prime(n) else 0
    h = 0 if any(n % p == 0 for p in primes_y) else 1
    return g + h


def crt_all_solutions(v1, d, v2, q):
    """Every x in [0, lcm) solving both congruences, by exhaustive scan."""
    lcm = d * q // gcd(d, q)
    return [x for x in range(lcm) if x % d == v1 and x % q == v2]


def split_chi_ranges(p, X, D):
    low = mid = high = 0
    for d in divisors(p - 1):
        c = chi(d)
        if d <= D:
            low += c
        if D < d < X / D:
            mid += c
        if d >= X / D:
            high += c
    return low, mid, high


def bv_sum_direct(X, A, a):
    """Per-q direct enumeration of the averaged discrepancy."""
    ps = primes(X)
    weights = {p: 4 * sum(chi(d) for d in divisors(p - 1)) for p in ps}
    total = sum(weights.values())
    out = Fraction(0)
    q = 1
    while q <= math.log(X) ** A:
        if gcd(q, a) == 1:
            in_prog = sum(w for p, w in weights.items() if p % q == a % q)
            out += abs(Fraction(in_prog) - Fraction(total, phi(q)))
        q += 1
    return out


def decompose_direct(X, A, a, exponent):
    """Nested-loop evaluation of the four divisor-range sums."""
    log_x = math.log(X)
    Q = log_x**A
    D = math.sqrt(X) / log_x**exponent
    ps = primes(X)
    split = {p: split_chi_ranges(p, X, D) for p in ps}
    t_low = sum(s[0] for s in split.values())
    t_high = sum(s[2] for s in split.values())
    t_mid_abs = sum(abs(s[1]) for s in split.values())
    S1 = S2 = S3 = Fraction(0)
    S4 = 0
    q = 1
    while q <= Q:
        if gcd(q, a) == 1:
            f = phi(q)
            w_low = sum(s[0] for p, s in split.items() if p % q == a % q)
            w_mid = sum(s[1] for p, s in split.items() if p % q == a % q)
            w_high = sum(s[2] for p, s in split.items() if p % q == a % q)
            S1 += abs(Fraction(w_low) - Fraction(t_low, f))
            S2 += abs(Fraction(w_high) - Fraction(t_high, f))
            S3 += Fraction(t_mid_abs, f)
            S4 += abs(w_mid)
        q += 1
    return S1, S2, S3, S4


def hooley15_direct(u, up, omega, n, X, which):
    """Nested-loop evaluation of the three (h, d) double sums."""
    log_x = math.log(X)
    float_terms = []
    frac_terms = []
    h = 1
    while h <= u:
        d_lo = Fraction(u) / h
        d_hi = float(u) * log_x**omega / h
        y_h = Fraction(up) / h
        d = int(d_lo) + 1
        while d < d_hi:
            if d > d_lo:
                if which == 1:
                    tau2 = len(divisors(d))
                    tau_n = sum(1 for t in divisors(n) if t <= y_h)
                    yf = float(y_h)
                    float_terms.append(
                        math.log(2.0 * yf) / yf * (tau2 / (h * d)) * tau_n
                    )
                elif which == 2:
                    s_d = sum(Fraction(1, t) for t in divisors(d))
                    s_n = sum(Fraction(1, t) for t in divisors(n) if t > y_h)
                    frac_terms.append(s_d / (h * d) * s_n)
                else:
                    frac_terms.append(Fraction(h) / Fraction(u) / (h * d))
            d += 1
        h += 1
    if which == 1:
        return math.fsum(float_terms)
    return sum(frac_terms, Fraction(0))


def epq_scan(p, q, a, X, D):
    """Direct d-scan of the progression-compatible divisor counts."""
    count = signed = 0
    d = int(D) + 1
    while d < X / D:
        if d > D and gcd(d, q) == 1:
            modulus = d * q
            sols = [x for x in range(modulus) if x % d == 1 % d and x % q == a % q]
            if sols:
                l = sols[0]
                if gcd(l, modulus) == 1 and p % modulus == l:
                    count += 1
                    signed += chi(d)
        d += 1
    return count, signed


# Whole-range tables by one numpy slice update per divisor, per n or per
# prime power, for checking the library's segmented prime-power kernel.


def chi_divisor_sums(limit):
    """b[n] = sum of chi(d) over d | n for 0 <= n <= limit, as int32."""
    b = np.zeros(limit + 1, dtype=np.int32)
    for d in range(1, limit + 1, 4):
        b[d::d] += 1
    for d in range(3, limit + 1, 4):
        b[d::d] -= 1
    return b


def totient_table(limit):
    """Euler phi for 0..limit as int64 (phi[0] = 0)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


def omega_table(limit):
    """Omega for 0..limit as uint8; a p with om[p] == 0 has no smaller prime factor."""
    om = np.zeros(limit + 1, dtype=np.uint8)
    for p in range(2, limit + 1):
        if om[p] == 0:
            pk = p
            while pk <= limit:
                om[pk::pk] += 1
                pk *= p
    return om


def chi_divisor_window(limit, first, last):
    """w[n] = sum of chi(d) over d | n with first <= d <= last, 0 <= n <= limit."""
    w = np.zeros(limit + 1, dtype=np.int32)
    for d in range(max(first, 1), min(last, limit) + 1):
        if d % 2:
            w[d::d] += chi(d)
    return w


def chi_range_sums(limit, D):
    """(low, mid, high) chi sums over d | n split at D and limit/D, one
    slice update per odd d, each inequality tested as displayed."""
    upper = limit / D
    low = np.zeros(limit + 1, dtype=np.int32)
    mid = np.zeros(limit + 1, dtype=np.int32)
    high = np.zeros(limit + 1, dtype=np.int32)
    for d in range(1, limit + 1, 2):
        c = 1 if d % 4 == 1 else -1
        if d <= D:
            low[d::d] += c
        if D < d < upper:
            mid[d::d] += c
        if d >= upper:
            high[d::d] += c
    return low, mid, high
