"""Exact elementary number-theoretic primitives.

Everything here is a pure function of its arguments and uses integer or
rational arithmetic internally; floating point appears only where a value
is genuinely transcendental (r_envelope's logarithm).  Real-valued
thresholds such as y are compared against exact integers directly, which
Python does without rounding.  reciprocal_sum takes a numpy array, so that
an exact sum over a table needs no per-term Fraction.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import PreconditionError, brief_int

Real = Union[int, float, Fraction]

# Largest n trial division takes: its sqrt(n) steps stay near 2**20.
TRIAL_DIVISION_LIMIT = 1 << 40


class Residue(NamedTuple):
    """A residue class value mod modulus, with 0 <= value < modulus."""

    value: int
    modulus: int


def chi(n: int) -> int:
    """Non-principal character mod 4: +1 on 1 (4), -1 on 3 (4), 0 on evens."""
    if n < 1:
        raise PreconditionError(f"chi requires n >= 1, got {n}")
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


def factorize_trial(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] by trial division, primes ascending."""
    if not 1 <= n <= TRIAL_DIVISION_LIMIT:
        raise PreconditionError(f"factorize_trial requires 1 <= n <= 2**40, got {brief_int(n)}")
    out = []
    for d in (2, 3):
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
    d = 5
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 2 if d % 6 == 5 else 4
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending, found by scanning d <= sqrt(n)."""
    if not 1 <= n <= TRIAL_DIVISION_LIMIT:
        raise PreconditionError(f"divisors requires 1 <= n <= 2**40, got {brief_int(n)}")
    small = []
    large = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    large.reverse()
    return small + large


def euler_phi(n: int) -> int:
    """Euler's totient, multiplicative over the prime factorization."""
    if n < 1:
        raise PreconditionError(f"euler_phi requires n >= 1, got {n}")
    out = 1
    for p, e in factorize_trial(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def moebius(n: int) -> int:
    """Moebius function: 0 unless squarefree, else (-1)^(number of primes)."""
    if n < 1:
        raise PreconditionError(f"moebius requires n >= 1, got {n}")
    out = 1
    for _, e in factorize_trial(n):
        if e > 1:
            return 0
        out = -out
    return out


def omega_big(n: int) -> int:
    """Number of prime factors counted with multiplicity; omega_big(1) = 0."""
    if n < 1:
        raise PreconditionError(f"omega_big requires n >= 1, got {n}")
    return sum(e for _, e in factorize_trial(n))


def crt_l(a1: Residue, a2: Residue) -> Optional[Residue]:
    """Simultaneous lift of a1 and a2 to the modulus lcm(d, q).

    Returns the unique residue l mod lcm(d, q) with l = a1 (d) and
    l = a2 (q), or None when a1 and a2 disagree mod gcd(d, q).  The
    degenerate d = q = 1 case yields 0 mod 1.
    """
    v1, d = a1
    v2, q = a2
    if d < 1 or q < 1:
        raise PreconditionError("crt_l requires positive moduli")
    if not (0 <= v1 < d and 0 <= v2 < q):
        raise PreconditionError("crt_l requires reduced residues")
    g = gcd(d, q)
    if (v1 - v2) % g != 0:
        return None
    lcm = d // g * q
    # l = v1 + d*t with d*t = v2 - v1 (q); solve t mod q/g.
    qg = q // g
    t = ((v2 - v1) // g * pow(d // g, -1, qg)) % qg if qg > 1 else 0
    return Residue((v1 + d * t) % lcm, lcm)


def sigma_minus1(n: int, y: Optional[Real] = None, divs: Optional[list[int]] = None) -> Fraction:
    """Sum of 1/d over the divisors d > y of n (all of them without y); divs as for tau_trunc."""
    if n < 1:
        raise PreconditionError(f"sigma_minus1 requires n >= 1, got {n}")
    divs = divisors(n) if divs is None else divs
    tail = divs if y is None else divs[bisect_right(divs, y) :]
    return Fraction(sum(n // d for d in tail), n)


def reciprocal_sum(values: np.ndarray, weights=None) -> Fraction:
    """Exact sum of weights[i] / values[i] over positive integers, 1 / values[i] unweighted.

    Unweighted, np.unique groups the values (they may reach the bulk cap,
    too far for a bincount) into terms c_v / v, c_v the count of v.  Weights,
    which may be a lazy iterable, are taken term by term as they come.  The
    terms are added over one common denominator, the lcm of the v, by
    merging them pairwise as in a balanced tree, so that each gcd is taken
    between numbers of like size and only O(log n) partial sums are held;
    one Fraction is built at the end.
    """
    if weights is None:
        vs, cs = np.unique(values, return_counts=True)
        terms = zip(cs.tolist(), vs.tolist())
    else:
        terms = zip(weights, map(int, values))
    stack: list[tuple[int, int, int]] = []  # (terms merged, numerator, denominator)
    for num, den in terms:
        merged = 1
        while stack and stack[-1][0] == merged:
            num, den = _add_ratios(*stack.pop()[1:], num, den)
            merged *= 2
        stack.append((merged, num, den))
    num, den = 0, 1
    while stack:
        num, den = _add_ratios(*stack.pop()[1:], num, den)
    return Fraction(num, den)


def _add_ratios(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """n1/d1 + n2/d2 over the denominator lcm(d1, d2), unreduced."""
    g = gcd(d1, d2)
    return n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2


def tau_trunc(n: int, y: Real, divs: Optional[list[int]] = None) -> int:
    """Number of divisors of n that do not exceed y; divs, when given, is divisors(n)."""
    if n < 1:
        raise PreconditionError(f"tau_trunc requires n >= 1, got {n}")
    return bisect_right(divisors(n) if divs is None else divs, y)


@lru_cache(maxsize=None)
def tau_k(n: int, k: int) -> int:
    """Ordered k-tuples of positive integers with product n.

    Computed by the divisor convolution tau_k = tau_(k-1) * 1, memoized on
    (n, k); callers here only need k <= 4 on small n.
    """
    if n < 1 or k < 1:
        raise PreconditionError("tau_k requires n >= 1 and k >= 1")
    if k == 1:
        return 1
    if n == 1:
        return 1
    return sum(tau_k(d, k - 1) for d in divisors(n))


def r_envelope(n: int, r: int, s: int, y: Real, divs: Optional[list[int]] = None) -> float:
    """Divisor-sum envelope (log 2y)/y * tau_2(s)/(r s) * tau(n, y); divs as for tau_trunc."""
    if n < 1 or r < 1 or s < 1:
        raise PreconditionError("r_envelope requires n, r, s >= 1")
    yf = float(y)
    if yf <= 0:
        raise PreconditionError("r_envelope requires y > 0")
    return math.log(2.0 * yf) / yf * (tau_k(s, 2) / (r * s)) * tau_trunc(n, y, divs)
