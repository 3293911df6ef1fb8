"""Headline computations: r-weighted prime counts, progression discrepancies,
the averaged discrepancy over moduli q <= (log X)^A, its four-way divisor-range
decomposition, and the truncated product for the shifted-prime asymptotic.

All counts and main terms are exact (integers and Fractions); floating point
enters only in the final constant product and in reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from .errors import PreconditionError
from .sieve import (
    Params,
    chi_divisor_sums,
    chi_range_sums,
    iter_prime_segments,
    prime_array,
)

# Entries per step of a reduction over a long array (the primes placed in
# the weight array, the terms of an fsum), so that no temporary spans it all.
REDUCTION_CHUNK = 1 << 16


@dataclass(frozen=True)
class DiscrepancyRow:
    """One progression: its r-weighted prime count against the main term."""

    q: int
    a: int
    weighted_count: int
    main_term: Fraction
    discrepancy: Fraction


@dataclass(frozen=True)
class DecompositionResult:
    """The four divisor-range sums plus the exact averaged discrepancy."""

    S1: Fraction
    S2: Fraction
    S3: Fraction
    S4: Fraction
    lhs: Fraction
    params: Params

    @property
    def total(self) -> Fraction:
        return self.S1 + self.S2 + self.S3 + self.S4


@dataclass(frozen=True)
class LinnikConstant:
    """Truncated shifted-prime constant with its truncation point and tail."""

    value: float
    prime_bound: int
    tail_bound: float


def theta0() -> float:
    """The error-saving exponent 1/2 - e*log(2)/4 = 0.0289..."""
    return 0.5 - 0.25 * math.e * math.log(2.0)


def sum_r_shifted_primes(X: int) -> int:
    """Exact sum of r(p - 1) over primes p <= X.

    Four times the sum of the prime-weight array (see _prime_weights), which
    holds r(p - 1)/4 = sum of chi over the divisors of p - 1 at each prime.
    """
    if X < 2:
        raise PreconditionError(f"sum_r_shifted_primes requires X >= 2, got {X}")
    return 4 * int(_prime_weights(X).sum())


def linnik_constant(tolerance: float) -> LinnikConstant:
    """pi times the product of (1 + chi(p)/(p(p-1))) over odd primes p <= B.

    B is the least bound making the comparison tail sum over all integers,
    1/B, no larger than the requested tolerance; that bound dominates the
    prime tail of the log of the product.
    """
    if not 0 < tolerance < math.inf:
        raise PreconditionError(f"tolerance must be positive and finite, got {tolerance}")
    bound = max(3, math.ceil(1.0 / tolerance))
    acc = 1.0
    for seg in iter_prime_segments(bound):
        seg = seg[seg > 2]
        if seg.size == 0:
            continue
        p = seg.astype(np.float64)
        factors = 1.0 + np.where(seg % 4 == 1, 1.0, -1.0) / (p * (p - 1.0))
        acc *= float(np.prod(factors))
    return LinnikConstant(math.pi * acc, bound, 1.0 / bound)


def discrepancy(X: int, q: int, a: int) -> DiscrepancyRow:
    """Exact r-weighted count over p = a (q), its main term, and their gap."""
    if X < 2:
        raise PreconditionError(f"discrepancy requires X >= 2, got {X}")
    if q < 1 or a < 1:
        raise PreconditionError("discrepancy requires q >= 1 and a >= 1")
    if math.gcd(a, q) != 1:
        raise PreconditionError(f"gcd(a, q) must be 1, got gcd({a}, {q}) > 1")
    w = _prime_weights(X)
    weighted = 4 * int(w[a % q :: q].sum())
    main = Fraction(4 * int(w.sum()), arith.euler_phi(q))
    return DiscrepancyRow(q, a, weighted, main, weighted - main)


def _prime_weights(X: int) -> np.ndarray:
    """uint8 array w over 0..X with w[p] = r(p - 1)/4 at primes p, 0 elsewhere.

    The residue-class sum over p = a (q), p <= X, is then the strided sum
    w[a % q :: q].sum().  r/4 is at most 48 below the bulk cap, so it fits
    a byte.  Filled chunk by chunk so that no index or value temporary
    spans all the primes.  The chi table comes first: it enforces the bulk
    cap before any sieving starts.
    """
    b = chi_divisor_sums(X)
    primes = prime_array(X)
    w = np.zeros(X + 1, dtype=np.uint8)
    for lo in range(0, len(primes), REDUCTION_CHUNK):
        p = primes[lo : lo + REDUCTION_CHUNK]
        w[p] = b[p - 1]
    return w


def _moduli(params: Params) -> list[int]:
    """The q <= Q with (q, a) = 1; Q above X is a precondition error."""
    if params.Q > params.X:
        raise PreconditionError(
            f"Q = (log X)^A = {params.Q:.6g} exceeds X = {params.X}; lower A"
        )
    return [q for q in range(1, math.floor(params.Q) + 1) if math.gcd(q, params.a) == 1]


def bv_sum(params: Params) -> Fraction:
    """Sum over q <= Q with (q, a) = 1 of |weighted count - main term|.

    The prime weights are laid out once by n (see _prime_weights); each
    modulus reads its residue class as one strided sum, so the whole
    average costs about X log Q reads instead of a mask over every prime
    per modulus.  The terms are grouped by phi = phi(q):
    |W_q - T/phi| = |W_q phi - T| / phi, so each group adds integers and
    one Fraction is built per distinct phi; the sum stays exact.
    """
    moduli = _moduli(params)
    w = _prime_weights(params.X)
    total = 4 * int(w.sum())
    a = params.a
    groups: dict[int, int] = {}
    for q in moduli:
        phi = arith.euler_phi(q)
        gap = abs(4 * int(w[a % q :: q].sum()) * phi - total)
        groups[phi] = groups.get(phi, 0) + gap
    return sum((Fraction(gap, phi) for phi, gap in groups.items()), Fraction(0))


def split_r_by_ranges(p: int, params: Params) -> tuple[int, int, int]:
    """chi sums over divisors of p - 1 in the ranges cut at D and X/D.

    Four times the combined total recovers r(p - 1) whenever the two cut
    points do not cross (D < X/D), which holds for every nonnegative
    exponent choice except D = sqrt(X) exactly.
    """
    if p > params.X:
        raise PreconditionError(f"p = {p} exceeds X = {params.X}")
    if p < 2 or arith.factorize_trial(p) != [(p, 1)]:
        raise PreconditionError(f"p = {p} is not prime")
    D = params.D
    upper = params.X / D
    low = mid = high = 0
    for d in arith.divisors(p - 1):
        c = arith.chi(d)
        if d <= D:
            low += c
        if D < d < upper:
            mid += c
        if d >= upper:
            high += c
    return low, mid, high


def decompose(params: Params) -> DecompositionResult:
    """The four divisor-range sums S1..S4 by direct summation, plus the lhs.

    S1 and S2 compare progression-restricted inner sums with their
    1/phi(q)-scaled totals over the low (d <= D) and high (d >= X/D)
    divisor ranges; S3 carries 1/phi(q) outside an absolute value taken
    per prime over the middle range; S4 is the progression-restricted
    middle-range sum with no main term subtracted.
    """
    if params.D < 2:
        raise PreconditionError(
            f"degenerate-D: D = {params.D:.6g} < 2 leaves the range d <= D empty; "
            "override the exponent to explore this X"
        )
    X, a = params.X, params.a
    moduli = _moduli(params)
    low, mid, high = chi_range_sums(X, params.D)
    primes = prime_array(X)
    vl = low[primes - 1].astype(np.int64)
    vm = mid[primes - 1].astype(np.int64)
    vh = high[primes - 1].astype(np.int64)
    vr = chi_divisor_sums(X)[primes - 1]
    t_low = int(vl.sum())
    t_high = int(vh.sum())
    t_mid_abs = int(np.abs(vm).sum())
    t_r = 4 * int(vr.sum())

    def terms(q):
        phi = arith.euler_phi(q)
        mask = primes % q == a % q
        s1 = abs(Fraction(int(vl[mask].sum())) - Fraction(t_low, phi))
        s2 = abs(Fraction(int(vh[mask].sum())) - Fraction(t_high, phi))
        s3 = Fraction(t_mid_abs, phi)
        s4 = abs(int(vm[mask].sum()))
        lhs_q = abs(Fraction(4 * int(vr[mask].sum())) - Fraction(t_r, phi))
        return s1, s2, s3, s4, lhs_q

    parts = [terms(q) for q in moduli]
    S = [sum(col, Fraction(0)) for col in zip(*parts)] if parts else [Fraction(0)] * 5
    return DecompositionResult(S[0], S[1], S[2], S[3], S[4], params)
