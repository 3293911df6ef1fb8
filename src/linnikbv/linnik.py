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
    check_bulk_limit,
    chi_divisor_sums,
    chi_range_sums,
    iter_prime_segments,
    odd_prime_mask,
    totient_table,
)


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
    """Exact sum over primes p <= X of r(p - 1) = 4 * the chi table read by _at_primes."""
    if X < 2:
        raise PreconditionError(f"sum_r_shifted_primes requires X >= 2, got {X}")
    check_bulk_limit(X)  # as bvsum's, though no array here spans 0..X
    half, mask, two = _at_primes(chi_divisor_sums(X // 2), X)
    return 4 * (two + int(half[mask].sum()))


def linnik_constant(tolerance: float) -> LinnikConstant:
    """pi times the product of (1 + chi(p)/(p(p-1))) over odd primes p <= B.

    B is the least bound making the comparison tail sum over all integers,
    1/B, no larger than the requested tolerance; that bound dominates the
    prime tail of the log of the product.  A B above the streaming limit
    of the prime sieve (a tolerance below about 1e-9) is a precondition
    error, raised before any sieving.
    """
    if not 0 < tolerance < math.inf or 1.0 / tolerance == math.inf:
        raise PreconditionError(
            f"tolerance and its reciprocal must be positive and finite, got {tolerance}"
        )
    bound = max(3, math.ceil(1.0 / tolerance))
    acc = 1.0
    for seg in iter_prime_segments(bound):
        seg = seg[np.searchsorted(seg, 3) :]  # the odd primes, as a view
        if seg.size == 0:
            continue
        # 1 + chi(p)/(p(p - 1)) in place, one IEEE operation per step as in
        # the whole expression, so the bytes are the same and at most three
        # arrays the size of the segment are alive at once.
        den = seg.astype(np.float64)
        den *= den - 1.0
        factors = np.where(seg % 4 == 1, 1.0, -1.0)
        factors /= den
        factors += 1.0
        acc *= float(np.prod(factors))
        del den, factors  # before the next segment is sieved
    return LinnikConstant(math.pi * acc, bound, 1.0 / bound)


def discrepancy(X: int, q: int, a: int) -> DiscrepancyRow:
    """Exact r-weighted count over p = a (q), its main term, and their gap.

    The class sum and the total are both masked gathers of the chi table,
    as in sum_r_shifted_primes, so no array spans 0..X.
    """
    if X < 2:
        raise PreconditionError(f"discrepancy requires X >= 2, got {X}")
    if q < 1 or a < 1:
        raise PreconditionError("discrepancy requires q >= 1 and a >= 1")
    if math.gcd(a, q) != 1:
        raise PreconditionError(f"gcd(a, q) must be 1, got gcd({a}, {q}) > 1")
    check_bulk_limit(X)  # as bvsum's, though no array here spans 0..X
    phi = arith.euler_phi(q)  # a q past the trial-division limit fails before any sieving
    half, mask, two = _at_primes(chi_divisor_sums(X // 2), X)
    weighted = 4 * next(_class_sums(half, two, a, [q], mask))
    main = Fraction(4 * (two + int(half[mask].sum())), phi)
    return DiscrepancyRow(q, a, weighted, main, weighted - main)


def _at_primes(arr: np.ndarray, X: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(arr[:n], odd_prime_mask(X), arr[1]): a chi array over m = 0..X // 2 read at the primes <= X.

    chi(d) = 0 at even d, so a chi-divisor sum b has b(2m) = b(m), and an
    odd prime p reads b((p - 1)/2), entry m of the n = (X + 1) // 2 that the
    mask covers; at even X, entry X/2 would be p = X + 1.  p = 2 reads b(1).
    """
    mask = odd_prime_mask(X)
    return arr[: mask.size], mask, int(arr[1])


def _masked(window: np.ndarray, X: int) -> tuple[np.ndarray, int]:
    """_at_primes's column of a fresh window, zeroed in place off the odd primes, and its value at 2."""
    col, mask, two = _at_primes(window, X)
    col *= mask
    return col, two


def _moduli(params: Params) -> list[int]:
    """The q <= Q with (q, a) = 1; Q above X is a precondition error."""
    if params.Q > params.X:
        raise PreconditionError(
            f"Q = (log X)^A = {params.Q:.6g} exceeds X = {params.X}; lower A"
        )
    return [q for q in range(1, math.floor(params.Q) + 1) if math.gcd(q, params.a) == 1]


def _class_sums(col: np.ndarray, two: int, a: int, moduli: list[int], mask=None):
    """Yield, for each modulus q, the sum of a chi array over the primes p = a (mod q), (a, q) = 1.

    col is laid out by m = (p - 1)/2, as _at_primes reads it, and is 0 off
    the odd primes unless their mask is given.  2m + 1 = a (mod q) is
    m = (a - 1)(q + 1)/2 (mod q) for odd q, where (q + 1)/2 inverts 2, and
    m = (a - 1)/2 (mod q/2) for even q and odd a: one strided sum, plus
    two, the value at p = 2, when 2 = a (mod q).
    """
    for q in moduli:
        if q % 2:
            odd = slice((a - 1) * (q + 1) // 2 % q, None, q)
        else:
            odd = slice((a - 1) // 2 % (q // 2), None, q // 2)
        vals = col[odd] if mask is None else col[odd][mask[odd]]
        yield int(vals.sum()) + two * ((2 - a) % q == 0)


def _gap_sum(col: np.ndarray, two: int, a: int, moduli: list[int]) -> Fraction:
    """Exact sum over the moduli q of |W_q - T/phi(q)|, W_q from _class_sums and T the total.

    The whole average costs about (X/2) log Q reads.  |W_q - T/phi| =
    |W_q phi - T| / phi, so the integer gaps are summed exactly by
    arith.reciprocal_sum over their phi(q).
    """
    total = int(col.sum()) + two
    phis = _totients(moduli)
    gaps = (
        abs(w * phi - total) for w, phi in zip(_class_sums(col, two, a, moduli), map(int, phis))
    )
    return arith.reciprocal_sum(phis, gaps)


def _totients(moduli: list[int]) -> np.ndarray:
    """phi(q) for the ascending moduli, read from the totient table up to the last."""
    return totient_table(moduli[-1])[moduli]


def bv_sum(params: Params) -> Fraction:
    """Sum over q <= Q with (q, a) = 1 of |weighted count - main term|, exactly."""
    moduli = _moduli(params)
    X = params.X
    check_bulk_limit(X)  # before any sieving
    half, mask, two = _at_primes(chi_divisor_sums(X // 2), X)
    return 4 * _gap_sum(half * mask, two, params.a, moduli)


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
    """The four divisor-range sums S1..S4 from strided class sums, plus the lhs.

    S1 and S2 compare progression-restricted inner sums with their
    1/phi(q)-scaled totals over the low (d <= D) and high (d >= X/D)
    divisor ranges; S3 carries 1/phi(q) outside an absolute value taken
    per prime over the middle range; S4 is the progression-restricted
    middle-range sum with no main term subtracted.  The three int16 chi
    windows span 0..X // 2 and are built one at a time; each is masked in
    place by _masked and read by the class sums of bv_sum.  The lhs is bv_sum.
    """
    if params.D < 2:
        raise PreconditionError(
            f"degenerate-D: D = {params.D:.6g} < 2 leaves the range d <= D empty; "
            "override the exponent to explore this X"
        )
    X, a = params.X, params.a
    moduli = _moduli(params)
    check_bulk_limit(X)
    # Each window is a bare next() result, so none outlives its column,
    # and the chi table behind the lhs is built only once they are gone.
    windows = chi_range_sums(X // 2, params.D, X / params.D)
    S1 = _gap_sum(*_masked(next(windows), X), a, moduli)
    mid, two = _masked(next(windows), X)
    S4 = Fraction(sum(abs(w) for w in _class_sums(mid, two, a, moduli)))
    mid_abs = abs(two) + int(np.abs(mid, out=mid).sum())
    del mid
    S3 = mid_abs * arith.reciprocal_sum(_totients(moduli))
    S2 = _gap_sum(*_masked(next(windows), X), a, moduli)
    return DecompositionResult(S1, S2, S3, S4, bv_sum(params), params)
