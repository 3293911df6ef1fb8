"""Headline computations: r-weighted prime counts, progression discrepancies,
the averaged discrepancy over moduli q <= (log X)^A, its four-way divisor-range
decomposition, and the truncated product for the shifted-prime asymptotic.

All counts and main terms are exact (integers and Fractions); floating point
enters only in the final constant product and in reporting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import arith
from .errors import PreconditionError
from .sieve import (
    Params,
    check_bulk_limit,
    chi_range_sums,
    odd_primes,
    open_range,
    prime_masks,
    totient_table,
)
from .sieve import chi_divisor_sums  # noqa: F401  perfbench/tracer.py times calls here

# Entries per step of a pass over a long array (the terms of an fsum, the
# odd mask of a prime segment), so that no temporary spans it all; a
# float64 temporary of one step is 128 KiB.
REDUCTION_CHUNK = 1 << 14


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


class RangeSums(NamedTuple):
    """A divisor range's chi sums over the primes p <= X: per-class sums, total, sum of |.|."""

    classes: list[int]
    total: int
    abs_total: int


def odd_classes(a: int, moduli: list[int]) -> tuple[list[int], list[int]]:
    """Lists of s and k per q of moduli: the odd p = a (mod q) are the 2m + 1 with m = s (mod k).

    For (a, q) = 1, m = (a - 1)(q + 1)/2 (mod q) for odd q, where (q + 1)/2
    inverts 2, and m = (a - 1)/2 (mod q/2) for even q.
    """
    strides = [q if q % 2 else q // 2 for q in moduli]
    starts = [
        ((a - 1) * (q + 1) // 2 if q % 2 else (a - 1) // 2) % k for q, k in zip(moduli, strides)
    ]
    return starts, strides


def sums_at_primes(X: int, a: int, moduli: list[int], ranges, dtype=np.int16) -> list[RangeSums]:
    """Per (first, last) of ranges, the sums of chi(d) over d | p - 1, first <= d <= last, p <= X.

    classes[i] sums over p = a (mod q), q = moduli[i], (a, q) = 1, one
    strided sum over the m = (p - 1)/2 of odd_classes per block.  p = 2 adds
    b(1) where 2 = a (mod q).  abs_total is kept for a signed dtype only.
    """
    starts, strides = odd_classes(a, moduli)
    sums = []
    for first, last in ranges:
        two = int(first <= 1 <= last)
        sums.append([[two * ((2 - a) % q == 0) for q in moduli], two, two])
    signed = np.dtype(dtype).kind == "i"
    accs = itertools.cycle(sums)  # zip would hold the last window while the next is built
    for m0, w in chi_range_sums(X, ranges, dtype):
        acc = next(accs)
        acc[0] = [c + int(w[(s - m0) % k :: k].sum()) for c, s, k in zip(acc[0], starts, strides)]
        acc[1] += int(w.sum())
        if signed:
            acc[2] += int(np.abs(w, out=w).sum())
        del w  # before the next window is built
    return [RangeSums(*acc) for acc in sums]


def sum_r_shifted_primes(X: int) -> int:
    """Exact sum over primes p <= X of r(p - 1) = 4 * b((p - 1)/2)."""
    if X < 2:
        raise PreconditionError(f"sum_r_shifted_primes requires X >= 2, got {X}")
    return 4 * sums_at_primes(X, 1, [], [(1, X)], np.uint8)[0].total


def _euler_fold(p: np.ndarray, prod: float) -> float:
    """prod times 1 + chi(p)/(p(p - 1)) over the odd primes p, by the steps p(p - 1), +-1/., +1."""
    f = p.astype(np.float64)
    f *= f - 1.0
    np.divide(1 - (p & 2), f, out=f)  # chi(p) = 1 - (p & 2) at odd p
    f += 1.0
    return float(np.multiply.reduce(f, initial=prod))  # a left-to-right fold


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
    base, masks = prime_masks(bound)
    acc = _euler_fold(base[1:], 1.0)  # one product per segment fixes the bytes
    for first, mask in masks:
        prod = 1.0
        for lo in range(0, mask.size, REDUCTION_CHUNK):
            prod = _euler_fold(odd_primes(first + 2 * lo, mask[lo : lo + REDUCTION_CHUNK]), prod)
        acc *= prod
        del mask  # before the next mask is struck
    return LinnikConstant(math.pi * acc, bound, 1.0 / bound)


def discrepancy(X: int, q: int, a: int) -> DiscrepancyRow:
    """Exact r-weighted count over p = a (q), its main term, and their gap."""
    return discrepancies(X, a, [q])[0]


def discrepancies(X: int, a: int, moduli: list[int]) -> list[DiscrepancyRow]:
    """discrepancy(X, q, a) for each q of moduli, all from one pass of sums_at_primes.

    No array spans 0..X, and a sweep over q at one X reads the primes once.
    """
    if X < 2:
        raise PreconditionError(f"discrepancy requires X >= 2, got {X}")
    if a < 1 or not all(q >= 1 for q in moduli):
        raise PreconditionError("discrepancy requires q >= 1 and a >= 1")
    for q in moduli:
        if math.gcd(a, q) != 1:
            raise PreconditionError(f"gcd(a, q) must be 1, got gcd({a}, {q}) > 1")
    phis = [arith.euler_phi(q) for q in moduli]  # a q past trial division fails before sieving
    (full,) = sums_at_primes(X, a, moduli, [(1, X)], np.uint8)
    mains = [Fraction(4 * full.total, phi) for phi in phis]
    rows = zip(moduli, full.classes, mains)
    return [DiscrepancyRow(q, a, 4 * w, m, 4 * w - m) for q, w, m in rows]


def _moduli(params: Params) -> list[int]:
    """The q <= Q with (q, a) = 1; Q above X is a precondition error.

    The largest q, which sizes the totient table, is held to the bulk cap
    before the list is built.
    """
    if params.Q > params.X:
        raise PreconditionError(
            f"Q = (log X)^A = {params.Q:.6g} exceeds X = {params.X}; lower A"
        )
    top = math.floor(params.Q)
    check_bulk_limit(next(q for q in range(top, 0, -1) if math.gcd(q, params.a) == 1))
    return [q for q in range(1, top + 1) if math.gcd(q, params.a) == 1]


def _gap_sum(sums: RangeSums, phis: np.ndarray) -> Fraction:
    """Exact sum over the moduli q of |W_q - T/phi(q)|, W_q the class sums, T the total.

    phis holds the phi(q) in the classes' order.  |W_q - T/phi| = |W_q phi - T| / phi,
    so the integer gaps are summed exactly by one arith.reciprocal_sum.
    """
    gaps = (abs(w * phi - sums.total) for w, phi in zip(sums.classes, phis.tolist()))
    return arith.reciprocal_sum(phis, gaps)


def _totients(moduli: list[int]) -> np.ndarray:
    """phi(q) for the ascending moduli, read from the totient table up to the last."""
    return totient_table(moduli[-1])[moduli]


def bv_sum(params: Params) -> Fraction:
    """Sum over q <= Q with (q, a) = 1 of |weighted count - main term|, exactly."""
    moduli = _moduli(params)
    X = params.X
    (full,) = sums_at_primes(X, params.a, moduli, [(1, X)], np.uint8)
    return 4 * _gap_sum(full, _totients(moduli))


def decompose(params: Params) -> DecompositionResult:
    """The four divisor-range sums S1..S4 from strided class sums, plus the lhs.

    S1 and S2 compare progression-restricted inner sums with their
    1/phi(q)-scaled totals over the low (d <= D) and high (d >= X/D)
    divisor ranges; S3 carries 1/phi(q) outside an absolute value taken
    per prime over the middle range (D < d < X/D, the d of open_range);
    S4 is the progression-restricted middle-range sum with no main term
    subtracted.  sums_at_primes reads the ranges from the same blocks, one
    int16 window at a time (|b| <= 96).  The lhs equals bv_sum.
    """
    if params.D < 2:
        raise PreconditionError(
            f"degenerate-D: D = {params.D:.6g} < 2 leaves the range d <= D empty; "
            "override the exponent to explore this X"
        )
    X = params.X
    moduli = _moduli(params)
    first, last = open_range(params.D, X / params.D)
    ranges = [(1, first - 1), (first, last), (last + 1, X)]
    if first > last + 1:  # D >= X/D: the low and high ranges overlap
        ranges.append((1, X))  # so the lhs reads its own window
    low, mid, high, *whole = sums_at_primes(X, params.a, moduli, ranges)
    parts = whole or (low, mid, high)
    classes = [sum(c) for c in zip(*(s.classes for s in parts))]
    full = RangeSums(classes, sum(s.total for s in parts), 0)
    phis = _totients(moduli)
    S1 = _gap_sum(low, phis)
    S2 = _gap_sum(high, phis)
    S3 = mid.abs_total * arith.reciprocal_sum(phis)
    S4 = Fraction(sum(map(abs, mid.classes)))
    return DecompositionResult(S1, S2, S3, S4, 4 * _gap_sum(full, phis), params)
