"""Segmented bulk sieving engine.

Provides primes, smallest-prime-factor (SPF) tables over ranges, and the
per-integer functions built on them: the two-squares representation count
r(n), the rough-number indicator h, and the enveloping-sieve value f.
Bulk tables are numpy arrays; per-n evaluators return plain Python ints.

Memory policy: primes stream in odd-only segments of 2**22 numbers, each a
2**21-byte mask, and SPF tables are built one segment at a time and a single
table never exceeds the segment budget (default 2**22 entries).  The bulk
chi-divisor-sum, totient and Omega tables come from one prime-power kernel:
only the returned table spans the whole range 0..limit (limit at most
BULK_TABLE_LIMIT), while every working array is 32-bit and at most one
kernel segment (TABLE_SEGMENT_LENGTH = 2**16 entries) long, and nothing is
allocated at import.  The chi-divisor window arrays behind chi_range_sums
and the hooley1 checker are whole-range int32 arrays under the same cap,
like the returned tables; chi_range_sums builds its three windows one at a
time, as its caller asks for each.  The squarefree-prime product P is never
formed; only its prime support below the smoothness bound Y is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from typing import Iterator, Optional

import numpy as np

from . import arith
from .errors import ConfigurationError, PreconditionError

DEFAULT_SEGMENT_LENGTH = 1 << 22

# Largest limit for which whole-range working arrays (chi divisor sums,
# totient and Omega tables) may be materialized in one piece.
BULK_TABLE_LIMIT = 1 << 24

# Entries per segment of the prime-power kernel behind those tables; its
# 32-bit working arrays are at most this long.
TABLE_SEGMENT_LENGTH = 1 << 16


def _check_segment_length(segment_length: int) -> int:
    if segment_length is None:
        return DEFAULT_SEGMENT_LENGTH
    if segment_length < 1:
        raise ConfigurationError(
            f"segment length must be positive, got {segment_length}"
        )
    return segment_length


def _sieve_segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi), lo >= 2, as int64, from base = the primes <= sqrt(hi - 1).

    The mask holds the odd numbers only; each odd base prime strikes its odd
    multiples from max(p^2, lo), and 2 is added when the segment starts at 2.
    """
    first = lo | 1
    mask = np.ones((hi - first + 1) // 2, dtype=bool)
    for p in base[1:].tolist():
        start = max(p * p, ((first + p - 1) // p | 1) * p)
        mask[(start - first) // 2 :: p] = False
    primes = np.flatnonzero(mask)
    primes *= 2
    primes += first
    return np.insert(primes, 0, 2) if lo == 2 else primes


def _base_primes(limit: int) -> np.ndarray:
    """Primes <= limit as one segment, its own base primes found the same way."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return _sieve_segment(2, limit + 1, _base_primes(isqrt(limit)))


def iter_prime_segments(
    limit: int, segment_length: Optional[int] = None
) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays that together hold all primes <= limit.

    First the primes <= sqrt(limit), then each nonempty segment from
    sqrt(limit) + 1 on; linnik_constant's float bytes depend on this split.
    """
    segment_length = _check_segment_length(segment_length)
    if limit < 2:
        return
    root = isqrt(limit)
    base = _base_primes(root)
    yield base
    for lo in range(root + 1, limit + 1, segment_length):
        seg = _sieve_segment(lo, min(lo + segment_length, limit + 1), base)
        if seg.size:
            yield seg


def primes_up_to(limit: int, segment_length: Optional[int] = None) -> list[int]:
    """Exactly the primes <= limit, ascending."""
    if limit < 0:
        raise PreconditionError(f"primes_up_to requires limit >= 0, got {limit}")
    out: list[int] = []
    for seg in iter_prime_segments(limit, segment_length):
        out.extend(seg.tolist())
    return out


@lru_cache(maxsize=8)
def prime_array(limit: int) -> np.ndarray:
    """Cached read-only array of primes <= limit."""
    segs = list(iter_prime_segments(limit))
    arr = np.concatenate(segs) if segs else np.empty(0, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FactorTable:
    """Smallest prime factors for the range [lo, hi).

    spf[n - lo] is the least prime dividing n, n itself when n is prime,
    and the sentinel 1 for the unit n = 1.
    """

    lo: int
    hi: int
    spf: np.ndarray


def factor_table(
    lo: int, hi: int, segment_length: Optional[int] = None
) -> FactorTable:
    """SPF table for [lo, hi); (hi - lo) must fit the segment budget."""
    segment_length = _check_segment_length(segment_length)
    if not 1 <= lo < hi:
        raise PreconditionError(f"factor_table requires 1 <= lo < hi, got [{lo}, {hi})")
    if hi - lo > segment_length:
        raise ConfigurationError(
            f"range [{lo}, {hi}) exceeds the segment budget of {segment_length} entries"
        )
    if hi > 1 << 32:
        raise ConfigurationError("SPF entries are 32-bit; hi must not exceed 2**32")
    spf = np.zeros(hi - lo, dtype=np.uint32)
    for p in _base_primes(isqrt(hi - 1)).tolist():
        view = spf[max(p * p, (lo + p - 1) // p * p) - lo :: p]
        view[view == 0] = p
    # Untouched entries are primes, plus the unit 1 which is its own sentinel.
    left = np.flatnonzero(spf == 0)
    spf[left] = (left + lo).astype(np.uint32)
    spf.flags.writeable = False  # tables are immutable and safe to share
    return FactorTable(lo, hi, spf)


def factorize(
    n: int, table: Optional[FactorTable] = None, fallback: bool = True
) -> list[tuple[int, int]]:
    """Complete prime factorization [(p, e), ...] with primes ascending.

    Uses the SPF table while the running cofactor stays inside its range
    and falls back to direct division otherwise; with fallback disabled an
    out-of-range cofactor is a precondition violation.
    """
    if n < 1:
        raise PreconditionError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    m = n
    while m > 1:
        if table is not None and table.lo <= m < table.hi:
            p = int(table.spf[m - table.lo])
        elif table is None or fallback:
            # Remaining cofactor has no factor below any prime already taken,
            # so its trial factorization extends the list in order.
            out.extend(arith.factorize_trial(m))
            return out
        else:
            raise PreconditionError(
                f"{m} is outside the factor table range [{table.lo}, {table.hi}) "
                "and fallback is disabled"
            )
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return out


def divisors_of(n: int, table: Optional[FactorTable] = None) -> list[int]:
    """Sorted divisors of n, expanded from its factorization."""
    divs = [1]
    for p, e in factorize(n, table):
        pk = 1
        ext = []
        for _ in range(e):
            pk *= p
            ext.extend(d * pk for d in divs)
        divs.extend(ext)
    divs.sort()
    return divs


def r_two_squares(n: int, table: Optional[FactorTable] = None) -> int:
    """Representations n = x^2 + y^2 counting signs and order, via factorization.

    Zero as soon as a prime 3 mod 4 divides n to an odd power, otherwise
    4 times the product of (e + 1) over primes 1 mod 4.
    """
    if n < 1:
        raise PreconditionError(f"r_two_squares requires n >= 1, got {n}")
    out = 4
    for p, e in factorize(n, table):
        rem = p % 4
        if rem == 3:
            if e % 2:
                return 0
        elif rem == 1:
            out *= e + 1
    return out


def r_via_identity(n: int) -> int:
    """r(n) as 4 * sum of chi over the divisors of n.

    Divisors come from direct trial enumeration, keeping this path
    independent of the factorization machinery behind r_two_squares.
    """
    if n < 1:
        raise PreconditionError(f"r_via_identity requires n >= 1, got {n}")
    return 4 * sum(arith.chi(d) for d in arith.divisors(n))


@dataclass(frozen=True)
class Params:
    """Global parameters: the range bound X, moduli exponent A, residue a.

    Derived quantities are recomputed at construction and never mutated:
    Q = (log X)^A, D = sqrt(X)/(log X)^(A+14), Y = X^(1/(loglog X)^2), and
    primes_y lists the primes up to Y.  The exponent A+14 in D may be
    overridden for desk-scale exploration; outputs flag the override.
    """

    X: int
    A: float
    a: int = 1
    override_exponent: Optional[float] = None
    Q: float = field(init=False, repr=False, compare=False)
    D: float = field(init=False, repr=False, compare=False)
    Y: float = field(init=False, repr=False, compare=False)
    primes_y: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.X < 16:
            raise PreconditionError(
                f"X must be at least 16 so that loglog X is positive, got {self.X}"
            )
        if not (math.isfinite(self.A) and self.A >= 0):
            raise PreconditionError(f"A must be finite and nonnegative, got {self.A}")
        if self.a < 1:
            raise PreconditionError(f"a must be a positive integer, got {self.a}")
        exponent = self.exponent
        if not math.isfinite(exponent):
            raise PreconditionError(f"the exponent of log X in D must be finite, got {exponent}")
        log_x = math.log(self.X)
        try:
            Q = log_x**self.A
            D = math.sqrt(self.X) / log_x**exponent
            Y = self.X ** (1.0 / math.log(log_x) ** 2)
        except (OverflowError, ZeroDivisionError):
            Q = D = Y = math.inf
        if not all(map(math.isfinite, (Q, D, Y))):
            raise PreconditionError(
                f"Q, D or Y overflows a float at X = {self.X}, A = {self.A}, "
                f"exponent {exponent}"
            )
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "primes_y", tuple(primes_up_to(int(self.Y))))
        object.__setattr__(self, "_prime_set_y", frozenset(self.primes_y))

    @property
    def exponent(self) -> float:
        return self.A + 14.0 if self.override_exponent is None else float(self.override_exponent)


def h_indicator(n: int, params: Params) -> int:
    """1 when n has no prime factor <= Y, else 0.

    Tests divisibility by the primes below Y directly; the product P of
    those primes is never formed.
    """
    if n < 1:
        raise PreconditionError(f"h_indicator requires n >= 1, got {n}")
    for p in params.primes_y:
        if n % p == 0:
            return 0
    return 1


def f_enveloping(n: int, params: Params) -> int:
    """Enveloping-sieve value g(n) + h(n), always 0 or 1 and 1 on primes.

    g is the indicator of primes not exceeding Y; any such prime divides P,
    so g and h are never 1 together.
    """
    if n < 1:
        raise PreconditionError(f"f_enveloping requires n >= 1, got {n}")
    g = 1 if n in params._prime_set_y else 0
    return g + h_indicator(n, params)


def check_bulk_limit(limit: int) -> None:
    if limit > BULK_TABLE_LIMIT:
        raise ConfigurationError(
            f"whole-range table for limit {limit} exceeds the bulk cap of "
            f"{BULK_TABLE_LIMIT}; this toolkit targets desk-scale ranges"
        )


def _prime_power_table(limit: int, dtype, identity: int, local, leftover) -> np.ndarray:
    """Table over 0..limit folded from the prime powers of each n.

    Walks [1, limit] in segments of TABLE_SEGMENT_LENGTH entries.  In each
    segment every prime p <= sqrt(limit) is divided out of the cofactor
    array rem through strided views, one stride p^k per power, while e
    counts the exponent of p at the multiples of p; local(view, p, e) then
    folds p^e into the table entries at those multiples.  After the rounds
    rem is 1 or the one prime factor above sqrt(limit), which
    leftover(view, rem) folds in.  Entries start at identity; index 0 is 0.
    """
    out = np.full(limit + 1, identity, dtype=dtype)
    out[0] = 0
    base = _base_primes(isqrt(limit)).tolist()
    ones = np.ones(TABLE_SEGMENT_LENGTH, dtype=np.int32)
    for lo in range(1, limit + 1, TABLE_SEGMENT_LENGTH):
        hi = min(lo + TABLE_SEGMENT_LENGTH, limit + 1)
        seg = out[lo:hi]
        rem = np.arange(lo, hi, dtype=np.int32)
        for p in base:
            start = -lo % p
            view = seg[start::p]
            e = ones[: view.size].copy()
            rem[start::p] //= p
            pk = p * p
            while pk < hi:
                first = -lo % pk
                if first < hi - lo:
                    e[(first - start) // p :: pk // p] += 1
                    rem[first::pk] //= p
                pk *= p
            local(view, p, e)
        leftover(seg, rem)
    return out


def _chi_local(view, p, e):
    # sum of chi(p^k) over k <= e
    if p % 4 == 1:
        view *= e + 1
    elif p % 4 == 3:
        view *= 1 - (e & 1)


def _chi_leftover(view, rem):
    # 1 + chi(q) for a leftover prime q: 0 when q = 3 (mod 4), 2 when q = 1.
    r = rem & 3
    view *= r != 3
    np.multiply(view, 2, out=view, where=(r == 1) & (rem > 1))


@lru_cache(maxsize=4)
def chi_divisor_sums(limit: int) -> np.ndarray:
    """Array b with b[n] = sum of chi(d) over divisors d of n, 0 <= n <= limit.

    b is multiplicative: b(2^e) = 1, b(p^e) = e + 1 for p = 1 (mod 4), and
    for p = 3 (mod 4) b(p^e) is 1 when e is even, else 0.  By the
    two-squares identity, r(n) = 4 * b[n].
    """
    check_bulk_limit(limit)
    b = _prime_power_table(limit, np.int32, 1, _chi_local, _chi_leftover)
    b.flags.writeable = False
    return b


def _chi_divisor_window(limit: int, first: int, last: int) -> np.ndarray:
    """int32 array w over 0..limit with w[n] = sum of chi(d) over d | n, first <= d <= last.

    An odd d <= sqrt(limit) adds chi(d) along the slice w[d::d].  A larger
    d has cofactor e = n/d <= sqrt(limit) (Hooley's switch d <-> n/d), so
    each such e scatters chi(d) onto w[e*d] for the window's odd d up to
    limit // e, taken TABLE_SEGMENT_LENGTH of them at a time.  Even d add
    nothing, since chi vanishes there.
    """
    check_bulk_limit(limit)
    w = np.zeros(limit + 1, dtype=np.int32)
    first, last = max(first, 1), min(last, limit)
    root = isqrt(limit)
    for d in range(first | 1, min(last, root) + 1, 2):
        w[d::d] += 1 - (d & 2)
    step = 2 * TABLE_SEGMENT_LENGTH
    for lo in range(max(first, root + 1) | 1, last + 1, step):
        ds = np.arange(lo, min(lo + step, last + 1), 2, dtype=np.int32)
        chi = 1 - (ds & 2)
        for e in range(1, limit // lo + 1):
            k = min(ds.size, (limit // e - lo) // 2 + 1)
            w[e * ds[:k]] += chi[:k]
    return w


def chi_range_sums(limit: int, D: float) -> Iterator[np.ndarray]:
    """Per-n chi sums over divisors split at D and limit/D.

    Yields low, mid and high in turn, each built only when asked for, with
    low[n] summing chi(d) over d | n, d <= D, mid over D < d < limit/D, and
    high over d >= limit/D.  For an integer d these are the windows
    [1, floor(D)], [floor(D) + 1, ceil(limit/D) - 1] and [ceil(limit/D),
    limit], so each inequality keeps its meaning; when D >= limit/D the mid
    window is empty and low and high overlap.
    """
    upper = limit / D
    cut = math.floor(D)
    top = math.ceil(upper) if upper < math.inf else limit + 1
    yield _chi_divisor_window(limit, 1, cut)
    yield _chi_divisor_window(limit, cut + 1, top - 1)
    yield _chi_divisor_window(limit, top, limit)


def _phi_local(view, p, e):
    view *= (p - 1) * np.power(p, e - 1)


def _phi_leftover(view, rem):
    view *= np.where(rem > 1, rem - 1, 1)


@lru_cache(maxsize=4)
def totient_table(limit: int) -> np.ndarray:
    """Euler phi for 0..limit as an int64 array (phi[0] = 0)."""
    check_bulk_limit(limit)
    phi = _prime_power_table(limit, np.int64, 1, _phi_local, _phi_leftover)
    phi.flags.writeable = False
    return phi


def _omega_local(view, p, e):
    np.add(view, e, out=view, casting="unsafe")


def _omega_leftover(view, rem):
    view += rem > 1


@lru_cache(maxsize=4)
def omega_table(limit: int) -> np.ndarray:
    """Omega (prime factors with multiplicity) for 0..limit as uint8."""
    check_bulk_limit(limit)
    om = _prime_power_table(limit, np.uint8, 0, _omega_local, _omega_leftover)
    om.flags.writeable = False
    return om
