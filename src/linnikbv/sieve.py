"""Segmented bulk sieving engine.

Provides primes and the per-integer functions built on them: the
two-squares representation count r(n), the rough-number indicator h, and
the enveloping-sieve value f.  Bulk tables are numpy arrays; per-n
evaluators return plain Python ints.

Memory policy: primes stream in odd-only segments of SEGMENT_LENGTH = 2**22
numbers, each a 2**21-byte odd_mask struck by the one striking loop _strike;
the stream lets go of each segment it yields, so a consumer that drops it
too holds one segment while the next is sieved (prime_masks hands out the
masks themselves).  Totient, sigma and Omega values come from one
prime-power kernel in segments of TABLE_SEGMENT_LENGTH = 2**16 entries, no
working array longer than one: totient_segments and omega_segments yield
them, and only a bulk table (limit at most BULK_TABLE_LIMIT) spans the
whole range 0..limit.  Nothing is allocated at import.  Every chi-divisor
array comes from one window kernel, by strided slice adds alone.
chi_range_sums reads b(m) at m = (p - 1)/2 (chi vanishes at even d, so
b(2m) = b(m)) one block of m at a time, holding one window, whose entries
at odd composites 2m + 1 _strike zeroes in place, so no array spans the
range and it runs to STREAM_LIMIT; chi_divisor_sums is the kernel over a
whole range under the bulk cap, cached.  The squarefree-prime product P is
never formed; only its prime support below the smoothness bound Y is
stored.  No prime stream goes past STREAM_LIMIT = 2**30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from typing import Iterator, Optional

import numpy as np

from . import arith
from .errors import ConfigurationError, PreconditionError, brief_int

# Numbers per prime segment past sqrt(limit); linnik_constant's float bytes
# depend on this split.
SEGMENT_LENGTH = 1 << 22

# Largest limit for which whole-range working arrays (chi divisor sums,
# totient and Omega tables) may be materialized in one piece.
BULK_TABLE_LIMIT = 1 << 24

# Entries per segment of the prime-power kernel behind the totient and
# Omega tables; its 32-bit working arrays are at most this long.
TABLE_SEGMENT_LENGTH = 1 << 16

# Largest limit any prime stream sieves to: 10**8 takes about a second,
# and far larger limits would sieve for minutes.
STREAM_LIMIT = 1 << 30


def check_stream_limit(limit: int) -> None:
    if not 0 <= limit <= STREAM_LIMIT:
        raise PreconditionError(f"limit {brief_int(limit)} is outside the streaming limit 0..2**30")


def _strike(arr: np.ndarray, first: int, base: np.ndarray) -> None:
    """Zero in place the entries of arr at odd composites; entry i stands for first + 2i, first odd.

    Each odd prime p of base strikes its odd multiples from max(p^2, first);
    base holds the primes <= sqrt of the last number, and larger ones strike
    nothing.
    """
    for p in base[1:].tolist():
        start = max(p * p, ((first + p - 1) // p | 1) * p)
        arr[(start - first) // 2 :: p] = 0


def odd_mask(first: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Bool array over the odd first + 2i < hi, first >= 3, true at primes; base as _strike's."""
    odd = np.ones((hi - first + 1) // 2, dtype=bool)
    _strike(odd, first, base)
    return odd


def odd_primes(first: int, mask: np.ndarray) -> np.ndarray:
    """The int64 first + 2i at the true entries i of an odd_mask."""
    primes = np.flatnonzero(mask)
    primes *= 2
    primes += first
    return primes


def _base_primes(limit: int) -> np.ndarray:
    """Primes <= limit as one segment: 2, then one odd_mask's, its base found the same way."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return np.insert(odd_primes(3, odd_mask(3, limit + 1, _base_primes(isqrt(limit)))), 0, 2)


def prime_masks(limit: int) -> tuple[np.ndarray, Iterator[tuple[int, np.ndarray]]]:
    """The primes <= sqrt(limit), then (first, odd_mask) per SEGMENT_LENGTH numbers past them.

    2 is in no mask, and none is kept once yielded.  A limit outside
    0..STREAM_LIMIT is a precondition error, raised before any sieving.
    """
    check_stream_limit(limit)
    root = isqrt(limit)
    base = _base_primes(root)
    masks = (
        (lo | 1, odd_mask(lo | 1, min(lo + SEGMENT_LENGTH, limit + 1), base))
        for lo in range(root + 1, limit + 1, SEGMENT_LENGTH)
    )
    return base, masks


def iter_prime_segments(limit: int) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays that together hold all primes <= limit.

    First the primes <= sqrt(limit), then the nonempty primes of each mask of
    prime_masks, 2 put in front of the first when limit is 2 or 3.  Limits as
    in prime_masks.
    """
    base, masks = prime_masks(limit)
    if limit < 2:
        return
    yield base
    two = not base.size  # limits 2 and 3: 2 leads the first mask's primes
    for first, mask in masks:
        seg = odd_primes(first, mask)
        del mask
        if two:
            seg, two = np.insert(seg, 0, 2), False
        if seg.size:
            yield seg
        del seg  # so a consumer that drops it holds one segment while the next is sieved


def primes_up_to(limit: int) -> list[int]:
    """Exactly the primes <= limit, ascending."""
    return [p for seg in iter_prime_segments(limit) for p in seg.tolist()]


@lru_cache(maxsize=8)
def prime_array(limit: int) -> np.ndarray:
    """Cached read-only array of primes <= limit."""
    segs = list(iter_prime_segments(limit))
    arr = np.concatenate(segs) if segs else np.empty(0, dtype=np.int64)
    arr.flags.writeable = False
    return arr


def divisors_of(n: int) -> list[int]:
    """Sorted divisors of n, expanded from its trial factorization."""
    divs = [1]
    for p, e in arith.factorize_trial(n):
        pk = 1
        ext = []
        for _ in range(e):
            pk *= p
            ext.extend(d * pk for d in divs)
        divs.extend(ext)
    divs.sort()
    return divs


def r_two_squares(n: int) -> int:
    """Representations n = x^2 + y^2 counting signs and order, via factorization.

    Zero as soon as a prime 3 mod 4 divides n to an odd power, otherwise
    4 times the product of (e + 1) over primes 1 mod 4.
    """
    if n < 1:
        raise PreconditionError(f"r_two_squares requires n >= 1, got {n}")
    out = 4
    for p, e in arith.factorize_trial(n):
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
            f"whole-range table for limit {brief_int(limit)} exceeds the bulk cap of "
            f"{BULK_TABLE_LIMIT}; this toolkit targets desk-scale ranges"
        )


def _prime_power_segments(limit: int, dtype, identity: int, local, leftover):
    """Yield the table over [1, limit] folded from the prime powers of each n, a segment at a time.

    Each segment holds TABLE_SEGMENT_LENGTH entries (the last may be
    shorter), starting at identity.  In each segment every prime
    p <= sqrt(limit) is divided out of the cofactor array rem through
    strided views, one stride p^k per power, while e counts the exponent of
    p at the multiples of p; local(view, p, e) then folds p^e into the
    entries at those multiples.  After the rounds rem is 1 or the one prime
    factor above sqrt(limit), which leftover(seg, rem) folds in; each may
    overwrite e or rem, which die after the call.
    """
    base = _base_primes(isqrt(limit)).tolist()
    ones = np.ones(min(TABLE_SEGMENT_LENGTH, limit), dtype=np.int32)
    for lo in range(1, limit + 1, TABLE_SEGMENT_LENGTH):
        hi = min(lo + TABLE_SEGMENT_LENGTH, limit + 1)
        seg = np.full(hi - lo, identity, dtype=dtype)
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
        yield seg


def _prime_power_table(limit: int, dtype, segments) -> np.ndarray:
    """The segments over 1..limit laid into one read-only table over 0..limit; index 0 is 0."""
    out = np.empty(limit + 1, dtype=dtype)
    out[0] = 0
    lo = 1
    for seg in segments:
        out[lo : lo + seg.size] = seg
        lo += seg.size
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4)
def chi_divisor_sums(limit: int) -> np.ndarray:
    """uint8 array b with b[n] = sum of chi(d) over divisors d of n, 0 <= n <= limit.

    The window of _chi_divisor_window over every d, cached and read-only;
    r(n) = 4 * b[n], and b[2n] = b[n] since chi(d) = 0 at even d.
    Built mod 256, which is exact since every b[n] is in 0..96 for n < 2**29.
    """
    b = _chi_divisor_window(limit, 1, limit, np.uint8)
    b.flags.writeable = False
    return b


def open_range(lo: float, hi: float) -> tuple[int, int]:
    """The first and last integer d with lo < d < hi, for finite lo and hi."""
    return math.floor(lo) + 1, math.ceil(hi) - 1


def _chi_divisor_window(
    limit: int, first: int, last: int, dtype=np.int16, start: int = 0, stop: Optional[int] = None
) -> np.ndarray:
    """w[n - start] = sum of chi(d) over d | n, first <= d <= last, for n in [start, stop).

    limit bounds d and n (stop defaults to limit + 1).  An odd d <= sqrt(limit)
    adds along the slice from its first multiple >= max(d, start); a larger d
    has cofactor e = n/d <= sqrt(limit) (Hooley's switch), and for each e its
    d = 1 and d = 3 (mod 4) sit on two slices of stride 4e.  For n < 2**29,
    int16 holds |w| <= tau(n) <= 1152; an unsigned dtype sums mod 2**bits.
    The window, not the limit, is held to the bulk cap.
    """
    stop = limit + 1 if stop is None else stop
    check_bulk_limit(stop - start - 1)
    w = np.zeros(stop - start, dtype=dtype)
    first, last = max(first, 1), min(max(last, 0), limit)
    root = isqrt(limit)
    lo = max(first, root + 1)
    # The cofactors e with some d in [lo, last] and e * d in [start, stop).
    es = range(max(1, -(-start // last)), (stop - 1) // lo + 1) if last >= lo else ()
    for r, c in ((1, 1), (3, np.array(-1).astype(dtype))):  # chi(d) = c at d = r (mod 4)
        for d in range(first + (r - first) % 4, min(last, root) + 1, 4):
            w[max(d, -(-start // d) * d) - start :: d] += c
        for e in es:
            d = max(lo, -(-start // e))
            d += (r - d) % 4
            w[e * d - start : min(e * last + 1, stop) - start : 4 * e] += c
    return w


def shifted_block_length(X: int) -> int:
    """m per block of chi_range_sums: 2**19 up to X = 2**22, then 2**8 sqrt(X).

    A block costs about 2.5 sqrt(X/2) slice calls whatever its length, so
    the blocks grow with sqrt(X).
    """
    return max(1 << 19, isqrt(X) << 8)


def chi_range_sums(X: int, ranges, dtype=np.int16) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (m0, w) per block [m0, m1) of m = (p - 1)/2, odd p <= X, and (first, last) of ranges.

    w[m - m0] is the sum of chi(d) over d | m, first <= d <= last, where
    2m + 1 is prime, else 0; since chi(d) = 0 at even d, that is the sum
    over d | p - 1.  Each window is built when asked for, and _strike zeroes
    its odd composites in place.  p = 2 reads b(1), which is 1 exactly when
    first <= 1 <= last.
    """
    check_stream_limit(X)
    limit = (X - 1) // 2
    base = _base_primes(isqrt(X))
    step = shifted_block_length(X)
    for m0 in range(0, limit + 1, step):
        m1 = min(m0 + step, limit + 1)
        for first, last in ranges:
            w = _chi_divisor_window(limit, first, last, dtype, m0, m1)
            _strike(w, 2 * m0 + 1, base)
            if m0 == 0:
                w[0] = 0  # 1 is not prime
            yield m0, w
            del w  # before the next window is built


def _phi_local(view, p, e):
    e -= 1
    np.power(p, e, out=e)
    e *= p - 1
    view *= e


def _phi_leftover(view, rem):
    rem -= 1
    view *= np.maximum(rem, 1, out=rem)


def totient_segments(limit: int) -> Iterator[np.ndarray]:
    """Euler phi over 1..limit as ascending int32 segments of TABLE_SEGMENT_LENGTH entries."""
    check_bulk_limit(limit)
    return _prime_power_segments(limit, np.int32, 1, _phi_local, _phi_leftover)


@lru_cache(maxsize=4)
def totient_table(limit: int) -> np.ndarray:
    """Euler phi for 0..limit as an int32 array (phi[0] = 0); phi(n) <= n <= 2**24."""
    return _prime_power_table(limit, np.int32, totient_segments(limit))


def _sigma_local(view, p, e):
    # p^(e+1) reaches limit * p, past int32, and a Python-int base keeps e's int32.
    view *= (np.power(np.int64(p), e + 1) - 1) // (p - 1)


def _sigma_leftover(view, rem):
    view *= np.where(rem > 1, rem + 1, 1)


@lru_cache(maxsize=4)
def sigma_table(limit: int) -> np.ndarray:
    """Sum of divisors sigma(n) for 0..limit as an int64 array (sigma[0] = 0)."""
    check_bulk_limit(limit)
    segments = _prime_power_segments(limit, np.int64, 1, _sigma_local, _sigma_leftover)
    return _prime_power_table(limit, np.int64, segments)


def _omega_local(view, p, e):
    np.add(view, e, out=view, casting="unsafe")


def _omega_leftover(view, rem):
    view += rem > 1


def omega_segments(limit: int) -> Iterator[np.ndarray]:
    """Omega over 1..limit as ascending uint8 segments of TABLE_SEGMENT_LENGTH entries."""
    check_bulk_limit(limit)
    return _prime_power_segments(limit, np.uint8, 0, _omega_local, _omega_leftover)


@lru_cache(maxsize=4)
def omega_table(limit: int) -> np.ndarray:
    """Omega (prime factors with multiplicity) for 0..limit as uint8."""
    return _prime_power_table(limit, np.uint8, omega_segments(limit))
