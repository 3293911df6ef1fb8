"""Empirical checkers for the quantitative lemmas.

Each checker computes its left-hand side exactly (or with compensated
floating summation past the exact-arithmetic cutoff) and can be wrapped in
a LemmaReport that evaluates the right-hand-side envelope with implied
constant 1.  The implied constants are non-effective, so the interesting
output is always the ratio, never a pass/fail on the constant.

Sums of rationals switch from Fraction accumulation to math.fsum once the
term count exceeds EXACT_SUM_TERM_LIMIT; below it, results are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, NamedTuple, Optional, Union

import numpy as np

from . import arith
from .arith import Residue
from .errors import PreconditionError
from .linnik import REDUCTION_CHUNK, odd_classes, sums_at_primes, theta0
from .sieve import (
    BULK_TABLE_LIMIT,
    Params,
    check_bulk_limit,
    check_stream_limit,
    f_enveloping,
    omega_segments,
    open_range,
    prime_array,
    prime_masks,
    sigma_table,
    totient_segments,
)
from .sieve import divisors_of, omega_table, totient_table  # noqa: F401  perfbench/tracer.py wraps

Real = Union[int, float, Fraction]

EXACT_SUM_TERM_LIMIT = 20_000

# Most h values plus (h, d) terms hooley15_sums takes; each term is a Python object.
HOOLEY15_TERM_LIMIT = 1_000_000

# Denominator cap below which an alpha passed as float is treated as the
# exact rational it represents (covers 1/2 .. 7/4 in quarter steps).
EXACT_ALPHA_DENOMINATOR = 64


@dataclass(frozen=True)
class LemmaReport:
    """A checker's exact lhs against its envelope, constant taken as 1."""

    lemma_id: str
    inputs: dict
    lhs: Real
    envelope: float
    ratio: float


class BrunTitchmarshResult(NamedTuple):
    count: int
    bound: float
    holds: bool


def gamma_alpha(alpha: float) -> float:
    """Exponent alpha - alpha*log(alpha) from the Omega-restricted bounds."""
    return alpha - alpha * math.log(alpha)


def _loglog(x: float) -> float:
    return math.log(math.log(x))


def _sum_ratios(terms, count: int) -> Union[Fraction, float]:
    """Sum of t/b over count integer pairs (t, b), b > 0, exact up to the term cutoff.

    Past it, the pairs stream into math.fsum as t / b, correctly rounded
    like float(Fraction(t, b)), so it has the bytes of a per-term fsum of
    the Fractions.
    """
    if count <= EXACT_SUM_TERM_LIMIT:
        tops, bottoms = itertools.tee(terms)  # read in step: one pair is buffered
        return arith.reciprocal_sum((b for _, b in bottoms), (t for t, _ in tops))
    return math.fsum(t / b for t, b in terms)


def _sum_reciprocals(arrays) -> Union[Fraction, float]:
    """Sum of 1/n over the integer arrays, exact up to the term cutoff.

    The arrays are held until their total size passes the cutoff; from there
    they stream into fsum.  1.0/n equals float(Fraction(1, n)) for n < 2**53,
    and fsum is correctly rounded, so it has the bytes of a per-term fsum of
    the Fractions.
    """
    arrays = iter(arrays)
    held, count = [np.empty(0, dtype=np.int64)], 0
    for dens in arrays:
        held.append(dens)
        count += dens.size
        if count > EXACT_SUM_TERM_LIMIT:
            terms = itertools.chain(iter(held), arrays)  # an exhausted iter lets go of held
            del held, dens  # so the arrays held so far go once they are summed
            step = REDUCTION_CHUNK
            chunks = (a[i : i + step] for a in terms for i in range(0, a.size, step))
            return math.fsum(itertools.chain.from_iterable((1.0 / c).tolist() for c in chunks))
    return arith.reciprocal_sum(np.concatenate(held))


def _log_powers(x: int, omega: float) -> tuple[float, float]:
    """(log x)^-omega and (log x)^omega, for a positive finite omega."""
    if not 0 < omega < math.inf:
        raise PreconditionError(f"omega must be positive and finite, got {omega}")
    log_x = math.log(x)
    try:
        return log_x**-omega, log_x**omega
    except OverflowError:
        raise PreconditionError(f"(log {x})^omega overflows a float at omega = {omega}") from None


def hooley1_lhs(X: int, omega: float = 1.0) -> int:
    """Sum over p <= X of |sum of chi over divisors of p-1 in the middle window|.

    The window is sqrt(X)(log X)^-omega < d < sqrt(X)(log X)^omega, open on
    both sides: the d of open_range(lo, hi).  sums_at_primes streams it one
    block of the primes at a time.  Exact.
    """
    if X < 16:
        raise PreconditionError(f"hooley1_lhs requires X >= 16, got {X}")
    check_stream_limit(X)
    shrink, stretch = _log_powers(X, omega)
    lo = math.sqrt(X) * shrink
    hi = math.sqrt(X) * stretch
    return sums_at_primes(X, 1, [], [open_range(lo, hi)])[0].abs_total


def brun_titchmarsh_check(X: int, q: int, a: int) -> BrunTitchmarshResult:
    """pi(X; q, a) against the explicit bound 2X/(phi(q) log(2X/q))."""
    if not 1 <= q < X:
        raise PreconditionError(f"brun_titchmarsh_check requires 1 <= q < X, got q={q}, X={X}")
    if gcd(a, q) != 1:
        raise PreconditionError(f"gcd(a, q) must be 1, got gcd({a}, {q}) > 1")
    base, masks = prime_masks(X)
    count = int(2 % q == a % q) + int(np.count_nonzero(base[1:] % q == a % q))
    (s,), (k,) = odd_classes(a, [q])
    for first, mask in masks:  # one odd mask at a time, up to the streaming limit
        count += int(np.count_nonzero(mask[(s - first // 2) % k :: k]))
        del mask  # before the next mask is struck
    bound = 2.0 * X / (arith.euler_phi(q) * math.log(2.0 * X / q))
    return BrunTitchmarshResult(count, bound, count < bound)


def count_N(n: int, r: int) -> int:
    """Number of prime pairs (p1, p2) with p1 + r*p2 = n; requires r < n/2."""
    if r < 1:
        raise PreconditionError(f"count_N requires r >= 1, got {r}")
    if 2 * r >= n:
        raise PreconditionError(f"count_N requires r < n/2, got r={r}, n={n}")
    check_bulk_limit(n)
    primes = prime_array(n)
    is_prime = np.zeros(n + 1, dtype=bool)
    is_prime[primes] = True
    p2 = primes[: np.searchsorted(primes, (n - 2) // r, side="right")]
    # n - r*p2 >= 2 for every p2 <= (n - 2)/r.
    return int(np.count_nonzero(is_prime[n - r * p2]))


def f_progression_sum(y: int, k: int, a: int, params: Params) -> int:
    """Exact sum of the enveloping-sieve value over n < y with n = a (k); y >= 1."""
    if y < 1:
        raise PreconditionError(f"f_progression_sum requires y >= 1, got {y}")
    if y > params.X:
        raise PreconditionError(f"y = {y} exceeds X = {params.X}")
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    check_bulk_limit(y)
    start = a % k
    if start == 0:
        start = k
    return sum(f_enveloping(n, params) for n in range(start, y, k))


def estimate_B(params: Params, y: int) -> Fraction:
    """Density proxy (1/y) * sum over n < y of the enveloping-sieve value.

    A stand-in for the lemma's implicit progression density; reported
    against the envelope (loglog X)^2 / log X.
    """
    if not 2 <= y <= params.X:
        raise PreconditionError(f"estimate_B requires 2 <= y <= X, got y={y}")
    check_bulk_limit(y)
    return Fraction(sum(f_enveloping(n, params) for n in range(1, y)), y)


def omega_power_sum(y: int, alpha: Real) -> Union[Fraction, float]:
    """Sum over n <= y of alpha^Omega(n); alpha confined to [1/2, 7/4].

    Exact when alpha is (a float spelling of) a small-denominator rational
    and the range is inside the exact-arithmetic cutoff.
    """
    if y < 1:
        raise PreconditionError(f"omega_power_sum requires y >= 1, got {y}")
    if not Fraction(1, 2) <= alpha <= Fraction(7, 4):
        raise PreconditionError(f"alpha must lie in [1/2, 7/4], got {alpha}")
    segments = omega_segments(y)  # the bulk cap is checked before any work
    counts = np.zeros(y.bit_length(), dtype=np.int64)  # c_k, k = Omega(n) <= log2 y
    for om in segments:
        counts += np.bincount(om, minlength=counts.size)
    a = Fraction(alpha)
    if a.denominator > EXACT_ALPHA_DENOMINATOR or y > EXACT_SUM_TERM_LIMIT:
        a = float(a)  # the fsum of a**Omega(n) over the n is this exact sum rounded once
    total = sum((c * Fraction(a**k) for k, c in enumerate(counts.tolist())), Fraction(0))
    return total if isinstance(a, Fraction) else float(total)


def hooley13_sum(y: int, alpha: float, omega: float = 1.0) -> Union[Fraction, float]:
    """Sum of 1/n over the middle window with Omega(n) <= alpha*loglog y.

    Window: sqrt(y)(log y)^-omega < n < sqrt(y)(log y)^omega, open.
    """
    if y < 16:
        raise PreconditionError(f"hooley13_sum requires y >= 16 (> e^e), got {y}")
    if not 0.5 <= alpha < 1:
        raise PreconditionError(f"alpha must lie in [1/2, 1), got {alpha}")
    lo, hi = (math.sqrt(y) * f for f in _log_powers(y, omega))
    if hi > BULK_TABLE_LIMIT:
        raise PreconditionError(
            f"the window end sqrt(y)(log y)^omega = {hi:.6g} exceeds the bulk cap "
            f"{BULK_TABLE_LIMIT}; lower y or omega"
        )
    first, last = open_range(lo, hi)  # last <= int(hi)
    return _sum_reciprocals(_picks(omega_segments(last), np.less_equal, alpha * _loglog(y), first))


def hooley13q_sum(y: int, alpha: float, q: int) -> Union[Fraction, float]:
    """Sum of 1/n over n <= y, q | n, with Omega(n) > alpha*loglog y - 1."""
    if y < 16:
        raise PreconditionError(f"hooley13q_sum requires y >= 16, got {y}")
    if not 1 < alpha <= 1.5:
        raise PreconditionError(f"alpha must lie in (1, 3/2], got {alpha}")
    if q < 1:
        raise PreconditionError(f"q must be positive, got {q}")
    threshold = alpha * _loglog(y) - 1.0
    segments = omega_segments(y)  # the bulk cap is checked before any work
    return _sum_reciprocals(_picks(segments, np.greater, threshold, 1, q) if q <= y else ())


def _picks(segments, compare, threshold: float, first: int, q: int = 1) -> Iterator[np.ndarray]:
    """Per Omega segment, its multiples n >= first of q with compare(Omega(n), threshold)."""
    lo = 1
    for om in segments:
        start = max(lo, first)
        offset = start - lo + -start % q
        n = np.flatnonzero(compare(om[offset::q], threshold))
        n *= q
        n += lo + offset
        lo += om.size
        yield n


def hooley14_partial(
    r: int, s: int, n: int, y: Real, L: int
) -> Union[Fraction, float]:
    """Partial sum over y <= l <= L, (l, ns) = 1, of chi(l)/phi(r*s*l).

    The full sum converges only conditionally; callers bracket it with
    cutoffs L and L + 4 (one character period).  An empty range gives 0.
    """
    if min(r, s, n) < 1:
        raise PreconditionError("hooley14_partial requires r, s, n >= 1")
    if gcd(r * s, n) != 1:
        raise PreconditionError(f"gcd(rs, n) must be 1, got rs={r * s}, n={n}")
    check_bulk_limit(L)
    ns = n * s
    terms = []
    for l in range(max(math.ceil(y), 1), L + 1):
        if l % 2 and gcd(l, ns) == 1:
            terms.append((arith.chi(l), arith.euler_phi(r * s * l)))
    return _sum_ratios(terms, len(terms))


def hooley15_sums(
    u: Real,
    u_prime: Real,
    omega: float,
    n: int,
    which: int,
    params: Params,
) -> Union[Fraction, float]:
    """One of three double sums over h <= u, u/h < d < u(log X)^omega / h.

    which = 1 sums the divisor-sum envelope R_n(h, d, u'/h); which = 2 sums
    sigma_-1(d)/(hd) * sigma_-1(n, u'/h); which = 3 sums (h/u)(1/(hd)).
    The u/h and u'/h thresholds are exact rationals; only the (log X)^omega
    stretch factor is floating point.  The h values and (h, d) terms are
    counted from the d ranges before any term is built; more than
    HOOLEY15_TERM_LIMIT is a precondition error.  which = 2 and 3 take each
    term as a pair of integers for _sum_ratios.
    """
    if not 1 < u < params.X:
        raise PreconditionError(f"hooley15_sums requires 1 < u < X, got u={u}")
    if not u <= u_prime < math.inf:
        raise PreconditionError(f"hooley15_sums requires a finite u' >= u, got u' = {u_prime}")
    if not 1 <= n <= params.X:
        raise PreconditionError(f"n must lie in [1, X], got {n}")
    if which not in (1, 2, 3):
        raise PreconditionError(f"which must be 1, 2, or 3, got {which}")
    u_exact = Fraction(u)
    up_exact = Fraction(u_prime)
    stretch = _log_powers(params.X, omega)[1]
    d_end = float(u_exact) * stretch
    if d_end > BULK_TABLE_LIMIT:
        raise PreconditionError(
            f"the d range end u(log X)^omega = {d_end:.6g} exceeds the bulk cap "
            f"{BULK_TABLE_LIMIT}; lower u or omega"
        )

    def h_ranges():
        # d_lo = u/h < d < d_hi = d_end/h, so d runs from floor(d_lo) + 1 below ceil(d_hi).
        for h in range(1, math.floor(u_exact) + 1):
            yield h, range(math.floor(u_exact / h) + 1, math.ceil(d_end / h))

    # One step per h, even where its d range is empty, and one per (h, d) term.
    steps = itertools.accumulate((len(ds) for _, ds in h_ranges()), initial=math.floor(u_exact))
    if any(s > HOOLEY15_TERM_LIMIT for s in steps):
        raise PreconditionError(
            f"hooley15 would take more than {HOOLEY15_TERM_LIMIT} h values and (h, d) terms; "
            "lower u or omega"
        )
    divs = arith.divisors(n) if which < 3 else None  # scanned once; each h bisects it at u'/h
    if which == 1:
        float_terms: list[float] = []
        for h, ds in h_ranges():
            y_h = up_exact / h
            float_terms.extend(arith.r_envelope(n, h, d, y_h, divs) for d in ds)
        return math.fsum(float_terms)
    if which == 2:
        sigma = sigma_table(math.floor(d_end))  # every d < d_end
    num, den = u_exact.as_integer_ratio()

    def ratios():
        for h, ds in h_ranges():
            if which == 2:
                # sigma_-1(d)/(hd) * sigma_-1(n, u'/h) = sigma(d) a_h / (d^2 b_h)
                a_h, b_h = (arith.sigma_minus1(n, up_exact / h, divs) / h).as_integer_ratio()
                sds = sigma[ds.start : ds.stop].tolist()
                yield from ((sd * a_h, d * d * b_h) for d, sd in zip(ds, sds))
            else:
                yield from ((den, num * d) for d in ds)  # (h/u)(1/(hd)) = den/(num d)

    return _sum_ratios(ratios(), sum(len(ds) for _, ds in h_ranges()))


def murty_sum(X: int) -> Union[Fraction, float]:
    """Sum over n <= X of 1/phi(n), phi a kernel segment at a time; exact below the term cutoff."""
    if X < 2:
        raise PreconditionError(f"murty_sum requires X >= 2, got {X}")
    return _sum_reciprocals(totient_segments(X))


def epq(p: int, q: int, params: Params) -> tuple[int, int]:
    """(E, F): E counts the d in (D, X/D), (d, q) = 1, with p = l(d, q) mod dq and
    (l(d, q), dq) = 1, where l lifts 1 mod d and a mod q; F weights each by chi(d)."""
    if q < 1:
        raise PreconditionError(f"q must be positive, got {q}")
    if p > params.X:
        raise PreconditionError(f"p = {p} exceeds X = {params.X}")
    if p < 2 or arith.factorize_trial(p) != [(p, 1)]:
        raise PreconditionError(f"p = {p} is not prime")
    D = params.D
    upper = params.X / D
    if D >= upper:
        return 0, 0
    count = signed = 0
    # Any qualifying d divides p - 1, so scanning divisors is exhaustive.
    for d in arith.divisors(p - 1):
        if not D < d < upper or gcd(d, q) != 1:
            continue
        l = arith.crt_l(Residue(1 % d, d), Residue(params.a % q, q))
        if l is None or gcd(l.value, d * q) != 1:
            continue
        if p % (d * q) == l.value:
            count += 1
            signed += arith.chi(d)
    return count, signed


# --- the checker table ---------------------------------------------------


@dataclass(frozen=True)
class Checker:
    """One lemma checker as report() and the CLI see it.

    inputs lists each report input as (name, CLI flag, flag type), in report
    order.  compute(params, **inputs) returns (lhs, envelope).  A default may
    be a callable of the inputs resolved before it.  scan names the input
    that a decade scan sweeps, or is None for a checker that is not scanned.
    choices maps an input name to the only values its CLI flag accepts.
    """

    inputs: tuple[tuple[str, str, type], ...]
    compute: Callable[..., tuple[Real, float]]
    defaults: dict = field(default_factory=dict)
    needs_params: bool = False
    scan: Optional[str] = None
    choices: dict = field(default_factory=dict)


def _hooley1(params, X, omega):
    return hooley1_lhs(X, omega), X * _loglog(X) ** 5 / math.log(X) ** (1.0 + theta0())


def _brun_titchmarsh(params, X, q, a):
    res = brun_titchmarsh_check(X, q, a)
    return res.count, res.bound


def _count_n(params, n, r):
    return count_N(n, r), n**2 / (arith.euler_phi(n * r) * math.log(n / r) ** 2)


def _f_progression(params, y, k, a):
    lhs = f_progression_sum(y, k, a, params)
    X = params.X
    return lhs, _loglog(X) ** 2 / math.log(X) * y / arith.euler_phi(k)


def _estimate_b(params, y):
    return estimate_B(params, y), _loglog(params.X) ** 2 / math.log(params.X)


def _omega_power(params, y, alpha):
    return omega_power_sum(y, alpha), y * math.log(2.0 * y) ** (float(alpha) - 1.0)


def _hooley13(params, y, alpha, omega):
    lhs = hooley13_sum(y, alpha, omega)
    return lhs, math.log(y) ** (gamma_alpha(alpha) - 1.0) * _loglog(y)


def _hooley13q(params, y, alpha, q):
    lhs = hooley13q_sum(y, alpha, q)
    env = float(alpha) ** arith.omega_big(q) / q * math.log(y) ** gamma_alpha(alpha)
    return lhs, env * _loglog(y)


def _hooley14(params, r, s, n, y, L):
    lhs = hooley14_partial(r, s, n, y, L)
    ll = _loglog(params.X)
    env = (
        ll * arith.r_envelope(n, r, s, y)
        + ll * float(arith.sigma_minus1(s)) / (r * s) * float(arith.sigma_minus1(n, y))
        + ll**2 / (r * s * float(y))
    )
    return lhs, env


def _hooley15(params, u, u_prime, omega, n, which):
    lhs = hooley15_sums(u, u_prime, omega, n, which, params)
    return lhs, _loglog(params.X) ** {1: 4, 2: 3, 3: 1}[which]


def _murty(params, X):
    return murty_sum(X), math.log(X)


CHECKERS: dict[str, Checker] = {
    "hooley1": Checker(
        (("X", "--x", int), ("omega", "--omega", float)), _hooley1, {"omega": 1.0}, scan="X"
    ),
    "brun_titchmarsh": Checker(
        (("X", "--x", int), ("q", "--q", int), ("a", "--a", int)), _brun_titchmarsh
    ),
    "count_n": Checker((("n", "--n", int), ("r", "--r", int)), _count_n),
    "f_progression": Checker(
        (("y", "--y", int), ("k", "--q", int), ("a", "--a", int)), _f_progression,
        needs_params=True,
    ),
    "estimate_b": Checker((("y", "--y", int),), _estimate_b, needs_params=True),
    "omega_power": Checker(
        (("y", "--y", int), ("alpha", "--alpha", float)), _omega_power, scan="y"
    ),
    "hooley13": Checker(
        (("y", "--y", int), ("alpha", "--alpha", float), ("omega", "--omega", float)),
        _hooley13, {"omega": 1.0}, scan="y",
    ),
    "hooley13q": Checker(
        (("y", "--y", int), ("alpha", "--alpha", float), ("q", "--q", int)), _hooley13q,
        scan="y",
    ),
    "hooley14": Checker(
        (("r", "--r", int), ("s", "--s", int), ("n", "--n", int), ("y", "--y", int),
         ("L", "--l-max", int)),
        _hooley14, needs_params=True,
    ),
    "hooley15": Checker(
        (("u", "--u", float), ("u_prime", "--u-prime", float), ("omega", "--omega", float),
         ("n", "--n", int), ("which", "--which", int)),
        _hooley15, {"u_prime": lambda done: done["u"], "omega": 1.0}, needs_params=True,
        choices={"which": (1, 2, 3)},
    ),
    "murty": Checker((("X", "--x", int),), _murty, scan="X"),
}


def report(lemma_id: str, params: Optional[Params] = None, **inputs) -> LemmaReport:
    """Run one checker and wrap lhs, constant-1 envelope, and their ratio.

    An input that is left out or None takes the checker's default.
    """
    checker = CHECKERS.get(lemma_id)
    if checker is None:
        raise PreconditionError(f"unknown lemma id: {lemma_id}")
    names = [name for name, _flag, _type in checker.inputs]
    unknown = sorted(set(inputs) - set(names))
    if unknown:
        raise PreconditionError(f"{lemma_id} has no input {', '.join(unknown)}")
    values = {}
    for name in names:
        value = inputs.get(name)
        if value is None:
            if name not in checker.defaults:
                raise PreconditionError(f"{lemma_id} requires input {name}")
            value = checker.defaults[name]
            value = value(values) if callable(value) else value
        values[name] = value
    lhs, envelope = checker.compute(params, **values)
    # Sign-indefinite sums keep their sign in lhs; the ratio is a magnitude.
    return LemmaReport(lemma_id, values, lhs, envelope, abs(float(lhs)) / envelope)
