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
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import arith
from .arith import Residue
from .errors import PreconditionError
from .linnik import REDUCTION_CHUNK, theta0
from .sieve import (
    BULK_TABLE_LIMIT,
    Params,
    _chi_divisor_window,
    check_bulk_limit,
    f_enveloping,
    iter_prime_segments,
    omega_table,
    prime_array,
    totient_table,
)
from .sieve import divisors_of  # noqa: F401  perfbench/tracer.py counts calls here

Real = Union[int, float, Fraction]

EXACT_SUM_TERM_LIMIT = 20_000

# Largest X that brun_titchmarsh_check streams primes up to: X = 10**8 takes
# about a second, and far larger ranges would sieve for minutes.
BRUN_TITCHMARSH_LIMIT = 1 << 30

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


def _sum_fractions(terms: list[Fraction]) -> Union[Fraction, float]:
    if len(terms) <= EXACT_SUM_TERM_LIMIT:
        return sum(terms, Fraction(0))
    return math.fsum(float(t) for t in terms)


def _fsum_chunks(chunks) -> float:
    # fsum is correctly rounded: the chunking cannot change the result.
    return math.fsum(itertools.chain.from_iterable(c.tolist() for c in chunks))


def _sum_reciprocals(dens: np.ndarray) -> Union[Fraction, float]:
    """Sum of 1/n over the integer array dens, exact up to the term cutoff.

    Past it, 1.0/n equals float(Fraction(1, n)) for n < 2**53, so the fsum
    has the bytes of a per-term fsum of the Fractions.
    """
    if dens.size <= EXACT_SUM_TERM_LIMIT:
        return sum((Fraction(1, n) for n in dens.tolist()), Fraction(0))
    step = REDUCTION_CHUNK
    return _fsum_chunks(1.0 / dens[lo : lo + step] for lo in range(0, dens.size, step))


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
    both sides, so the integer d run from floor(lo) + 1 to ceil(hi) - 1.
    Exact integer.
    """
    if X < 16:
        raise PreconditionError(f"hooley1_lhs requires X >= 16, got {X}")
    shrink, stretch = _log_powers(X, omega)
    lo = math.sqrt(X) * shrink
    hi = math.sqrt(X) * stretch
    # Every p - 1 is at most X - 1; the window build enforces the bulk cap.
    win = _chi_divisor_window(X - 1, math.floor(lo) + 1, math.ceil(hi) - 1)
    return int(np.abs(win[prime_array(X) - 1]).sum())


def brun_titchmarsh_check(X: int, q: int, a: int) -> BrunTitchmarshResult:
    """pi(X; q, a) against the explicit bound 2X/(phi(q) log(2X/q))."""
    if not 1 <= q < X:
        raise PreconditionError(f"brun_titchmarsh_check requires 1 <= q < X, got q={q}, X={X}")
    if gcd(a, q) != 1:
        raise PreconditionError(f"gcd(a, q) must be 1, got gcd({a}, {q}) > 1")
    if X > BRUN_TITCHMARSH_LIMIT:
        raise PreconditionError(
            f"X = {X} exceeds the streaming limit {BRUN_TITCHMARSH_LIMIT} of "
            "brun_titchmarsh_check; lower X"
        )
    # Counted segment by segment, so memory stays O(segment) at any X.
    count = sum(int(np.count_nonzero(seg % q == a % q)) for seg in iter_prime_segments(X))
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
    """Exact sum of the enveloping-sieve value over n < y with n = a (k)."""
    if y > params.X:
        raise PreconditionError(f"y = {y} exceeds X = {params.X}")
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
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
    alpha_frac = Fraction(alpha)
    om = omega_table(y)[1:]
    if alpha_frac.denominator <= EXACT_ALPHA_DENOMINATOR and y <= EXACT_SUM_TERM_LIMIT:
        counts = np.bincount(om).tolist()
        return sum((c * alpha_frac**k for k, c in enumerate(counts)), Fraction(0))
    af = float(alpha_frac)
    powers = np.array([af**k for k in range(int(om.max()) + 1)])
    step = REDUCTION_CHUNK
    return _fsum_chunks(powers[om[lo : lo + step]] for lo in range(0, y, step))


def hooley13_sum(y: int, alpha: float, omega: float = 1.0) -> Union[Fraction, float]:
    """Sum of 1/n over the middle window with Omega(n) <= alpha*loglog y.

    Window: sqrt(y)(log y)^-omega < n < sqrt(y)(log y)^omega, open.
    """
    if y < 16:
        raise PreconditionError(f"hooley13_sum requires y >= 16 (> e^e), got {y}")
    if not 0.5 <= alpha < 1:
        raise PreconditionError(f"alpha must lie in [1/2, 1), got {alpha}")
    shrink, stretch = _log_powers(y, omega)
    lo = math.sqrt(y) * shrink
    hi = math.sqrt(y) * stretch
    if hi > BULK_TABLE_LIMIT:
        raise PreconditionError(
            f"the window end sqrt(y)(log y)^omega = {hi:.6g} exceeds the bulk cap "
            f"{BULK_TABLE_LIMIT}; lower y or omega"
        )
    threshold = alpha * _loglog(y)
    # The integers strictly between lo > 0 and hi, all at most int(hi).
    ns = np.arange(int(lo) + 1, math.ceil(hi))
    return _sum_reciprocals(ns[omega_table(int(hi))[ns] <= threshold])


def hooley13q_sum(y: int, alpha: float, q: int) -> Union[Fraction, float]:
    """Sum of 1/n over n <= y, q | n, with Omega(n) > alpha*loglog y - 1."""
    if y < 16:
        raise PreconditionError(f"hooley13q_sum requires y >= 16, got {y}")
    if not 1 < alpha <= 1.5:
        raise PreconditionError(f"alpha must lie in (1, 3/2], got {alpha}")
    if q < 1:
        raise PreconditionError(f"q must be positive, got {q}")
    threshold = alpha * _loglog(y) - 1.0
    # om[q::q] holds Omega(n) for n = q, 2q, ..., up to y; none when q > y,
    # and min keeps a q past int64 out of the product.
    picked = np.flatnonzero(omega_table(y)[q::q] > threshold)
    return _sum_reciprocals(min(q, y) * (picked + 1))


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
            terms.append(Fraction(arith.chi(l), arith.euler_phi(r * s * l)))
    return _sum_fractions(terms)


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
    stretch factor is floating point.
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
    float_terms: list[float] = []
    frac_terms: list[Fraction] = []
    sigma_d: dict[int, Fraction] = {}  # sigma_-1(d), once per distinct d
    h = 1
    while h <= u_exact:
        d_lo = u_exact / h
        d_hi = d_end / h
        y_h = up_exact / h
        if which == 2:
            sigma_n = arith.sigma_minus1(n, y_h)
        d = int(d_lo) + 1
        while d < d_hi:
            if d > d_lo:
                if which == 1:
                    float_terms.append(arith.r_envelope(n, h, d, y_h))
                elif which == 2:
                    if d not in sigma_d:
                        sigma_d[d] = arith.sigma_minus1(d)
                    frac_terms.append(sigma_d[d] / (h * d) * sigma_n)
                else:
                    frac_terms.append(Fraction(h) / u_exact / (h * d))
            d += 1
        h += 1
    if which == 1:
        return math.fsum(float_terms)
    return _sum_fractions(frac_terms)


def murty_sum(X: int) -> Union[Fraction, float]:
    """Sum over n <= X of 1/phi(n); exact below the term cutoff."""
    if X < 2:
        raise PreconditionError(f"murty_sum requires X >= 2, got {X}")
    return _sum_reciprocals(totient_table(X)[1:])


def _epq_scan(p: int, q: int, params: Params) -> tuple[int, int]:
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


def e_pq(p: int, q: int, params: Params) -> int:
    """Count of d in (D, X/D), (d, q) = 1, with p = l(d, q) mod dq and
    (l(d, q), dq) = 1, where l lifts 1 mod d and a mod q."""
    return _epq_scan(p, q, params)[0]


def f_pq(p: int, q: int, params: Params) -> int:
    """Same range and congruence conditions as e_pq, weighted by chi(d)."""
    return _epq_scan(p, q, params)[1]


# --- the checker table ---------------------------------------------------


@dataclass(frozen=True)
class Checker:
    """One lemma checker as report() and the CLI see it.

    inputs pairs each report input name with its CLI flag, in report order.
    compute(params, **inputs) returns (lhs, envelope).  A default may be a
    callable of the inputs resolved before it.  scan names the input that a
    decade scan sweeps, or is None for a checker that is not scanned.
    """

    inputs: tuple[tuple[str, str], ...]
    compute: Callable[..., tuple[Real, float]]
    defaults: dict = field(default_factory=dict)
    needs_params: bool = False
    scan: Optional[str] = None


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
        (("X", "--x"), ("omega", "--omega")), _hooley1, {"omega": 1.0}, scan="X"
    ),
    "brun_titchmarsh": Checker(
        (("X", "--x"), ("q", "--q"), ("a", "--a")), _brun_titchmarsh
    ),
    "count_n": Checker((("n", "--n"), ("r", "--r")), _count_n),
    "f_progression": Checker(
        (("y", "--y"), ("k", "--q"), ("a", "--a")), _f_progression, needs_params=True
    ),
    "estimate_b": Checker((("y", "--y"),), _estimate_b, needs_params=True),
    "omega_power": Checker(
        (("y", "--y"), ("alpha", "--alpha")), _omega_power, scan="y"
    ),
    "hooley13": Checker(
        (("y", "--y"), ("alpha", "--alpha"), ("omega", "--omega")),
        _hooley13, {"omega": 1.0}, scan="y",
    ),
    "hooley13q": Checker(
        (("y", "--y"), ("alpha", "--alpha"), ("q", "--q")), _hooley13q, scan="y"
    ),
    "hooley14": Checker(
        (("r", "--r"), ("s", "--s"), ("n", "--n"), ("y", "--y"), ("L", "--l-max")),
        _hooley14, needs_params=True,
    ),
    "hooley15": Checker(
        (("u", "--u"), ("u_prime", "--u-prime"), ("omega", "--omega"),
         ("n", "--n"), ("which", "--which")),
        _hooley15, {"u_prime": lambda done: done["u"], "omega": 1.0}, needs_params=True,
    ),
    "murty": Checker((("X", "--x"),), _murty, scan="X"),
}


def report(lemma_id: str, params: Optional[Params] = None, **inputs) -> LemmaReport:
    """Run one checker and wrap lhs, constant-1 envelope, and their ratio.

    An input that is left out or None takes the checker's default.
    """
    checker = CHECKERS.get(lemma_id)
    if checker is None:
        raise PreconditionError(f"unknown lemma id: {lemma_id}")
    names = [name for name, _flag in checker.inputs]
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
