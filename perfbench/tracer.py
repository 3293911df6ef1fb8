"""Run one linnikbv CLI command with spans recorded around its layer calls.

Usage: python tracer.py SPANS_FILE COMMAND_ID CLI_ARG...

Each public function is wrapped at the name its caller looks up (the
module attribute, for example ``linnik.chi_divisor_sums`` for the bv_sum
caller and ``lemmas.totient_table`` for murty_sum), then ``cli.main`` runs
under a root span.  Spans stay in memory and are written to SPANS_FILE once,
when the command ends.  The report still goes to standard output, so the
caller checks it exactly as for an untraced command.  The program's own
files are not changed; a name a later version no longer has is skipped and
listed under "missing".
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from fractions import Fraction
from time import perf_counter

# Lookup sites, as (module, attribute).  The span is named after the
# function's defining module and name, so wrapping one function at several
# sites gives one layer metric.
TARGETS = (
    ("cli", "emit_report"),
    ("linnik", "sum_r_shifted_primes"),
    ("linnik", "bv_sum"),
    ("linnik", "decompose"),
    ("linnik", "linnik_constant"),
    ("linnik", "chi_divisor_sums"),
    ("linnik", "chi_range_sums"),
    ("linnik", "prime_array"),
    ("linnik", "iter_prime_segments"),
    ("lemmas", "report"),
    ("lemmas", "hooley1_lhs"),
    ("lemmas", "murty_sum"),
    ("lemmas", "hooley13q_sum"),
    ("lemmas", "hooley15_sums"),
    ("lemmas", "divisors_of"),
    ("lemmas", "prime_array"),
    ("lemmas", "totient_table"),
    ("lemmas", "omega_table"),
    ("lemmas", "factor_table_cached"),
    ("sieve", "iter_prime_segments"),
    ("arith", "euler_phi"),
    ("arith", "sigma_minus1"),
)

# Builders whose returned arrays count toward sieve.table_bytes.
TABLE_BUILDERS = {
    "sieve.chi_divisor_sums",
    "sieve.chi_range_sums",
    "sieve.totient_table",
    "sieve.omega_table",
    "sieve.prime_array",
    "sieve.factor_table_cached",
}


class Recorder:
    """In-memory spans [name, start, end, parent] with a per-thread stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.tables: dict[int, object] = {}
        self.lemma_results = 0
        self.lemma_exact = 0
        self.wrapped = {"cli.main"}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self.current()]
        self.spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack().pop()

    def run_under(self, parent, fn, *args, **kwargs):
        """Run fn on a pool thread as a child of the submitting span."""
        self._local.base = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.base = None

    def observe(self, name: str, result) -> None:
        if name in TABLE_BUILDERS:
            for arr in _arrays(result):
                self.tables[id(arr)] = arr
        elif name == "lemmas.report":
            self.lemma_results += 1
            lhs = getattr(result, "lhs", None)
            self.lemma_exact += isinstance(lhs, (int, Fraction))

    def dump(self, path: str, command_id: int, missing: list[str]) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [name, start, end, -1 if parent is None else index[id(parent)]]
            for name, start, end, parent in self.spans
        ]
        doc = {
            "command_id": command_id,
            "spans": rows,
            "table_bytes": sum(arr.nbytes for arr in self.tables.values()),
            "lemma_results": self.lemma_results,
            "lemma_exact": self.lemma_exact,
            "wrapped": sorted(self.wrapped),
            "missing": missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _arrays(obj):
    if hasattr(obj, "nbytes"):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif hasattr(obj, "spf"):
        yield obj.spf


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _wrap(rec: Recorder, fn):
    name = _span_name(fn)
    if inspect.isgeneratorfunction(fn):
        # One span per next(), closed before the value goes back to the
        # consumer, so the consumer's work is not counted here.
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(span)
                yield item

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        rec.observe(name, result)
        return result

    return traced


def _traced_pool(rec: Recorder, pool_cls):
    """A pool whose tasks run as children of the span that submitted them."""

    class TracedPool(pool_cls):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(rec.run_under, rec.current(), fn, *args, **kwargs)

    return TracedPool


def install(rec: Recorder) -> list[str]:
    """Wrap every target that exists; return the lookup sites that do not."""
    missing = []
    wrapped = {}
    for mod_name, attr in TARGETS:
        module = importlib.import_module(f"linnikbv.{mod_name}")
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(f"{mod_name}.{attr}")
            continue
        if id(fn) not in wrapped:
            wrapped[id(fn)] = _wrap(rec, fn)
            rec.wrapped.add(_span_name(fn))
        setattr(module, attr, wrapped[id(fn)])
    linnik = importlib.import_module("linnikbv.linnik")
    pool_cls = getattr(linnik, "ThreadPoolExecutor", None)
    if pool_cls is not None:
        linnik.ThreadPoolExecutor = _traced_pool(rec, pool_cls)
    return missing


def main(argv: list[str]) -> int:
    spans_path, command_id, cli_args = argv[0], int(argv[1]), argv[2:]
    from linnikbv import cli

    rec = Recorder()
    missing = install(rec)
    span = rec.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        rec.close(span)
        rec.dump(spans_path, command_id, missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
