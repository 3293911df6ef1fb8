"""The benchmark's tracer sites and command lines still fit the program.

perfbench/tracer.py wraps each (module, attribute) site in TARGETS; a site
that no longer resolves drops its per-layer metrics from a traced run.
perfbench/workloads.py pins the CLI argv of every benchmark command; one
the parser rejects fails every pass of its workload.  The commands whose
chi arrays are read at the primes must still print the rows pinned in
perfbench/reference.json.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from linnikbv import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Retired with the SPF disk cache, when linnik came to read the chi
# arrays at the primes through the odd-prime mask, and when linnik_constant
# came to read its primes off the sieve's odd masks; the tracer lists them
# as missing.  sieve.iter_prime_segments is still wrapped at its sieve site.
RETIRED = {
    ("lemmas", "factor_table_cached"),
    ("linnik", "prime_array"),
    ("linnik", "iter_prime_segments"),
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("site", _load("tracer").TARGETS, ids=lambda site: ".".join(site))
def test_tracer_lookup_site_is_callable(site):
    module, attr = site
    found = getattr(importlib.import_module(f"linnikbv.{module}"), attr, None)
    assert callable(found) or site in RETIRED


TRACER = _load("tracer")
BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
# Metrics a traced run prints whatever the program holds: the root span's
# self time, the table total and the traced-minus-plain wall time.
ALWAYS_PRINTED = {"cli.self_s", "sieve.table_bytes", "trace.overhead_s"}
# Metrics a traced run prints only while the span behind them is wrapped.
DERIVED_FROM = {
    "linnik.moduli": "arith.euler_phi",
    "linnik.bv_sum.speedup_2t": "linnik.bv_sum",
    "lemmas.exact_share": "lemmas.report",
}


def _wrapped_span_names():
    names = set()
    for module, attr in TRACER.TARGETS:
        found = getattr(importlib.import_module(f"linnikbv.{module}"), attr, None)
        if callable(found):
            names.add(TRACER._span_name(found))
    return names


@pytest.mark.parametrize("metric", [m for m in PER_LAYER if m not in ALWAYS_PRINTED])
def test_traced_run_can_print_every_declared_metric(metric):
    # perfbench/run.py drops <fn>.self_s and <fn>.calls once no lookup site
    # of fn resolves, and the derived metrics once their span is gone.
    if metric.endswith((".self_s", ".calls")):
        span = metric.rsplit(".", 1)[0]
    else:
        span = DERIVED_FROM[metric]
    assert span in _wrapped_span_names()


WORKLOADS = _load("workloads")


@pytest.mark.parametrize(
    "line", [line for lines in WORKLOADS.WORKLOADS.values() for line in lines]
)
def test_workload_argv_parses(line):
    parser = cli.build_parser()
    for a in WORKLOADS.A_CHOICES:
        parser.parse_args(line.format(a=a).split())


REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["reports"]


@pytest.mark.parametrize(
    "line",
    [f"decompose --x 1000000 --A 2 --override-exponent 2 --a {a}" for a in WORKLOADS.A_CHOICES]
    + ["lemma hooley1 --x 1000000", "rsum --x 4194304"],
)
def test_shifted_prime_reports_match_reference(line, capsys):
    argv = line.split()
    assert cli.main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == REFERENCE[WORKLOADS.reference_key(argv)]
