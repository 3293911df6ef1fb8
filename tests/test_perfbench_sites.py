"""The benchmark tracer's lookup sites still name functions of the program.

perfbench/tracer.py wraps each (module, attribute) site in TARGETS; a site
that no longer resolves drops its per-layer metrics from a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Retired with the SPF disk cache; the tracer lists it as missing.
RETIRED = {("lemmas", "factor_table_cached")}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("site", _targets(), ids=lambda site: ".".join(site))
def test_tracer_lookup_site_is_callable(site):
    module, attr = site
    found = getattr(importlib.import_module(f"linnikbv.{module}"), attr, None)
    assert callable(found) or site in RETIRED
