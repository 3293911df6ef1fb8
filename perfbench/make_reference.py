"""Pin the report rows of every benchmark command, for every residue choice.

Usage: python3 perfbench/make_reference.py

Runs each distinct command once, from ``src/`` of the checkout, and writes
``perfbench/reference.json``.  Run it only to re-pin the outputs of a
commit whose results are known to be right; the benchmark's correctness
check compares against this file.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, run_child
from workloads import all_reference_keys


def main() -> int:
    (BENCH / "results").mkdir(exist_ok=True)
    reports = {}
    for key in all_reference_keys():
        res = run_child([sys.executable, "-m", "linnikbv.cli", *key.split(), "--format", "json"])
        if res["exit"] != 0:
            print(f"{key}: exit {res['exit']}\n{res['stderr']}", file=sys.stderr)
            return 1
        reports[key] = json.loads(res["stdout"])["rows"]
        print(f"{res['wall_s']:7.2f} s  {key}", file=sys.stderr)
    doc = {"reports": reports}
    (BENCH / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
