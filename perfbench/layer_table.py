"""Print per-layer self times for every workload as one Markdown table.

Usage: python3 perfbench/layer_table.py [--seed N] [--seconds S]

Runs each workload with tracing (at least one untraced and one traced
pass) and prints one row per per-layer metric and one column per workload,
the shape of the Baseline table in ROADMAP.md.  A cell reads "—" where the
metric's function does not run on that workload.
"""

from __future__ import annotations

import argparse
import sys

from run import load_reference, run_workload
from workloads import WORKLOADS


def cell(name: str, value) -> str:
    if value is None:
        return "—"
    if name.split(" ")[0].endswith("_s"):
        return f"{value:.3f} s"
    if name.endswith("table_bytes"):
        return f"{value / 2**20:.1f} MiB"
    if isinstance(value, int):
        return str(value)
    return f"{value:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    ns = parser.parse_args(argv)
    reference = load_reference()
    columns = {}
    for workload in WORKLOADS:
        record = run_workload(workload, ns.seed, ns.seconds, True, reference)
        if record["failed"]:
            print(f"{workload}: {record['failed']} commands failed", file=sys.stderr)
            return 1
        columns[workload] = {
            "wall_s (untraced)": record["end_to_end"]["wall_s"],
            **record["metrics"],
        }
    names = list(dict.fromkeys(n for col in columns.values() for n in col))
    print("| layer metric | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for name in names:
        values = [col.get(name) for col in columns.values()]
        idle = name.endswith((".self_s", ".calls", ".speedup_2t", ".exact_share", ".moduli"))
        cells = [cell(name, None if idle and not v else v) for v in values]
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
