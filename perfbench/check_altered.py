"""Show that the output check catches a wrong report.

Usage: python3 perfbench/check_altered.py

Changes two pinned values of reference.json in memory (an exact integer,
and the constant moved by twice its tolerance), runs one pass of
split-lemmas against them, and exits 0 only when exactly those two
commands are reported failed.
"""

from __future__ import annotations

import sys

from run import load_reference, run_workload

ALTERED = {
    "lemma hooley1 --x 1000000": ("lhs", 1),
    "constant --tolerance 1e-8": ("value", 2e-8),
}


def main() -> int:
    reference = load_reference()
    for key, (field, delta) in ALTERED.items():
        reference[key][0][field] += delta
    record = run_workload("split-lemmas", 1, 0, False, reference)
    correct = record["failed"] == 0
    print(f"altered reference: attempted={record['attempted']} failed={record['failed']} "
          f"failed_share={record['failed_share']:.3f} correct={correct}")
    ok = record["failed"] == len(ALTERED)
    print("check caught the altered values" if ok else "CHECK DID NOT CATCH THE ALTERED VALUES")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
