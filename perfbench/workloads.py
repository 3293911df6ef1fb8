"""The benchmark's workloads: pinned command lists and the seed rule.

Every command is a fresh ``python -m linnikbv.cli ... --format json``
process, so each one pays its own import and table builds.

The seed picks the residue ``a`` from ``A_CHOICES`` and the order of the
commands within a pass.  Every choice is 1 or a prime above 9801, the
largest modulus bound Q used below, so (q, a) = 1 for every q <= Q and each
choice reduces over the same moduli: the seed changes the outputs but not
the work.
"""

from __future__ import annotations

import random

A_CHOICES = (1, 10007, 10009, 10037, 10039, 10061)

WORKLOADS = {
    # sieve.chi_divisor_sums at X = 2^22 is about 99% of the work; bv_sum
    # reduces over only 15 moduli.  X = 2^24 is left out because each
    # command there takes more than 20 s.
    "bv-tables": (
        "rsum --x 4194304",
        "bvsum --x 4194304 --A 1 --a {a}",
    ),
    # The per-modulus reduction and Fraction summation over 9801 moduli,
    # single-threaded beside two threads (the machine's core count).
    "bv-moduli": (
        "bvsum --x 1000000 --A 3.5 --a {a} --threads 1",
        "bvsum --x 1000000 --A 3.5 --a {a} --threads 2",
    ),
    # What the other two skip: the divisor-range split, the totient and
    # Omega tables, the lemma checkers' exact and fsum paths, and the sieve
    # streaming primes instead of building a whole-range table.
    "split-lemmas": (
        "decompose --x 1000000 --A 2 --override-exponent 2 --a {a}",
        "lemma hooley1 --x 1000000",
        "scan murty --x 1000000",
        "scan hooley13q --y 1000000 --alpha 1.25 --q 4",
        "lemma hooley15 --x 1000000 --u 200 --n 12 --which 2",
        "constant --tolerance 1e-8",
    ),
}


def commands(workload: str, seed: int) -> tuple[int, list[list[str]]]:
    """The residue a and the ordered argv lists of one pass of a workload."""
    rng = random.Random(seed)
    a = rng.choice(A_CHOICES)
    argvs = [line.format(a=a).split() for line in WORKLOADS[workload]]
    rng.shuffle(argvs)
    return a, argvs


def reference_key(argv: list[str]) -> str:
    """The key of a command's pinned report: its argv without --threads,
    because the report must not depend on the thread count."""
    out, skip = [], False
    for word in argv:
        if skip:
            skip = False
        elif word == "--threads":
            skip = True
        else:
            out.append(word)
    return " ".join(out)


def all_reference_keys() -> list[str]:
    """Every distinct report key over all workloads and residue choices."""
    keys = {
        reference_key(line.format(a=a).split())
        for lines in WORKLOADS.values()
        for line in lines
        for a in A_CHOICES
    }
    return sorted(keys)
