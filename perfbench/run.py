"""Closed-loop benchmark of the linnikbv CLI, one client, one command at a time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``
with no install step.  Each command of a pass is a fresh
``python -m linnikbv.cli ... --format json`` process, started only after
the previous one has exited, and its report is checked against
``reference.json``.  Passes repeat while one more pass would end no later
than half a pass after ``--seconds`` (at least one pass; with ``--trace 1``
at least one untraced and one traced pass, alternating), and only while it
would also end within RUN_LIMIT_S.  Two set-up samples are taken before
each pass and after the last.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics (medians over passes); with ``--trace 1`` it
holds the per-layer metrics of the traced passes (see tracer.py).  The
full record, every raw sample included, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, commands, reference_key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_SAMPLES_PER_GAP = 2
# A pass starts only if a pass as long as the last one would end this long
# after the run started.  A command still running then is killed, so that a
# run always ends within three minutes; it counts as timed out, not as
# failed, and its pass is left out of the metrics.
RUN_LIMIT_S = 150.0

# Functions whose self time is a per-layer metric, named by defining module.
SELF_TIMED = (
    "sieve.chi_divisor_sums",
    "sieve.chi_range_sums",
    "sieve.divisors_of",
    "sieve.totient_table",
    "sieve.omega_table",
    "sieve.prime_array",
    "sieve.iter_prime_segments",
    "linnik.bv_sum",
    "linnik.decompose",
    "linnik.sum_r_shifted_primes",
    "linnik.linnik_constant",
    "arith.sigma_minus1",
    "lemmas.hooley1_lhs",
    "lemmas.murty_sum",
    "lemmas.hooley13q_sum",
    "lemmas.hooley15_sums",
    "cli.emit_report",
)
COUNTED = ("sieve.divisors_of", "arith.sigma_minus1")


class SetupError(Exception):
    """The checkout cannot run the program; no result is printed."""


class TimedOut(Exception):
    """Too slow for one complete pass of each kind; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv: list[str], timeout: float = RUN_LIMIT_S) -> dict:
    """Run one process to completion; wall, CPU and peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "exit": proc.returncode,
            "timed_out": killed.is_set(),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace"),
        }


def check_report(argv: list[str], res: dict, reference: dict) -> str | None:
    """None when the command succeeded with the pinned rows, else why not."""
    if res["exit"] != 0:
        return f"exit code {res['exit']}"
    if "Traceback" in res["stderr"]:
        return "traceback on stderr"
    try:
        rows = json.loads(res["stdout"])["rows"]
    except (ValueError, KeyError, TypeError):
        return "unparseable report"
    expected = reference.get(reference_key(argv))
    if expected is None:
        return "no pinned reference"
    if argv[0] != "constant":
        return None if rows == expected else "rows differ"
    # The truncated product is pinned only to within its tolerance.
    try:
        if _without_value(rows) != _without_value(expected):
            return "rows differ"
        for got, want in zip(rows, expected):
            if not abs(got["value"] - want["value"]) <= want["tolerance"]:
                return "value outside tolerance"
    except (AttributeError, KeyError, TypeError):
        return "malformed report"
    return None


def _without_value(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "value"} for row in rows]


def run_pass(argvs, reference, traced, span_dir: Path, deadline: float) -> dict:
    """Run the command list once; stop early if a command is killed at the deadline."""
    cmds = []
    for i, argv in enumerate(argvs):
        cli_args = [*argv, "--format", "json"]
        if traced:
            spans = span_dir / f"cmd{i}.json"
            child = [sys.executable, str(BENCH / "tracer.py"), str(spans), str(i), *cli_args]
        else:
            child = [sys.executable, "-m", "linnikbv.cli", *cli_args]
        res = run_child(child, deadline - time.perf_counter())
        if res["timed_out"]:
            print(f"TIMED OUT: {' '.join(argv)}: killed {RUN_LIMIT_S:.0f} s into the run; "
                  "pass left out", file=sys.stderr)
            return {"traced": traced, "complete": False, "commands": cmds}
        failure = check_report(argv, res, reference)
        if failure:
            print(f"FAILED: {' '.join(argv)}: {failure}\n{res['stderr'][-2000:]}", file=sys.stderr)
        cmds.append({
            "argv": argv,
            "exit": res["exit"],
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "rss_mb": res["rss_mb"],
            "failure": failure,
        })
    return {
        "traced": traced,
        "complete": True,
        "wall_s": sum(c["wall_s"] for c in cmds),
        "cpu_s": sum(c["cpu_s"] for c in cmds),
        "peak_rss_mb": max(c["rss_mb"] for c in cmds),
        "commands": cmds,
    }


# --- per-layer metrics from spans ---------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def command_layers(argv: list[str], dump: dict) -> dict:
    """Self time and call count per span name for one traced command."""
    spans = dump["spans"]
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    self_s = defaultdict(float)
    calls = defaultdict(int)
    moduli = 0
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] += (end - start) - _covered(children[i], start, end)
        calls[name] += 1
        if name == "arith.euler_phi":
            while parent >= 0 and not spans[parent][0].startswith("linnik."):
                parent = spans[parent][3]
            moduli += parent >= 0
    threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
    return {
        "threads": threads,
        "self_s": dict(self_s),
        "calls": dict(calls),
        "moduli": moduli,
        "table_bytes": dump["table_bytes"],
        "lemma_results": dump["lemma_results"],
        "lemma_exact": dump["lemma_exact"],
        "wrapped": dump["wrapped"],
        "missing": dump["missing"],
    }


def pass_layers(cmds: list[dict]) -> dict:
    """Per-layer metrics of one traced pass.

    A function that exists but does not run on the workload reads 0; a
    metric whose function the program no longer has is left out.
    """
    if not cmds:
        return {}
    wrapped = set().union(*(c["wrapped"] for c in cmds))

    def total(kind, name, threads=None):
        return sum(
            c[kind].get(name, 0) for c in cmds if threads is None or c["threads"] == threads
        )

    out = {}
    for name in SELF_TIMED:
        if name in wrapped:
            out[f"{name}.self_s"] = float(total("self_s", name))
    for name in COUNTED:
        if name in wrapped:
            out[f"{name}.calls"] = total("calls", name)
    out["sieve.table_bytes"] = max(c["table_bytes"] for c in cmds)
    if "arith.euler_phi" in wrapped:
        out["linnik.moduli"] = sum(c["moduli"] for c in cmds)
    if "linnik.bv_sum" in wrapped:
        one, two = total("self_s", "linnik.bv_sum", 1), total("self_s", "linnik.bv_sum", 2)
        out["linnik.bv_sum.speedup_2t"] = one / two if one and two else 0.0
    if "lemmas.report" in wrapped:
        results = sum(c["lemma_results"] for c in cmds)
        out["lemmas.exact_share"] = sum(c["lemma_exact"] for c in cmds) / results if results else 0.0
    out["cli.self_s"] = total("self_s", "cli.main")
    return out


# --- run ------------------------------------------------------------------


def check_program() -> None:
    """Fail unless linnikbv.cli imports from this checkout's src/."""
    if not (SRC / "linnikbv" / "cli.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    probe = run_child([sys.executable, "-c", "import linnikbv.cli as m; print(m.__file__)"])
    if probe["exit"] != 0:
        raise SetupError(f"cannot import linnikbv.cli:\n{probe['stderr']}")
    if not Path(probe["stdout"].strip()).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"linnikbv.cli imported from outside {SRC}: {probe['stdout'].strip()}")


def setup_sample() -> float:
    """Wall seconds for a fresh interpreter to import linnikbv.cli."""
    res = run_child([sys.executable, "-c", "import linnikbv.cli"])
    if res["exit"] != 0:
        raise SetupError(f"cannot import linnikbv.cli:\n{res['stderr']}")
    return res["wall_s"]


def environment(seed: int, a: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "a": a,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Set up, run passes for the given time and return the full record."""
    RESULTS.mkdir(exist_ok=True)
    a, argvs = commands(workload, seed)
    check_program()
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed, a),
        "order": [" ".join(argv) for argv in argvs],
        "setup_s": [],
        "passes": [],
    }
    passes = record["passes"]

    def sample_setup():
        for _ in range(SETUP_SAMPLES_PER_GAP):
            record["setup_s"].append(setup_sample())

    with tempfile.TemporaryDirectory(dir=RESULTS) as span_root:
        # Set-up samples are spread over the run, between passes, so that
        # they see the same machine as the passes do.
        start = time.perf_counter()
        while True:
            sample_setup()
            traced = trace and len(passes) % 2 == 1
            span_dir = Path(span_root) / f"pass{len(passes)}"
            if traced:
                span_dir.mkdir()
            passes.append(run_pass(argvs, reference, traced, span_dir, start + RUN_LIMIT_S))
            if not passes[-1]["complete"]:
                break
            # Stop when one more pass would end over half a pass late, or
            # would not end within the run limit.
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1]["wall_s"] > RUN_LIMIT_S:
                break
            if len(passes) >= 1 + trace and elapsed + passes[-1]["wall_s"] / 2 >= seconds:
                break
        sample_setup()
        for i, p in enumerate(record["passes"]):
            if p["traced"] and p["complete"]:
                dumps = [Path(span_root) / f"pass{i}" / f"cmd{j}.json" for j in range(len(argvs))]
                p["layers"] = pass_layers([
                    command_layers(c["argv"], json.loads(path.read_text()))
                    for c, path in zip(p["commands"], dumps)
                    if path.is_file()
                ])
    summarize(record)
    return record


def summarize(record: dict) -> None:
    passes = record["passes"]
    cmds = [c for p in passes for c in p["commands"]]
    failed = sum(c["failure"] is not None for c in cmds)
    plain = [p for p in passes if p["complete"] and not p["traced"]]
    traced = [p for p in passes if p["complete"] and p["traced"]]
    record.update(
        attempted=len(cmds),
        failed=failed,
        failed_share=failed / len(cmds) if cmds else 0.0,
        timed_out=sum(not p["complete"] for p in passes),
    )
    record["samples"] = {"passes": len(plain), "traced_passes": len(traced), "setup": len(record["setup_s"])}
    if not plain or (record["trace"] and not traced):
        raise TimedOut(
            f"no complete {'traced ' if plain else ''}pass within {RUN_LIMIT_S:.0f} s "
            f"({record['timed_out']} pass(es) timed out)"
        )

    def med(key, group):
        return statistics.median(p[key] for p in group)

    record["end_to_end"] = {
        "wall_s": med("wall_s", plain),
        "cpu_s": med("cpu_s", plain),
        "peak_rss_mb": med("peak_rss_mb", plain),
        "setup_s": statistics.median(record["setup_s"]),
    }
    if record["trace"]:
        names = traced[0]["layers"]
        metrics = {
            n: statistics.median(p["layers"][n] for p in traced if n in p["layers"])
            for n in names
        }
        metrics["trace.overhead_s"] = med("wall_s", traced) - med("wall_s", plain)
    else:
        metrics = record["end_to_end"]
    record["metrics"] = metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        units = load_units()
        reference = load_reference()
        record = run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace), reference)
    except TimedOut as exc:
        print(f"benchmark timed out: {exc}", file=sys.stderr)
        return 1
    except (SetupError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = RESULTS / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    print(
        f"{ns.workload}: {record['samples']} attempted={record['attempted']} "
        f"failed={record['failed']} timed_out={record['timed_out']} "
        f"record={path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }))
    return 0


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())["reports"]


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
