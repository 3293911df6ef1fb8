"""Command-line entry point.

Commands: primes, rsum, discrepancy, bvsum, decompose, constant, theta0,
lemma <id>, scan <id>.  Reports go to standard output as CSV (RFC 4180,
dot decimal separator) or JSON (one object with command, params, rows;
numbers carry 17 significant digits).  The report is rendered fully before
anything is written, so a failing run never leaves partial output.

Exit codes: 0 success, 2 usage error, 3 precondition error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import linnik
from .errors import ConfigurationError, PreconditionError
from .sieve import Params, check_bulk_limit, iter_prime_segments


class UsageError(Exception):
    """Bad flag combination detected after argparse (exit code 2)."""


def _json_scalar(value) -> str:
    """A report cell as JSON: ints stay ints, rationals become 17-digit floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    return format(float(value), ".17g")


def _csv_cell(value) -> str:
    """A report cell as CSV text, rationals as 17-digit floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".17g")


def emit_report(rows, fmt, command, params, columns) -> str:
    """Render rows, mappings read once and converted as written, as a CSV or JSON string."""
    buf = io.StringIO()
    if fmt == "json":
        p_items = ", ".join(
            f"{json.dumps(k)}: {_json_scalar(v)}" for k, v in params.items()
        )
        buf.write(f'{{"command": {json.dumps(command)}, "params": {{{p_items}}}, "rows": [')
        heads = [f"{json.dumps(k)}: " for k in columns]
        sep = ""
        for r in rows:
            cells = ", ".join(h + _json_scalar(r[k]) for h, k in zip(heads, columns))
            buf.write(f"{sep}{{{cells}}}")
            sep = ", "
        buf.write("]}\n")
        return buf.getvalue()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for r in rows:
        writer.writerow([_csv_cell(r[k]) for k in columns])
    return buf.getvalue()


def _require(ns, *names):
    missing = [n for n in names if getattr(ns, n) is None]
    if missing:
        raise UsageError(
            f"command '{ns.command}' requires --{', --'.join(m.replace('_', '-') for m in missing)}"
        )


def _params(ns, need_A=True) -> Params:
    _require(ns, "x", *(["A"] if need_A else []))
    A = 0.0 if ns.A is None else ns.A
    return Params(ns.x, A, ns.a, override_exponent=ns.override_exponent)


def _checker_inputs(ns, checker):
    """Params and report inputs read from the flags named in a checker entry."""
    attrs = {name: flag[2:].replace("-", "_") for name, flag, _type in checker.inputs}
    required = [attrs[name] for name in attrs if name not in checker.defaults]
    _require(ns, *(["x"] if checker.needs_params else []), *required)
    params = _params(ns, need_A=False) if checker.needs_params else None
    return params, {name: getattr(ns, attr) for name, attr in attrs.items()}


def _primes(ns):
    _require(ns, "x")
    check_bulk_limit(ns.x)
    return _prime_rows(ns.x), ["p"], {"x": ns.x}


def _prime_rows(x):
    for seg in iter_prime_segments(x):
        for p in seg.tolist():
            yield {"p": p}
        del seg  # before the next segment is sieved


def _rsum(ns):
    _require(ns, "x")
    value = linnik.sum_r_shifted_primes(ns.x)
    return [{"x": ns.x, "value": value}], ["x", "value"], {"x": ns.x}


def _discrepancy(ns):
    _require(ns, "x", "q")
    row = linnik.discrepancy(ns.x, ns.q, ns.a)
    columns = ["q", "a", "weighted_count", "main_term", "discrepancy"]
    return [vars(row)], columns, {"x": ns.x}


def _bvsum(ns):
    params = _params(ns)
    meta = {"x": params.X, "A": params.A, "a": params.a, "Q": params.Q}
    return [{"value": linnik.bv_sum(params)}], ["value"], meta


def _decompose(ns):
    params = _params(ns)
    result = linnik.decompose(params)
    total = result.total
    meta = {
        "x": params.X, "A": params.A, "a": params.a,
        "override_exponent": params.override_exponent,
        "Q": params.Q, "D": params.D,
    }
    # The run parameters ride along in the row so the exponent override
    # stays visible in CSV output too.
    row = dict(
        meta, S1=result.S1, S2=result.S2, S3=result.S3, S4=result.S4,
        total=total, lhs=result.lhs, ratio=float(result.lhs / total) if total else None,
    )
    return [row], list(row), meta


def _theta0(ns):
    return [{"value": linnik.theta0()}], ["value"], {}


def _constant(ns):
    res = linnik.linnik_constant(ns.tolerance)
    row = {
        "tolerance": ns.tolerance, "value": res.value,
        "prime_bound": res.prime_bound, "tail_bound": res.tail_bound,
    }
    return [row], list(row), {"tolerance": ns.tolerance}


def _lemma(ns):
    from . import lemmas

    lemma_id = ns.lemma_id
    if lemma_id == "epq":
        _require(ns, "x", "p", "q")
        count, signed = lemmas._epq_scan(ns.p, ns.q, _params(ns, need_A=False))
        row = {"p": ns.p, "q": ns.q, "E": count, "F": signed}
        return [row], list(row), {"lemma": "epq", "x": ns.x, "a": ns.a}
    params, inputs = _checker_inputs(ns, lemmas.CHECKERS[lemma_id])
    rep = lemmas.report(lemma_id, params=params, **inputs)
    columns = ["lemma", *sorted(rep.inputs), "lhs", "envelope", "ratio"]
    row = {"lemma": lemma_id, **rep.inputs}
    row.update(lhs=rep.lhs, envelope=rep.envelope, ratio=rep.ratio)
    if lemma_id == "brun_titchmarsh":
        columns.append("holds")
        row["holds"] = rep.ratio < 1.0
    return [row], columns, {"lemma": lemma_id, **rep.inputs}


def _scan_grid(maximum):
    grid = []
    point = 100
    while point <= maximum:
        grid.append(point)
        point *= 10
    return grid or [maximum]


def _scan(ns):
    from . import lemmas

    lemma_id = ns.lemma_id
    checker = lemmas.CHECKERS[lemma_id]
    params, inputs = _checker_inputs(ns, checker)
    var = next(flag for name, flag, _type in checker.inputs if name == checker.scan)[2:]
    rows = []
    for point in _scan_grid(inputs[checker.scan]):
        inputs[checker.scan] = point
        rep = lemmas.report(lemma_id, params=params, **inputs)
        rows.append({var: point, "lhs": rep.lhs, "envelope": rep.envelope, "ratio": rep.ratio})
    return rows, [var, "lhs", "envelope", "ratio"], {"lemma": lemma_id, "points": len(rows)}


# Each command's function reads the parsed flags and returns (rows, columns,
# params); the subparsers are built, and listed in usage text, in this order.
COMMANDS = {
    "primes": _primes,
    "rsum": _rsum,
    "discrepancy": _discrepancy,
    "bvsum": _bvsum,
    "decompose": _decompose,
    "theta0": _theta0,
    "constant": _constant,
    "lemma": _lemma,
    "scan": _scan,
}


def render(ns: argparse.Namespace) -> str:
    """Execute one parsed command and return its full report text."""
    if ns.threads < 1:
        raise UsageError("--threads must be at least 1")
    rows, columns, params = COMMANDS[ns.command](ns)
    return emit_report(rows, ns.output_format, ns.command, params, columns)


def _command_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by command, without the checker table's arguments."""
    parser = argparse.ArgumentParser(
        prog="linnikbv",
        description="Desk-scale checks for shifted primes p = x^2 + y^2 + 1: "
        "r-weighted progression discrepancies, their divisor-range "
        "decomposition, and the supporting lemma envelopes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="output_format")
    common.add_argument("--threads", type=int, default=1, help="has no effect")
    common.add_argument("--x", type=int)
    common.add_argument("--A", type=float)
    common.add_argument("--a", type=int, default=1)
    common.add_argument("--override-exponent", type=float, default=None)
    common.add_argument("--omega", type=float)
    common.add_argument("--alpha", type=float)
    common.add_argument("--q", type=int)
    common.add_argument("--y", type=int)
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name, parents=[common]) for name in COMMANDS}
    subs["constant"].add_argument("--tolerance", type=float, default=1e-8)
    return parser, subs


def _add_checker_arguments(subs: dict) -> None:
    """Add lemma_id and the checker table's flags to the lemma and scan subparsers."""
    from . import lemmas

    # The checker flags beyond the common ones, typed by the checker table.
    common = subs["lemma"]._option_string_actions
    flags = {}
    for checker in lemmas.CHECKERS.values():
        for name, flag, kind in checker.inputs:
            if flag not in common:
                flags.setdefault(flag, {"type": kind, "choices": checker.choices.get(name)})
    subs["lemma"].add_argument("lemma_id", choices=(*lemmas.CHECKERS, "epq"))
    subs["scan"].add_argument(
        "lemma_id", choices=[i for i, c in lemmas.CHECKERS.items() if c.scan]
    )
    for p in (subs["lemma"], subs["scan"]):
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
        p.add_argument("--p", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser, subs = _command_parser()
    _add_checker_arguments(subs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, subs = _command_parser()
    # Only lemma and scan read the checker table, and only they, or a line that names
    # no known command (whose usage lists them), import lemmas.
    if not argv or argv[0] not in COMMANDS or argv[0] in ("lemma", "scan"):
        _add_checker_arguments(subs)
    ns = parser.parse_args(argv)
    try:
        text = render(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
