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
from dataclasses import dataclass, field
from typing import Optional

from . import lemmas, linnik
from .errors import ConfigurationError, PreconditionError
from .sieve import Params, primes_up_to


class UsageError(Exception):
    """Bad flag combination detected after argparse (exit code 2)."""


@dataclass
class RunConfig:
    command: str
    x: Optional[int] = None
    A: Optional[float] = None
    a: int = 1
    override_exponent: Optional[float] = None
    omega: Optional[float] = None
    alpha: Optional[float] = None
    q: Optional[int] = None
    y: Optional[int] = None
    output_format: str = "csv"
    extra: dict = field(default_factory=dict)


def _num(value):
    """Report cells: ints stay ints, rationals become floats, text passes through."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return float(value)


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return json.dumps(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return value if isinstance(value, str) else str(value)


def emit_report(rows, fmt, command, params, columns) -> str:
    """Render rows as a complete CSV or JSON report string."""
    rows = [{k: _num(r[k]) for k in columns} for r in rows]
    if fmt == "json":
        parts = [f'"command": {json.dumps(command)}']
        p_items = ", ".join(
            f"{json.dumps(k)}: {_json_scalar(_num(v))}" for k, v in params.items()
        )
        parts.append(f'"params": {{{p_items}}}')
        row_strs = []
        for r in rows:
            row_strs.append(
                "{" + ", ".join(f"{json.dumps(k)}: {_json_scalar(r[k])}" for k in columns) + "}"
            )
        parts.append(f'"rows": [{", ".join(row_strs)}]')
        return "{" + ", ".join(parts) + "}\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for r in rows:
        writer.writerow([_csv_cell(r[k]) for k in columns])
    return buf.getvalue()


def _value(config, name):
    value = getattr(config, name, None)
    return config.extra.get(name) if value is None else value


def _require(config, *names):
    missing = [n for n in names if _value(config, n) is None]
    if missing:
        raise UsageError(
            f"command '{config.command}' requires --{', --'.join(m.replace('_', '-') for m in missing)}"
        )


def _params(config, need_A=True) -> Params:
    _require(config, "x", *(["A"] if need_A else []))
    a_val = float(config.A) if config.A is not None else 0.0
    return Params(config.x, a_val, config.a, override_exponent=config.override_exponent)


def _checker_inputs(config, checker):
    """Params and report inputs read from the flags named in a checker entry."""
    attrs = {name: flag[2:].replace("-", "_") for name, flag in checker.inputs}
    required = [attrs[name] for name in attrs if name not in checker.defaults]
    _require(config, *(["x"] if checker.needs_params else []), *required)
    params = _params(config, need_A=False) if checker.needs_params else None
    return params, {name: _value(config, attr) for name, attr in attrs.items()}


def _run_lemma(config):
    lemma_id = config.extra["lemma_id"]
    if lemma_id == "epq":
        _require(config, "x", "p", "q")
        p = config.extra["p"]
        count, signed = lemmas._epq_scan(p, config.q, _params(config, need_A=False))
        row = {"p": p, "q": config.q, "E": count, "F": signed}
        return [row], ["p", "q", "E", "F"], {"lemma": "epq", "x": config.x, "a": config.a}
    params, inputs = _checker_inputs(config, lemmas.CHECKERS[lemma_id])
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


def _run_scan(config):
    lemma_id = config.extra["lemma_id"]
    checker = lemmas.CHECKERS[lemma_id]
    params, inputs = _checker_inputs(config, checker)
    var = dict(checker.inputs)[checker.scan][2:]
    rows = []
    for point in _scan_grid(inputs[checker.scan]):
        inputs[checker.scan] = point
        rep = lemmas.report(lemma_id, params=params, **inputs)
        rows.append({var: point, "lhs": rep.lhs, "envelope": rep.envelope, "ratio": rep.ratio})
    params = {"lemma": lemma_id, "points": len(rows)}
    return rows, [var, "lhs", "envelope", "ratio"], params


def render(config: RunConfig) -> str:
    """Execute one command and return its full report text."""
    cmd = config.command
    if cmd == "primes":
        _require(config, "x")
        rows = [{"p": p} for p in primes_up_to(config.x)]
        return emit_report(rows, config.output_format, cmd, {"x": config.x}, ["p"])
    if cmd == "rsum":
        _require(config, "x")
        value = linnik.sum_r_shifted_primes(config.x)
        return emit_report(
            [{"x": config.x, "value": value}], config.output_format, cmd,
            {"x": config.x}, ["x", "value"],
        )
    if cmd == "discrepancy":
        _require(config, "x", "q")
        row = linnik.discrepancy(config.x, config.q, config.a)
        cols = ["q", "a", "weighted_count", "main_term", "discrepancy"]
        return emit_report(
            [{
                "q": row.q, "a": row.a, "weighted_count": row.weighted_count,
                "main_term": row.main_term, "discrepancy": row.discrepancy,
            }],
            config.output_format, cmd, {"x": config.x}, cols,
        )
    if cmd == "bvsum":
        params = _params(config)
        value = linnik.bv_sum(params)
        return emit_report(
            [{"value": value}], config.output_format, cmd,
            {"x": params.X, "A": params.A, "a": params.a, "Q": params.Q},
            ["value"],
        )
    if cmd == "decompose":
        params = _params(config)
        result = linnik.decompose(params)
        total = result.total
        ratio = float(result.lhs / total) if total else None
        meta = {
            "x": params.X, "A": params.A, "a": params.a,
            "override_exponent": params.override_exponent,
            "Q": params.Q, "D": params.D,
        }
        # The run parameters ride along in the row so the exponent override
        # stays visible in CSV output too.
        row = dict(meta)
        row.update(
            S1=result.S1, S2=result.S2, S3=result.S3, S4=result.S4,
            total=total, lhs=result.lhs, ratio=ratio,
        )
        return emit_report(
            [row], config.output_format, cmd, meta,
            list(meta) + ["S1", "S2", "S3", "S4", "total", "lhs", "ratio"],
        )
    if cmd == "constant":
        tol = config.extra["tolerance"]
        res = linnik.linnik_constant(tol)
        return emit_report(
            [{
                "tolerance": tol, "value": res.value,
                "prime_bound": res.prime_bound, "tail_bound": res.tail_bound,
            }],
            config.output_format, cmd, {"tolerance": tol},
            ["tolerance", "value", "prime_bound", "tail_bound"],
        )
    if cmd == "theta0":
        return emit_report(
            [{"value": linnik.theta0()}], config.output_format, cmd, {}, ["value"]
        )
    if cmd in ("lemma", "scan"):
        rows, columns, meta = (_run_lemma if cmd == "lemma" else _run_scan)(config)
        return emit_report(rows, config.output_format, cmd, meta, columns)
    raise UsageError(f"unknown command: {cmd}")


def build_parser() -> argparse.ArgumentParser:
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
    for name in ("primes", "rsum", "discrepancy", "bvsum", "decompose", "theta0"):
        sub.add_parser(name, parents=[common])
    constant = sub.add_parser("constant", parents=[common])
    constant.add_argument("--tolerance", type=float, default=1e-8)
    lemma = sub.add_parser("lemma", parents=[common])
    lemma.add_argument("lemma_id", choices=(*lemmas.CHECKERS, "epq"))
    scan = sub.add_parser("scan", parents=[common])
    scan.add_argument(
        "lemma_id", choices=[i for i, c in lemmas.CHECKERS.items() if c.scan]
    )
    for p in (lemma, scan):
        p.add_argument("--n", type=int)
        p.add_argument("--r", type=int)
        p.add_argument("--s", type=int)
        p.add_argument("--u", type=float)
        p.add_argument("--u-prime", type=float, dest="u_prime")
        p.add_argument("--which", type=int, choices=(1, 2, 3))
        p.add_argument("--l-max", type=int, dest="l_max")
        p.add_argument("--p", type=int)
    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    extra = {
        key: getattr(ns, key)
        for key in ("lemma_id", "n", "r", "s", "u", "u_prime", "which", "l_max", "p", "tolerance")
        if hasattr(ns, key)
    }
    if ns.threads < 1:
        raise UsageError("--threads must be at least 1")
    return RunConfig(
        command=ns.command,
        x=ns.x,
        A=ns.A,
        a=ns.a,
        override_exponent=ns.override_exponent,
        omega=ns.omega,
        alpha=ns.alpha,
        q=ns.q,
        y=ns.y,
        output_format=ns.output_format,
        extra=extra,
    )


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = config_from_args(ns)
        text = render(config)
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
