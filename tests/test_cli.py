import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from linnikbv import cli, lemmas, linnik
from linnikbv.cli import emit_report
from linnikbv.sieve import Params


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(code, **env):
    """Stdout of code run in a new interpreter that imports this checkout's
    linnikbv, with OPENBLAS_NUM_THREADS unset unless given in env."""
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    full["PYTHONPATH"] = os.pathsep.join(p for p in (src, full.get("PYTHONPATH")) if p)
    full.update(env)
    run = subprocess.run([sys.executable, "-c", code], env=full, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_import_leaves_one_thread():
    # numpy's BLAS pool would add a thread; the package pins it to one.
    out = fresh_python("import os, linnikbv; print(len(os.listdir('/proc/self/task')))")
    assert out.split() == ["1"]


def test_preset_blas_thread_count_is_kept():
    code = "import os, linnikbv; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python(code).split() == ["1"]
    assert fresh_python(code, OPENBLAS_NUM_THREADS="2").split() == ["2"]


def test_primes_csv(capsys):
    code, out, err = run_cli(capsys, ["primes", "--x", "10"])
    assert code == 0
    assert out == "p\r\n2\r\n3\r\n5\r\n7\r\n"
    assert err == ""


def test_primes_empty_is_header_only(capsys):
    code, out, _ = run_cli(capsys, ["primes", "--x", "1"])
    assert code == 0
    assert out == "p\r\n"


def test_theta0_ten_decimals(capsys):
    code, out, _ = run_cli(capsys, ["theta0"])
    assert code == 0
    value_text = out.splitlines()[1]
    assert value_text.startswith("0.0289")
    digits = value_text.split(".")[1]
    assert len(digits) >= 10
    assert float(value_text) == linnik.theta0()


def test_bvsum_json_fields(capsys):
    code, out, _ = run_cli(
        capsys, ["bvsum", "--x", "10000", "--A", "1", "--a", "1", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "bvsum"
    assert doc["params"]["x"] == 10000
    assert doc["params"]["A"] == 1.0
    assert doc["params"]["a"] == 1
    assert doc["params"]["Q"] == math.log(10**4)
    assert doc["rows"][0]["value"] == float(linnik.bv_sum(Params(10**4, 1.0, 1)))


def test_discrepancy_csv_schema(capsys):
    code, out, _ = run_cli(capsys, ["discrepancy", "--x", "50", "--q", "4", "--a", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,a,weighted_count,main_term,discrepancy"
    assert len(lines) == 2
    assert len(lines[1].split(",")) == 5


def test_lemma_murty_row(capsys):
    code, out, _ = run_cli(capsys, ["lemma", "murty", "--x", "2"])
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert row[header.index("lhs")] == "2"
    assert row[header.index("lemma")] == "murty"


def test_lemma_epq(capsys):
    code, out, _ = run_cli(
        capsys,
        ["lemma", "epq", "--x", "10000", "--p", "101", "--q", "4",
         "--override-exponent", "1"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,q,E,F"
    assert lines[1] == "101,4,1,1"


def test_scan_emits_ratio_columns(capsys):
    code, out, _ = run_cli(capsys, ["scan", "murty", "--x", "10000"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,lhs,envelope,ratio"
    assert len(lines) == 4  # x = 100, 1000, 10000


def test_json_round_trip():
    rows = [
        {"q": 3, "value": 0.1, "count": 7},
        {"q": 5, "value": 2.0, "count": 0},
    ]
    text = emit_report(rows, "json", "demo", {"x": 4}, ["q", "value", "count"])
    parsed = json.loads(text)
    assert parsed["rows"] == rows
    assert parsed["params"] == {"x": 4}


def test_json_17_significant_digits():
    rows = [{"value": 2 / 3}]
    text = emit_report(rows, "json", "demo", {}, ["value"])
    assert "0.66666666666666663" in text
    assert json.loads(text)["rows"][0]["value"] == 2 / 3


def test_emit_report_reads_rows_once_and_pins_cells():
    rows = [{"n": 3, "r": Fraction(1, 3), "f": 0.5, "ok": True, "none": None, "s": "a"}]
    columns = list(rows[0])
    assert emit_report(iter(rows), "json", "demo", {"r": Fraction(2, 3)}, columns) == (
        '{"command": "demo", "params": {"r": 0.66666666666666663}, "rows": [{"n": 3, '
        '"r": 0.33333333333333331, "f": 0.5, "ok": true, "none": null, "s": "a"}]}\n'
    )
    assert emit_report(iter(rows), "csv", "demo", {}, columns) == (
        "n,r,f,ok,none,s\r\n3,0.33333333333333331,0.5,true,,a\r\n"
    )


def test_csv_quoting_is_rfc4180():
    rows = [{"name": 'a,"b"', "v": 1}]
    text = emit_report(rows, "csv", "demo", {}, ["name", "v"])
    assert text == 'name,v\r\n"a,""b""",1\r\n'


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["lemma", "not_a_lemma", "--x", "10"])
    assert exc.value.code == 2


def test_exit_code_missing_flag(capsys):
    code, out, err = run_cli(capsys, ["rsum"])
    assert code == 2
    assert out == ""
    assert "requires" in err


def test_exit_code_precondition(capsys):
    code, out, err = run_cli(capsys, ["discrepancy", "--x", "100", "--q", "4", "--a", "2"])
    assert code == 3
    assert out == ""
    assert "gcd" in err


def test_exit_code_degenerate_D(capsys):
    code, out, err = run_cli(capsys, ["decompose", "--x", "1000000", "--A", "0"])
    assert code == 3
    assert out == ""
    assert "degenerate-D" in err


def test_override_exponent_unlocks_decompose(capsys):
    code, out, _ = run_cli(
        capsys,
        ["decompose", "--x", "10000", "--A", "1", "--override-exponent", "0",
         "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["override_exponent"] == 0.0
    row = doc["rows"][0]
    assert row["S1"] == 845.0
    assert row["S2"] == float(Fraction(208, 3))
    assert row["total"] == row["S1"] + row["S2"] + row["S3"] + row["S4"]


def test_decompose_csv_shows_override(capsys):
    code, out, _ = run_cli(
        capsys, ["decompose", "--x", "10000", "--A", "1", "--override-exponent", "0"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,A,a,override_exponent,Q,D,S1,S2,S3,S4,total,lhs,ratio"
    cells = lines[1].split(",")
    assert cells[:4] == ["10000", "1", "1", "0"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_decompose_ratio_undefined_at_zero_total(capsys, fmt):
    code, out, _ = run_cli(
        capsys,
        ["decompose", "--x", "100", "--A", "0", "--override-exponent", "0", "--format", fmt],
    )
    assert code == 0
    if fmt == "json":
        row = json.loads(out)["rows"][0]
        assert row["total"] == 0 and row["ratio"] is None
    else:
        header, cells = (line.split(",") for line in out.splitlines())
        assert cells[header.index("total")] == "0"
        assert cells[header.index("ratio")] == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["constant", "--tolerance", "0"],
        ["lemma", "hooley1", "--x", "1000", "--omega", "0"],
        ["lemma", "hooley13", "--y", "1000", "--alpha", "0.5", "--omega", "0"],
        ["scan", "hooley1", "--x", "1000", "--omega", "0"],
        ["lemma", "hooley15", "--x", "1000", "--u", "5", "--n", "6", "--which", "3",
         "--u-prime", "0"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_zero_value_is_not_replaced_by_default(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "line",
    [
        "bvsum --x 10000 --A nan",
        "bvsum --x 10000 --A inf",
        "bvsum --x 10000 --A 1e308",
        "decompose --x 10000 --A 1 --override-exponent nan",
        "decompose --x 10000 --A 1 --override-exponent 1e308",
        "decompose --x 10000 --A 1 --override-exponent=-1e308",
        "lemma hooley1 --x 1000 --omega 1e308",
        "lemma hooley1 --x 1000 --omega inf",
        "scan hooley1 --x 1000 --omega 1e308",
        "lemma hooley13 --y 1000 --alpha 0.5 --omega 1e308",
        "lemma omega_power --y 100 --alpha nan",
        "lemma omega_power --y 100 --alpha inf",
        "lemma hooley15 --x 1000 --u 20 --n 12 --which 2 --u-prime nan",
        "lemma hooley15 --x 1000 --u 20 --n 12 --which 2 --omega inf",
        "lemma hooley15 --x 1000 --u 20 --n 12 --which 1 --omega 1e308",
        "constant --tolerance inf",
        # Positive, but 1/tolerance overflows a float.
        "constant --tolerance 5e-324",
        "constant --tolerance 1e-320",
    ],
)
def test_non_finite_or_overflowing_value_is_a_precondition_error(capsys, line):
    code, out, err = run_cli(capsys, line.split())
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "line, reason",
    [
        # Q = (log 10^4)^5 is about 6.6e4 and (log 10^4)^10 about 4.4e9.
        ("bvsum --x 10000 --A 5", "exceeds X"),
        ("bvsum --x 10000 --A 10", "exceeds X"),
        ("decompose --x 10000 --A 5 --override-exponent 0", "exceeds X"),
        ("decompose --x 10000 --A 10 --override-exponent 0", "exceeds X"),
        # (log 1000)^300 is about 1e251: finite, but far past any table.
        ("lemma hooley13 --y 1000 --alpha 0.5 --omega 300", "bulk cap"),
        # u(log 1000)^300 is about 1e253 for hooley15's d range.
        ("lemma hooley15 --x 1000 --u 20 --n 12 --which 3 --omega 300", "bulk cap"),
        # Every shifted-prime sum streams its primes, and checks X against
        # the streaming limit 2^30 before it sieves.
        ("rsum --x 100000000000", "streaming limit"),
        ("bvsum --x 100000000000 --A 1", "streaming limit"),
        ("rsum --x 1073741825", "streaming limit"),
        ("bvsum --x 1073741825 --A 1", "streaming limit"),
        ("discrepancy --x 1073741825 --q 3 --a 1", "streaming limit"),
        ("lemma hooley1 --x 1073741825", "streaming limit"),
        # Every other lemma checker whose work grows with its range is capped.
        ("lemma count_n --n 100000000000 --r 1", "bulk cap"),
        ("lemma brun_titchmarsh --x 100000000000 --q 3 --a 1", "streaming limit"),
        ("lemma hooley13q --y 100000000000 --alpha 1.25 --q 4", "bulk cap"),
        ("lemma omega_power --y 100000000000 --alpha 1.5", "bulk cap"),
        (
            "lemma hooley14 --x 1000000 --r 1 --s 1 --n 1 --y 10 --l-max 100000000000",
            "bulk cap",
        ),
        ("lemma f_progression --x 100000000000 --y 100000000000 --q 3", "bulk cap"),
        ("lemma estimate_b --x 100000000000 --y 100000000000", "bulk cap"),
        # decompose builds its windows lazily, so it checks X before sieving.
        ("decompose --x 1073741825 --A 1 --override-exponent 2", "streaming limit"),
        # Q = (log 2^30)^6, about 8.1e7, is at most X, but its totient table is
        # past the bulk cap; the largest modulus is checked before the moduli
        # are listed or any prime is sieved.
        ("bvsum --x 1073741824 --A 6", "bulk cap"),
        ("decompose --x 1073741824 --A 6 --override-exponent 2", "bulk cap"),
        # About 1.8e8 (h, d) terms, counted before any is built; then 16 million
        # h values whose d ranges are nearly empty.
        ("lemma hooley15 --x 1000000 --u 999999 --n 12 --which 3", "(h, d) terms"),
        ("lemma hooley15 --x 20000000 --u 16000000 --omega 0.0001 --n 12 --which 3",
         "(h, d) terms"),
        ("primes --x 100000000000", "bulk cap"),
        # Every prime stream checks its limit against 0..2^30 before it sieves.
        ("primes --x -5", "streaming limit"),
        ("constant --tolerance 1e-10", "streaming limit"),
        ("constant --tolerance 1e-300", "streaming limit"),
        # Trial division walks to sqrt(n); 2^61 - 1 is past its 2^40 limit.
        ("lemma epq --x 3000000000000000000 --p 2305843009213693951 --q 3", "<= 2**40"),
        ("discrepancy --x 1000 --q 2305843009213693951 --a 1", "<= 2**40"),
        ("lemma hooley13q --y 1000 --alpha 1.25 --q 2305843009213693951", "<= 2**40"),
        ("lemma f_progression --x 1000 --y 100 --q 2305843009213693951 --a 1", "<= 2**40"),
        ("lemma hooley14 --x 1000000 --r 1 --s 2305843009213693951 --n 1 --y 10 --l-max 10",
         "<= 2**40"),
    ],
)
def test_unbounded_enumeration_is_a_precondition_error(capsys, line, reason):
    code, out, err = run_cli(capsys, line.split())
    assert code == 3
    assert out == ""
    assert reason in err


@pytest.mark.parametrize(
    "line, reason",
    [
        ("constant --tolerance 1e-300", "streaming limit"),
        ("lemma brun_titchmarsh --x 1" + "0" * 400 + " --q 3 --a 1", "streaming limit"),
        ("lemma hooley1 --x 1" + "0" * 400, "streaming limit"),
        ("discrepancy --x 1000 --q 1" + "0" * 400 + " --a 1", "<= 2**40"),
    ],
    ids=["constant", "brun_titchmarsh", "hooley1", "discrepancy"],
)
def test_huge_value_error_is_one_short_line(capsys, line, reason):
    code, out, err = run_cli(capsys, line.split())
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and len(err) < 160
    assert reason in err
    assert "Traceback" not in err


def test_rsum_value(capsys):
    code, out, _ = run_cli(capsys, ["rsum", "--x", "100000"])
    assert code == 0
    assert out.splitlines()[1] == "100000,25784"


def test_constant_command(capsys):
    code, out, _ = run_cli(capsys, ["constant", "--tolerance", "0.001", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["prime_bound"] >= 1000
    assert row["value"] == linnik.linnik_constant(1e-3).value


def test_reports_identical_across_runs(capsys):
    argv = ["bvsum", "--x", "10000", "--A", "2", "--a", "3", "--format", "json"]
    outputs = {run_cli(capsys, argv)[1] for _ in range(3)}
    assert len(outputs) == 1


def test_scan_lemma_with_flags(capsys):
    code, out, _ = run_cli(
        capsys, ["scan", "hooley13q", "--y", "1000", "--alpha", "1.5", "--q", "4"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "y,lhs,envelope,ratio"
    assert len(lines) == 3  # y = 100, 1000


def test_threads_must_be_positive(capsys):
    code, out, err = run_cli(capsys, ["rsum", "--x", "100", "--threads", "0"])
    assert code == 2
    assert out == ""


def test_broken_stdout_is_io_error(capsys, monkeypatch):
    def boom(_):
        raise OSError("broken pipe")

    monkeypatch.setattr(sys.stdout, "write", boom)
    code = cli.main(["theta0"])
    assert code == 4


LEMMA_SMOKE_ARGS = {
    "hooley1": ["--x", "100"],
    "brun_titchmarsh": ["--x", "100", "--q", "3"],
    "count_n": ["--n", "100", "--r", "3"],
    "f_progression": ["--x", "1000", "--y", "100", "--q", "4"],
    "estimate_b": ["--x", "1000", "--y", "100"],
    "omega_power": ["--y", "100", "--alpha", "1.5"],
    "hooley13": ["--y", "100", "--alpha", "0.5"],
    "hooley13q": ["--y", "100", "--alpha", "1.5", "--q", "4"],
    "hooley14": ["--x", "1000", "--r", "1", "--s", "1", "--n", "1", "--y", "1", "--l-max", "9"],
    "hooley15": ["--x", "1000", "--u", "5", "--n", "6", "--which", "3"],
    "murty": ["--x", "100"],
    "epq": ["--x", "10000", "--p", "101", "--q", "4", "--override-exponent", "1"],
}


@pytest.mark.parametrize("lemma_id", sorted(LEMMA_SMOKE_ARGS))
def test_every_lemma_id_runs(capsys, lemma_id):
    for fmt in ("csv", "json"):
        code, out, err = run_cli(
            capsys, ["lemma", lemma_id, *LEMMA_SMOKE_ARGS[lemma_id], "--format", fmt]
        )
        assert code == 0, err
        assert out
        if fmt == "json":
            doc = json.loads(out)
            assert doc["command"] == "lemma"
            assert len(doc["rows"]) == 1


SCAN_SMOKE_ARGS = {
    "hooley1": ["--x", "1000"],
    "omega_power": ["--y", "1000", "--alpha", "1.5"],
    "hooley13": ["--y", "1000", "--alpha", "0.5"],
    "hooley13q": ["--y", "1000", "--alpha", "1.25", "--q", "4"],
    "murty": ["--x", "1000"],
}


@pytest.mark.parametrize("lemma_id", [i for i, c in lemmas.CHECKERS.items() if c.scan])
def test_every_scan_id_runs(capsys, lemma_id):
    args = SCAN_SMOKE_ARGS[lemma_id]
    var = args[0][2:]
    code, out, err = run_cli(capsys, ["scan", lemma_id, *args, "--format", "json"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["params"] == {"lemma": lemma_id, "points": 2}
    assert [row[var] for row in doc["rows"]] == [100, 1000]
    # The last scan point is the lemma run at the scan's maximum.
    code, out, err = run_cli(capsys, ["lemma", lemma_id, *args, "--format", "json"])
    assert code == 0, err
    single = json.loads(out)["rows"][0]
    last = doc["rows"][-1]
    assert (last["lhs"], last["envelope"], last["ratio"]) == (
        single["lhs"], single["envelope"], single["ratio"]
    )


def _subparser(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _lemma_id_choices(command):
    action = next(a for a in _subparser(command)._actions if a.dest == "lemma_id")
    return list(action.choices)


def test_lemma_and_scan_choices_come_from_the_checker_table():
    assert _lemma_id_choices("lemma") == [*lemmas.CHECKERS, "epq"]
    assert _lemma_id_choices("scan") == [i for i, c in lemmas.CHECKERS.items() if c.scan]
    assert sorted(LEMMA_SMOKE_ARGS) == sorted(_lemma_id_choices("lemma"))


def _option_strings(command):
    return {s for a in _subparser(command)._actions for s in a.option_strings}


TABLE_FLAGS = sorted(
    {(flag, kind) for c in lemmas.CHECKERS.values() for _, flag, kind in c.inputs}
)


@pytest.mark.parametrize("command", ["lemma", "scan"])
@pytest.mark.parametrize("flag, kind", TABLE_FLAGS, ids=[flag for flag, _ in TABLE_FLAGS])
def test_checker_flag_parses_to_its_table_type(command, flag, kind):
    # 3 is also a valid --which choice.
    ns = cli.build_parser().parse_args([command, "murty", flag, "3"])
    value = getattr(ns, flag[2:].replace("-", "_"))
    assert type(value) is kind and value == 3


@pytest.mark.parametrize("command", ["lemma", "scan"])
def test_only_p_is_declared_beside_the_checker_table(command):
    table = {flag for flag, _ in TABLE_FLAGS}
    common = _option_strings("primes")
    own = _option_strings(command)
    assert own - common - table == {"--p"}
    assert table <= own


def test_which_outside_its_choices_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lemma", "hooley15", "--x", "1000", "--u", "5", "--n", "6", "--which", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, imported",
    [
        (None, False),
        (["rsum", "--x", "1000"], False),
        (["constant", "--tolerance", "1e-3"], False),
        (["lemma", "murty", "--x", "100"], True),
        (["scan", "murty", "--x", "100"], True),
    ],
)
def test_only_checker_commands_import_lemmas(argv, imported):
    # A command that reads no checker never compiles the checkers.
    run = f"cli.main({argv!r})" if argv else "pass"
    out = fresh_python(f"import sys\nfrom linnikbv import cli\n{run}\n"
                       "print('linnikbv.lemmas' in sys.modules)")
    assert out.splitlines()[-1] == str(imported)


PARSER_EXITS = [
    [], ["--help"], ["bogus"], ["lemma", "nope"], ["lemma", "hooley15", "--which", "4"],
    ["rsum", "--help"], ["lemma", "--help"], ["scan", "--help"], ["rsum", "--x", "9", "--n", "5"],
]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=lambda argv: " ".join(argv) or "none")
def test_main_exits_as_the_full_parser(capsys, argv):
    # main adds the checker table's arguments only where the line may need
    # them; every line still prints and exits as under build_parser().
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        cli.main(argv)
    assert got.value.code == full.value.code
    assert capsys.readouterr() == expected
