import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fibpal
from fibpal import cli, occurrence_count, verify
from fibpal.cli import main
from fibpal.verify import VerifyResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.strip().splitlines()]


def test_fib(capsys):
    code, out, _ = run_cli(capsys, "fib", "-m", "6")
    assert code == 0
    (rec,) = records(out)
    assert rec == {"cmd": "fib", "m": 6, "value": 21}


def test_letters_and_prefix(capsys):
    code, out, _ = run_cli(capsys, "letters", "-n", "5")
    assert code == 0 and records(out)[0]["letter"] == "b"
    code, out, _ = run_cli(capsys, "prefix", "-n", "8")
    assert code == 0 and records(out)[0]["word"] == "abaababa"


def test_singular_and_kernel(capsys):
    code, out, _ = run_cli(capsys, "singular", "-m", "4")
    assert code == 0 and records(out)[0]["word"] == "babaabab"
    code, out, _ = run_cli(capsys, "kernel", "-w", "abaab")
    rec = records(out)[0]
    assert code == 0 and (rec["m"], rec["offset"]) == (1, 3)


def test_pal_subcommands(capsys):
    code, out, _ = run_cli(capsys, "pal", "list", "--length", "5")
    rec = records(out)[0]
    assert code == 0
    assert sorted(p["word"] for p in rec["palindromes"]) == ["aabaa", "ababa"]
    code, out, _ = run_cli(capsys, "pal", "coord", "-w", "ababa")
    rec = records(out)[0]
    assert (rec["m"], rec["i"]) == (2, 4)
    code, out, _ = run_cli(capsys, "pal", "at", "-n", "21")
    rec = records(out)[0]
    assert (rec["m"], rec["i"], rec["word"]) == (4, 12, "ababaababa")
    assert (rec["start"], rec["end"]) == (12, 21)
    code, out, _ = run_cli(capsys, "pal", "conjugates", "-m", "2")
    assert records(out)[0]["words"] == ["aba"]
    code, out, _ = run_cli(capsys, "pal", "prefix-lengths", "--max", "100")
    assert records(out)[0]["lengths"] == [1, 3, 6, 11, 19, 32, 53, 87]


def test_pos_and_chain(capsys):
    code, out, _ = run_cli(capsys, "pos", "kernel", "-m", "2", "-p", "3")
    rec = records(out)[0]
    assert (rec["start"], rec["end"]) == (18, 20)
    code, out, _ = run_cli(capsys, "pos", "pal", "-m", "2", "-i", "4", "-p", "1")
    rec = records(out)[0]
    assert (rec["start"], rec["end"]) == (4, 8)
    code, out, _ = run_cli(capsys, "chain", "-m", "4", "-p", "1")
    rec = records(out)[0]
    assert (rec["lo"], rec["hi"]) == (20, 32)


def test_tau_full_expansion(capsys):
    code, out, _ = run_cli(capsys, "tau", "-m", "4", "-p", "1", "--expand-depth", "-1")
    assert code == 0
    tree = records(out)[0]["tree"]

    def leaves(node):
        if "children" in node:
            return [x for ch in node["children"] for x in leaves(ch)]
        return [(node["m"], node["p"])]

    assert leaves(tree) == [(0, 8), (-1, 14), (0, 9), (-1, 16), (0, 10), (0, 11), (-1, 19), (0, 12)]


def test_count_modes(capsys):
    code, out, _ = run_cli(capsys, "count", "--occurrences", "-n", "29", "--trace")
    rec = records(out)[0]
    assert code == 0 and rec["value"] == 98
    assert rec["trace"]["before_block"] == 56 and rec["trace"]["tail"] == 42
    code, out, _ = run_cli(capsys, "count", "--distinct", "-n", "12345")
    assert records(out)[0]["value"] == 12345
    code, out, _ = run_cli(capsys, "count", "special", "--m", "6")
    rec = records(out)[0]
    assert rec["total_at_fib_minus2"] == 56 and rec["total_at_fib"] == 63


def test_count_usage_errors(capsys):
    code, _, err = run_cli(capsys, "count", "-n", "10")
    assert code == 2 and "count" in err
    for n in ("0", "-3"):
        code, out, err = run_cli(capsys, "count", "--distinct", "-n", n)
        assert code == 2 and out == "" and "1-based" in err
    code, _, err = run_cli(capsys, "count", "--distinct", "--occurrences", "-n", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "count", "--occurrences")
    assert code == 2


def test_plain_flag_both_positions(capsys):
    code, out, _ = run_cli(capsys, "--plain", "chain", "-m", "4", "-p", "1")
    assert code == 0 and out.strip() == "<K_4,1> = {20,...,32}"
    code, out2, _ = run_cli(capsys, "chain", "-m", "4", "-p", "1", "--plain")
    assert code == 0 and out2 == out


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "tau", "--max-n", "500", "--max-m", "5", "--max-p", "20")
    assert code == 0
    assert records(out)[0]["ok"] is True


def test_verify_all_smoke(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "2000", "--max-m", "5", "--max-p", "15")
    assert code == 0
    recs = records(out)
    assert {r["suite"] for r in recs} == set(verify.SUITES)
    assert all(r["ok"] for r in recs)


def test_verify_suite_names(capsys):
    code, out, _ = run_cli(capsys, "verify", "floors", "--max-n", "100")
    assert code == 0 and records(out)[0]["ok"] is True
    code, out, err = run_cli(capsys, "verify", "bogus")
    assert code == 2 and out == ""
    assert "bogus" in err and all(name in err for name in verify.SUITES)


def test_verify_bounds_below_one_exit_2(capsys):
    for argv in (["floors", "--max-n", "-5"], ["tau", "--max-m", "-3", "--max-p", "0"],
                 ["cylinder", "--max-n", "0"], ["kernels", "--max-n", "0"]):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert "must be >= 1" in err, argv


def test_verify_prefix_too_short_exit_2(capsys):
    # every factor of length L occurs within fib(fib_floor_index(L) + 1) + L
    # letters: 244 for the cylinder suite's L = 100, 105 for the kernels' 50
    for suite, short, enough in (("cylinder", 236, 244), ("kernels", 104, 105)):
        code, out, err = run_cli(capsys, "verify", suite, "--max-n", str(short))
        assert code == 2 and out == "" and str(enough) in err, suite
        code, out, _ = run_cli(capsys, "verify", suite, "--max-n", str(enough))
        assert code == 0 and records(out)[0]["ok"] is True, suite


def test_verify_failure_exit_code(capsys, monkeypatch):
    broken = dict(verify.SUITES)
    broken["floors"] = lambda max_n, max_m, max_p: VerifyResult(
        "floors", False, 1, {"p": 1}
    )
    monkeypatch.setattr(verify, "SUITES", broken)
    code, out, _ = run_cli(capsys, "verify", "floors")
    assert code == 1
    rec = records(out)[0]
    assert rec["ok"] is False and rec["counterexample"] == {"p": 1}


def test_bench_records(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n-list", "2000,4000", "--repeat", "2")
    assert code == 0
    recs = records(out)
    assert [r["n"] for r in recs] == [2000, 4000]
    assert all(r["agree"] for r in recs)


def test_bench_backends_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n-list", "100", "--backends"])
    assert exc.value.code == 2


def test_bench_repeat_zero_exit_2(capsys):
    code, out, err = run_cli(capsys, "bench", "--n-list", "10", "--repeat", "0")
    assert code == 2 and out == "" and "repeat" in err


def test_bench_n_list_not_integer_exit_2(capsys):
    code, out, err = run_cli(capsys, "bench", "--n-list", "1,x", "--repeat", "1")
    assert code == 2 and out == "" and "'x'" in err and "internal error" not in err


def test_tau_depth_below_minus_one_exit_2(capsys):
    for depth in ("-2", "-5"):
        code, out, err = run_cli(capsys, "tau", "-m", "4", "-p", "1", "--expand-depth", depth)
        assert code == 2 and out == "" and "depth" in err
    code, out, _ = run_cli(capsys, "tau", "-m", "4", "-p", "1", "--expand-depth", "0")
    assert code == 0 and "children" not in records(out)[0]["tree"]


def test_input_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "kernel", "-w", "bb")
    assert code == 2 and "does not occur" in err
    code, _, err = run_cli(capsys, "pal", "coord", "-w", "ab")
    assert code == 2
    code, _, err = run_cli(capsys, "fib", "-m", "-5")
    assert code == 2


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_materialize_cap_respected(capsys, monkeypatch):
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", "100")
    code, _, err = run_cli(capsys, "prefix", "-n", "1000")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", "1000")
    code, _, err = run_cli(capsys, "tau", "-m", "20", "-p", "1", "--expand-depth", "-1")
    assert code == 2 and "cap" in err


def test_internal_error_exit_3(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_fib", broken)
    code, out, err = run_cli(capsys, "fib", "-m", "6")
    assert code == 3 and out == ""
    assert "fibpal: internal error: RuntimeError: boom" in err


def test_fib_past_table_limit_exit_2(capsys):
    size = len(fibpal.fibword._fibs)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "fib", "-m", "1000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == "" and "limit" in err
    assert len(fibpal.fibword._fibs) == size


def test_answer_past_int_digit_limit_exit_2(capsys):
    # Python prints ints of at most sys.get_int_max_str_digits() digits (4300 by default)
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python prints ints of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv, field in ((("fib", "-m", "20700"), "value"), (("--plain", "fib", "-m", "20700"), "value"),
                            (("chain", "-m", "21000", "-p", "1"), "lo")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and f"field {field!r}" in err and "4300 digits" in err, argv
        code, out, _ = run_cli(capsys, "fib", "-m", "20000")
        assert code == 0 and records(out)[0]["value"] == fibpal.fib(20000)
        assert len(str(fibpal.fib(20000))) == 4180
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_past_1e1000(capsys):
    n = 10**1000 + 7
    code, out, _ = run_cli(capsys, "count", "--occurrences", "-n", str(n))
    assert code == 0 and records(out)[0]["value"] == occurrence_count(n)


def test_huge_inputs_roundtrip(capsys):
    n = 10**18
    code, out, _ = run_cli(capsys, "pal", "at", "-n", str(n))
    rec = records(out)[0]
    assert code == 0
    assert "word" not in rec  # too long to inline
    assert rec["end"] == n and rec["end"] - rec["start"] + 1 == rec["length"]
    assert json.loads(json.dumps(rec)) == rec
    code, out, _ = run_cli(capsys, "pal", "list", "--length", str(10**11))
    rec = records(out)[0]
    assert code == 0 and all("word" not in p for p in rec["palindromes"])
    code, out, _ = run_cli(capsys, "pal", "list", "--length", str(10**11), "--plain")
    assert code == 0 and "length" in out
    code, out, _ = run_cli(capsys, "count", "--occurrences", "-n", str(n))
    assert records(out)[0]["value"] > n  # every position ends >= 1 occurrence


def test_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "count", "--occurrences", "-n", str(10**12))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fibpal.cli", "fib", "-m", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 144


QUERY_ARGVS = [
    ["fib", "-m", "10"],
    ["letters", "-n", "10"],
    ["prefix", "-n", "10"],
    ["singular", "-m", "4"],
    ["kernel", "-w", "abaab"],
    ["pal", "list", "--length", "5"],
    ["pal", "coord", "-w", "ababa"],
    ["pal", "at", "-n", "21"],
    ["pal", "conjugates", "-m", "4"],
    ["pal", "prefix-lengths", "--max", "100"],
    ["pos", "kernel", "-m", "2", "-p", "3"],
    ["pos", "pal", "-m", "2", "-i", "4", "-p", "1"],
    ["chain", "-m", "4", "-p", "1"],
    ["tau", "-m", "4", "-p", "1", "--expand-depth", "-1"],
    ["count", "--occurrences", "-n", str(10**18)],
    ["count", "--occurrences", "-n", "29", "--trace"],
    ["count", "--distinct", "-n", "100"],
    ["count", "special", "--m", "6"],
]

IMPORT_SPLIT = """
import contextlib, io, json, sys
import fibpal, fibpal.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = fibpal.cli.main(argv)
    assert code == 0, (argv, code)
assert "numpy" not in sys.modules, "a query command loaded numpy"
assert fibpal.scan_word is fibpal.oracle.scan_word and "numpy" in sys.modules
print("ok")
"""


def _env_with_src(*paths):
    src = str(Path(fibpal.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [*paths, src, os.environ.get("PYTHONPATH")]))}


def test_query_commands_do_not_import_numpy():
    env = _env_with_src()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SPLIT, json.dumps(QUERY_ARGVS)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_oracle_names_resolve_lazily():
    assert fibpal.scan_word is fibpal.oracle.scan_word
    assert not hasattr(fibpal, "Eertree") and not hasattr(fibpal.oracle, "Eertree")
    assert fibpal.eertree_total(100) == fibpal.occurrence_count(100)
    assert bytes(fibpal.prefix_array(8)) == bytes([0, 1, 0, 0, 1, 0, 1, 0])
    assert {"scan_word", "eertree_total", "oracle", "kernels"} <= set(dir(fibpal))
    namespace: dict = {}
    exec("from fibpal import *", namespace)
    assert set(fibpal.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        fibpal.no_such_name


def test_stale_backend_setting_is_ignored(tmp_path):
    # the tree fill has one implementation: neither a leftover FIBPAL_BACKEND
    # nor an importable but broken numba may turn verify into an internal error
    (tmp_path / "numba").mkdir()
    (tmp_path / "numba" / "__init__.py").write_text('raise ImportError("stub numba")\n')
    env = {**_env_with_src(str(tmp_path)), "FIBPAL_BACKEND": "numba"}
    proc = subprocess.run(
        [sys.executable, "-m", "fibpal.cli", "verify", "richness", "--max-n", "100"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
