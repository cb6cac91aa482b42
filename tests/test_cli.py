import json
import os
import re
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

import fibpal
from fibpal import cli, counting, occurrence_count, oracle, prefix, verify
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
    code, out, err = run_cli(capsys, "count", "special")
    assert code == 2 and out == "" and "count special requires --m" in err


@pytest.mark.parametrize("argv, flags", [
    (["count", "special", "--m", "6", "-n", "5"], ["-n"]),
    (["count", "special", "--m", "6", "--distinct"], ["--distinct"]),
    (["count", "special", "--m", "6", "--occurrences"], ["--occurrences"]),
    (["count", "special", "--m", "6", "--trace"], ["--trace"]),
    (["count", "special", "--m", "6", "--distinct", "-n", "5"], ["-n", "--distinct"]),
    (["count", "--occurrences", "-n", "5", "--m", "9"], ["--m"]),
    (["count", "--distinct", "-n", "5", "--m", "9"], ["--m"]),
    (["count", "--distinct", "-n", "5", "--trace"], ["--trace"]),
])
def test_count_rejects_flags_outside_their_mode(capsys, argv, flags):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert all(flag in err for flag in flags)


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
    broken["floors"] = lambda max_n, max_m, max_p, tree_pass: VerifyResult(
        "floors", False, 1, {"p": 1}
    )
    monkeypatch.setattr(verify, "SUITES", broken)
    code, out, _ = run_cli(capsys, "verify", "floors")
    assert code == 1
    rec = records(out)[0]
    assert rec["ok"] is False and rec["counterexample"] == {"p": 1}
    code, out, _ = run_cli(capsys, "verify", "floors", "--plain")
    assert code == 1 and out == "floors: FAIL {'p': 1} (1 checks, 0.00s)\n"


def test_verify_planted_faults_exit_1(capsys, monkeypatch):
    # a third return word: the word flipped at its 3rd letter, "abbab..."
    flipped = prefix(10**4)[:2] + "b" + prefix(10**4)[3:]
    monkeypatch.setattr(verify, "prefix", lambda n, *what: flipped[:n])
    code, out, err = run_cli(capsys, "verify", "return-words")
    (rec,) = records(out)
    assert code == 1 and err == "" and rec["counterexample"] == {"factor": "a", "distinct": 3}
    monkeypatch.undo()
    # the split step starts the right child of (3, 7) one position late
    real = counting._split

    def late(m, p, q, lo):
        left, right = real(m, p, q, lo)
        return (left, right[:3] + (right[3] + 1,)) if (m, p) == (3, 7) else (left, right)

    monkeypatch.setattr(counting, "_split", late)
    code, out, err = run_cli(capsys, "verify", "tau")
    (rec,) = records(out)
    assert code == 1 and err == "" and rec["counterexample"] == {"m": 3, "p": 7}
    monkeypatch.undo()
    # the interval of (3, 1) one position too wide, so its children do not tile it
    real_interval = counting._interval

    def wide(m, p, q, lo):
        iv = real_interval(m, p, q, lo)
        return iv._replace(hi=iv.hi + 1) if (m, p) == (3, 1) else iv

    monkeypatch.setattr(counting, "_interval", wide)
    code, out, err = run_cli(capsys, "verify", "tau")
    (rec,) = records(out)
    assert code == 1 and err == "" and rec["counterexample"] == {"m": 3, "p": 1}


def test_verify_return_words_too_few_occurrences_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "return-words", "--max-n", "5")
    assert code == 2 and out == "" and "occurs only" in err


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


def test_bench_n_list_empty_exit_2(capsys):
    code, out, err = run_cli(capsys, "bench", "--n-list", ",")
    assert code == 2 and out == "" and "--n-list must name at least one prefix length" in err


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
    # fib(34) leaves number fewer than 1e8 but would hold ~9 GB: refused at once
    monkeypatch.delenv("FIBPAL_MAX_MATERIALIZE")
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "tau", "-m", "34", "-p", "1", "--expand-depth", "-1")
    assert code == 2 and "cap" in err and time.perf_counter() - t0 < 1


def test_internal_error_exit_3(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    # what the `fib` entry and the grouped `pal at` entry call
    for module, name, argv in ((fibpal.fibword, "fib", ["fib", "-m", "6"]),
                               (fibpal.chain, "new_pal_at", ["pal", "at", "-n", "21"])):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, broken)
            code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert "fibpal: internal error: RuntimeError: boom" in err, argv


def _corrupt_coordinate_prefix_for_aba(patch):
    """Flip the first letter of the prefix that coord_from_pal reads for a length-3 word, 7 letters, and of
    no other prefix: "aba", whose coordinate (0, 1) starts there, is still a factor but matches no candidate."""
    real = fibpal.fibword.prefix
    patch.setattr(fibpal.fibword, "prefix", lambda n, what="prefix": "b" + real(n, what)[1:]
                  if what == "palindrome coordinate" and n == 7 else real(n, what))


def test_impossible_coordinate_exit_3(capsys, monkeypatch):
    # only a wrong closed form gives a palindrome or a position no coordinate: a defect, not a usage error
    index = fibpal.chain.fib_floor_index
    with monkeypatch.context() as patch:
        _corrupt_coordinate_prefix_for_aba(patch)
        code, out, err = run_cli(capsys, "pal", "coord", "-w", "aba")
    assert code == 3 and out == "" and "internal error: AssertionError: the palindrome 'aba'" in err
    with monkeypatch.context() as patch:
        patch.setattr(fibpal.chain, "fib_floor_index", lambda x: index(x) + (x == 11))
        code, out, err = run_cli(capsys, "pal", "at", "-n", "10")
    assert code == 3 and out == "" and "internal error: AssertionError: position 10 gets i" in err


def _t1_one_too_large_at(a):
    """The counting tables with T1[a] one too large: n = 7 is the first count whose last pattern is 4."""
    pop, b, t1 = counting._tables()
    t1 = array("i", t1)
    t1[a] += 1
    return pop, b, t1


@pytest.mark.parametrize("plant, argv, counterexample", [
    # the planted faults of test_impossible_coordinate_exit_3, and a counting table entry one too large
    (_corrupt_coordinate_prefix_for_aba, ("cylinder",), {"coord": [0, 1], "roundtrip": None}),
    (lambda patch: patch.setattr(fibpal.chain, "fib_floor_index", lambda x, real=fibpal.chain.fib_floor_index:
                                 real(x) + (x == 11)),
     ("chain", "--max-n", "100"), {"n": 10}),
    (lambda patch: patch.setattr(counting, "_peel_tables", _t1_one_too_large_at(4)),
     ("counts", "--max-n", "100"), {"n": 7}),
], ids=["cylinder", "chain", "counts"])
def test_verify_closed_form_assertion_exit_1(capsys, monkeypatch, plant, argv, counterexample):
    # a closed form that trips its own invariant fails the suite; it is not an internal error
    plant(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *argv)
    (rec,) = records(out)
    assert code == 1 and err == "" and rec["ok"] is False and rec["counterexample"] == counterexample


def test_verify_all_reports_every_suite_past_a_closed_form_assertion(capsys, monkeypatch):
    # coord_from_pal asserts on the corrupt prefix in the second suite; the six after it still run and pass
    _corrupt_coordinate_prefix_for_aba(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "all", "--max-n", "2000", "--max-m", "5", "--max-p", "15")
    recs = records(out)
    assert code == 1 and err == "" and len(recs) == 8
    assert [r["suite"] for r in recs if not r["ok"]] == ["cylinder"]
    assert recs[1]["counterexample"] == {"coord": [0, 1], "roundtrip": None}


def test_verify_floors_past_the_sweep_exit_2(capsys):
    # refused before any sweep; the timeout turns a run of the 3e8 sweep into a failure, not a hang
    argv = ["verify", "floors", "--max-n", "300000001"]
    proc = subprocess.run([sys.executable, "-m", "fibpal.cli", *argv],
                          capture_output=True, text=True, env=_env_with_src(), timeout=10)
    assert proc.returncode == 2 and proc.stdout == "" and "300,000,000" in proc.stderr, proc.stderr
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "(--max-n) must be <= that" in err and time.perf_counter() - t0 < 1


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


# argv, its JSON stdout and its --plain stdout: at least one row per command
# table entry, with the timings of verify and bench replaced by T (_untimed)
GOLDEN = [
    (["fib", "-m", "10"], '{"cmd": "fib", "m": 10, "value": 144}', "144"),
    (["letters", "-n", "10"], '{"cmd": "letters", "letter": "b", "n": 10}', "b"),
    (["prefix", "-n", "10"], '{"cmd": "prefix", "n": 10, "word": "abaababaab"}', "abaababaab"),
    (["singular", "-m", "4"], '{"cmd": "singular", "length": 8, "m": 4, "word": "babaabab"}', "babaabab"),
    (["kernel", "-w", "abaab"], '{"cmd": "kernel", "kernel": "aa", "m": 1, "offset": 3, "word": "abaab"}',
     "kernel index 1 (aa) at offset 3"),
    (["pal", "list", "--length", "5"],
     '{"cmd": "pal list", "length": 5, "palindromes": [{"cylinder": "a", "i": 4, "length": 5, "m": 2, '
     '"singular": false, "word": "ababa"}, {"cylinder": "b", "i": 8, "length": 5, "m": 3, "singular": true, '
     '"word": "aabaa"}]}',
     "ababa  (m=2, i=4, cylinder a)\naabaa  (m=3, i=8, cylinder b)"),
    (["pal", "coord", "-w", "ababa"],
     '{"cmd": "pal coord", "cylinder": "a", "i": 4, "length": 5, "m": 2, "singular": false, "word": "ababa"}',
     "m=2 i=4"),
    (["pal", "at", "-n", "21"],
     '{"cmd": "pal at", "cylinder": "aa", "end": 21, "i": 12, "length": 10, "m": 4, "n": 21, "singular": false, '
     '"start": 12, "word": "ababaababa"}',
     "m=4 i=12 length=10 span=[12,21]"),
    (["pal", "conjugates", "-m", "4"], '{"cmd": "pal conjugates", "count": 0, "m": 4, "words": []}', "(none)"),
    (["pal", "conjugates", "-m", "3"], '{"cmd": "pal conjugates", "count": 1, "m": 3, "words": ["ababa"]}', "ababa"),
    (["pal", "prefix-lengths", "--max", "100"],
     '{"cmd": "pal prefix-lengths", "lengths": [1, 3, 6, 11, 19, 32, 53, 87], "max": 100}', "1 3 6 11 19 32 53 87"),
    (["pos", "kernel", "-m", "2", "-p", "3"], '{"cmd": "pos kernel", "end": 20, "m": 2, "p": 3, "start": 18}',
     "[18,20]"),
    (["pos", "pal", "-m", "2", "-i", "4", "-p", "1"],
     '{"cmd": "pos pal", "end": 8, "i": 4, "length": 5, "m": 2, "p": 1, "start": 4}', "[4,8]"),
    (["chain", "-m", "4", "-p", "1"], '{"cmd": "chain", "hi": 32, "lo": 20, "m": 4, "p": 1, "size": 13}',
     "<K_4,1> = {20,...,32}"),
    (["tau", "-m", "2", "-p", "3", "--expand-depth", "-1", "--reduce"],
     '{"cmd": "tau", "m": 2, "p": 3, "tree": {"children": [{"hi": 21, "lo": 20, "m": 0, "p": 8, "reduces_to": '
     '{"hi": 21, "lo": 21, "m": -1, "p": 13}}, {"children": [{"hi": 22, "lo": 22, "m": -1, "p": 14}, {"hi": 24, '
     '"lo": 23, "m": 0, "p": 9, "reduces_to": {"hi": 24, "lo": 24, "m": -1, "p": 15}}], "hi": 24, "lo": 22, '
     '"m": 1, "p": 5}], "hi": 24, "lo": 20, "m": 2, "p": 3}}',
     "<K_2,3> = {20,...,24}\n  <K_0,8> = {20,...,21}\n    -> <K_-1,13> = {21}\n  <K_1,5> = {22,...,24}\n"
     "    <K_-1,14> = {22,...,22}\n    <K_0,9> = {23,...,24}\n      -> <K_-1,15> = {24}"),
    (["count", "--occurrences", "-n", str(10**18)],
     '{"cmd": "count", "mode": "occurrences", "n": 1000000000000000000, "value": 60257579735235512567}',
     "60257579735235512567"),
    (["count", "--occurrences", "-n", "29", "--trace"],
     '{"cmd": "count", "mode": "occurrences", "n": 29, "trace": {"before_block": 56, "m": 6, "tail": 42, '
     '"tail_steps": [{"case": "head+tail", "m": 6, "n": 29, "value": 42}, {"case": "head+tail", "m": 5, "n": 16, '
     '"value": 17}, {"case": "copy", "m": 4, "n": 8, "value": 5}, {"case": "table", "m": 2, "n": 3, "value": 3}]}, '
     '"value": 98}',
     "B(29) = 98\n  before block: 56  tail: 42"),
    # below 4 the trace is the base table's value, with no block or tail
    (["count", "--occurrences", "-n", "0", "--trace"],
     '{"cmd": "count", "mode": "occurrences", "n": 0, "trace": {"base_table": true, "value": 0}, "value": 0}',
     "B(0) = 0\n  base table: 0"),
    (["count", "--occurrences", "-n", "3", "--trace"],
     '{"cmd": "count", "mode": "occurrences", "n": 3, "trace": {"base_table": true, "value": 4}, "value": 4}',
     "B(3) = 4\n  base table: 4"),
    (["count", "--distinct", "-n", "100"], '{"cmd": "count", "mode": "distinct", "n": 100, "value": 100}', "100"),
    (["count", "special", "--m", "6"],
     '{"cmd": "count special", "end_count_fib": 4, "end_count_fib_minus1": 3, "end_count_fib_minus2": 5, "m": 6, '
     '"total_at_fib": 63, "total_at_fib_minus2": 56}',
     "B(f_6-2)=56  B(f_6)=63  A(f_6-2..f_6)=(5,3,4)"),
    (["verify", "tau", "--max-n", "500", "--max-m", "5", "--max-p", "20"],
     '{"checked": 100120, "cmd": "verify", "ok": true, "seconds": T, "suite": "tau"}',
     "tau: ok (100120 checks, Ts)"),
    (["bench", "--n-list", "200,400", "--repeat", "1"],
     '{"agree": true, "closed_seconds": T, "cmd": "bench", "n": 200, "speedup": T, "tree_seconds": T}\n'
     '{"agree": true, "closed_seconds": T, "cmd": "bench", "n": 400, "speedup": T, "tree_seconds": T}',
     "n=200 closed Tus tree Ts speedup Tx\nn=400 closed Tus tree Ts speedup Tx"),
]
QUERY_ARGVS = [argv for argv, _, _ in GOLDEN if argv[0] not in ("verify", "bench")]


def _untimed(out: str) -> str:
    out = re.sub(r'"(seconds|closed_seconds|tree_seconds|speedup)": [^,}]+', r'"\1": T', out)
    return re.sub(r"\d[\d.]*(?=(us|s|x)\b)", "T", out)


def test_golden_output(capsys):
    for argv, json_out, plain_out in GOLDEN:
        for full_argv, expected in ((argv, json_out), (["--plain", *argv], plain_out)):
            code, out, err = run_cli(capsys, *full_argv)
            assert (code, _untimed(out), err) == (0, expected + "\n", ""), full_argv


def test_golden_output_covers_every_command():
    parser = cli.build_parser()
    assert {parser.parse_args(argv).command for argv, _, _ in GOLDEN} == set(cli.COMMANDS)


def test_parser_built_once_and_flags_reset_per_call(capsys):
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "--plain", "count", "--occurrences", "-n", "29", "--trace")
        assert code == 0 and out == "B(29) = 98\n  before block: 56  tail: 42\n"
        code, out, _ = run_cli(capsys, "count", "--occurrences", "-n", "29")
        assert code == 0 and out == '{"cmd": "count", "mode": "occurrences", "n": 29, "value": 98}\n'
        code, out, _ = run_cli(capsys, "tau", "-m", "2", "-p", "3", "--expand-depth", "-1", "--reduce", "--plain")
        assert code == 0 and "-> <K_-1,13>" in out and "<K_-1,14>" in out
        code, out, _ = run_cli(capsys, "tau", "-m", "2", "-p", "3")
        assert code == 0 and out == ('{"cmd": "tau", "m": 2, "p": 3, "tree": {"children": [{"hi": 21, "lo": 20, '
                                     '"m": 0, "p": 8}, {"hi": 24, "lo": 22, "m": 1, "p": 5}], "hi": 24, "lo": 20, '
                                     '"m": 2, "p": 3}}\n')

ROOT_USAGE = ("usage: fibpal [-h] [--plain]\n"
              "              {fib,letters,prefix,singular,kernel,pal,pos,chain,tau,count,verify,bench}\n"
              "              ...\n")
PAL_USAGE = "usage: fibpal pal [-h] [--plain] {list,coord,at,conjugates,prefix-lengths} ...\n"
COUNT_USAGE = ("usage: fibpal count [-h] [--plain] [--distinct] [--occurrences] [-n N] [--m M]\n"
               "                    [--trace]\n"
               "                    [{special}]\n")

# argv, exit code, stdout and stderr of the help texts and usage errors, as
# Python 3.10 and 3.11 print them at 80 columns
PARSER_TEXT = [
    (["--help"], 0, ROOT_USAGE + """
Exact palindrome queries on prefixes of the infinite Fibonacci word

positional arguments:
  {fib,letters,prefix,singular,kernel,pal,pos,chain,tau,count,verify,bench}
    fib                 Fibonacci number of the given index
    letters             letter at a 1-based position
    prefix              the length-n prefix
    singular            the m-th singular word
    kernel              maximal singular word inside a factor
    pal                 palindrome queries
    pos                 occurrence positions
    chain               interval of p-th ending positions for kernel index m
    tau                 recursive interval splitting
    count               distinct / repeated occurrence counts
    verify              run verification suites
    bench               closed forms vs. tree oracle timings

options:
  -h, --help            show this help message and exit
  --plain               human-readable output instead of JSON records
""", ""),
    (["pal", "--help"], 0, PAL_USAGE + """
positional arguments:
  {list,coord,at,conjugates,prefix-lengths}
    list                all palindromes of a given length
    coord               coordinates of a palindromic factor
    at                  the palindrome whose first occurrence ends at n
    conjugates          palindromic rotations of the m-th iterate
    prefix-lengths      prefix lengths that are palindromes

options:
  -h, --help            show this help message and exit
  --plain
""", ""),
    (["count", "--help"], 0, COUNT_USAGE + """
positional arguments:
  {special}

options:
  -h, --help     show this help message and exit
  --plain
  --distinct
  --occurrences
  -n N
  --m M
  --trace
""", ""),
    (["pal", "at", "-n", "5", "--bogus"], 2, "", ROOT_USAGE + "fibpal: error: unrecognized arguments: --bogus\n"),
    (["count", "--occurrences", "-n", "5", "extra"], 2, "",
     COUNT_USAGE + "fibpal count: error: argument count_cmd: invalid choice: 'extra' (choose from 'special')\n"),
    (["letters", "-n", "x"], 2, "",
     "usage: fibpal letters [-h] [--plain] -n N\nfibpal letters: error: argument -n: invalid int value: 'x'\n"),
    (["pal"], 2, "", PAL_USAGE + "fibpal pal: error: the following arguments are required: pal_cmd\n"),
    (["nosuch"], 2, "", ROOT_USAGE + "fibpal: error: argument cmd: invalid choice: 'nosuch' (choose from 'fib', "
     "'letters', 'prefix', 'singular', 'kernel', 'pal', 'pos', 'chain', 'tau', 'count', 'verify', 'bench')\n"),
    (["--plain"], 2, "", ROOT_USAGE + "fibpal: error: the following arguments are required: cmd\n"),
]


def run_parser(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


# later releases wrap the root usage differently (3.13) or print choices unquoted;
# test_parser_text_is_the_full_trees holds on every version
@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)), reason="text pinned as 3.10 and 3.11 print it")
@pytest.mark.parametrize("argv, code, out, err", PARSER_TEXT, ids=[" ".join(row[0]) for row in PARSER_TEXT])
def test_parser_text_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_parser(capsys, main, argv) == (code, out, err)


@pytest.mark.parametrize("argv", [row[0] for row in PARSER_TEXT] + [
    [], ["pal", "at", "--help"], ["--plain", "pos", "--plain", "pal", "-h"], ["pal", "at"], ["pal", "at", "-n"],
    ["--plain", "chain", "-m", "1", "-p", "2", "3"], ["pos", "nosuch"], ["tau", "-m", "1", "-p", "1", "--reduce=1"],
    ["verify"], ["bench", "--n-list"], ["--pla", "fib", "-m", "x"], ["fib", "-m", "1", "--plain=x"],
    # errors that the command's own parser prints
    ["pal", "at", "-n", "x"], ["pos", "pal", "-m", "1", "-i", "1"], ["count", "special", "--m", "x"],
    ["tau", "-m", "1", "-p", "1", "--expand-depth"],
    # words left over, which the full tree reports
    ["pal", "at", "-n", "21", "extra"], ["chain", "--bogus", "-m", "1", "-p", "1"],
])
def test_parser_text_is_the_full_trees(capsys, monkeypatch, argv):
    # main parses with the one command's tree; whatever argparse prints is what the full tree prints
    monkeypatch.setenv("COLUMNS", "80")
    assert run_parser(capsys, main, argv) == run_parser(capsys, cli.build_parser().parse_args, argv)


def test_a_query_builds_only_its_own_parser(capsys):
    cli.build_parser.cache_clear()
    code, _, _ = run_cli(capsys, "--plain", "pal", "at", "-n", "21")
    assert code == 0 and cli.build_parser.cache_info().currsize == 1
    assert cli.build_parser("pal at").format_usage() == "usage: fibpal [-h] [--plain] {pal} ...\n"
    assert cli.build_parser.cache_info().hits == 1  # main built the tree of `pal at`, and no other


@pytest.mark.parametrize("argv, trees", [(["fib", "-m", "x"], 1), (["chain", "-m", "1", "-p", "2", "3"], 2)])
def test_only_words_left_over_build_the_full_tree(capsys, argv, trees):
    # the command's own parser reports an error inside the command; a word left over takes the full tree
    cli.build_parser.cache_clear()
    assert run_parser(capsys, main, argv)[0] == 2
    assert cli.build_parser.cache_info().currsize == trees


IMPORT_SPLIT = """
import contextlib, io, json, sys
import fibpal.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = fibpal.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] in ("fibpal", "numpy") or m in
                               ("dataclasses", "inspect"))]))
"""

# the modules each query command loads, beyond fibpal, fibpal.cli, fibpal.errors and fibpal.fibword
LOADS = {
    ("fib", "letters", "prefix"): set(),
    ("singular", "kernel"): {"singular"},
    ("pos kernel", "pos pal", "chain"): {"chain"},
    ("count", "tau"): {"chain", "counting"},
    ("pal list", "pal at", "pal conjugates", "pal prefix-lengths"): {"chain", "cylinder"},
    ("pal coord",): {"chain", "cylinder"},
}


def _env_with_src(*paths):
    src = str(Path(fibpal.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [*paths, src, os.environ.get("PYTHONPATH")]))}


def test_query_commands_do_not_import_numpy():
    # each command in a fresh process: only the modules its answer calls, and never
    # NumPy, dataclasses or inspect
    env, parser = _env_with_src(), cli.build_parser()
    loads = {name: modules for names, modules in LOADS.items() for name in names}
    assert set(loads) == set(cli.COMMANDS) - {"verify", "bench"}
    for argv in QUERY_ARGVS:
        proc = subprocess.run([sys.executable, "-c", IMPORT_SPLIT, json.dumps(argv)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        base = {"fibpal", "fibpal.cli", "fibpal.errors", "fibpal.fibword"}
        assert code == 0 and loaded == sorted(base | {f"fibpal.{m}" for m in loads[parser.parse_args(argv).command]})
    proc = subprocess.run([sys.executable, "-c", "import sys, fibpal; assert 'numpy' not in sys.modules; "
                           "assert fibpal.scan_word is fibpal.oracle.scan_word and 'numpy' in sys.modules"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_oracle_names_resolve_lazily():
    assert fibpal.scan_word is fibpal.oracle.scan_word
    assert not hasattr(fibpal, "Eertree") and not hasattr(fibpal.oracle, "Eertree")
    assert not {"eertree_total", "occurrences", "kernel_correspondence"} & set(dir(fibpal))
    assert int(fibpal.scan_word(fibpal.prefix(100)).end_counts.sum()) == fibpal.occurrence_count(100)
    assert fibpal.oracle.scan_prefix(8).max_suffix.tolist() == [1, 1, 3, 2, 4, 6, 3, 5]
    assert {"scan_word", "oracle", "kernels"} <= set(dir(fibpal))
    assert not {"return_words", "ReturnWordSeq"} & set(dir(fibpal)) and len(fibpal.__all__) == 46
    for name in dir(fibpal):
        getattr(fibpal, name)
    namespace: dict = {}
    exec("from fibpal import *", namespace)
    assert set(fibpal.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        fibpal.no_such_name


def test_package_names_resolve_lazily():
    # a fresh `import fibpal` loads no submodule, yet lists and resolves every name the eager imports gave
    proc = subprocess.run([sys.executable, "-c", "import sys, fibpal; print(*dir(fibpal)); "
                           "print(*sorted(m for m in sys.modules if m.startswith('fibpal')))"],
                          capture_output=True, text=True, env=_env_with_src())
    assert proc.returncode == 0, proc.stderr
    names, loaded = proc.stdout.splitlines()
    assert [n for n in names.split() if not n.startswith("_")] == """CellSplit ChainInterval DomainError KernelResult
        NotAFactorError OccurrenceSpan PalCoord ResourceError block_prefix_total block_sum chain chain_interval
        check_floor_identities convolution_identity_holds coord_from_pal counting cylinder cylinder_table cylinder_tag
        distinct_count end_count end_count_block end_count_near_fib errors expand_cell expand_leaves fib
        fib_prefix_total fibword floor_phi is_factor kernel kernels letter_at new_pal_at occurrence_count
        occurrence_count_trace oracle pal_end_pos pal_from_coord pal_span palindromic_conjugates pals_of_length prefix
        prefix_palindrome_lengths reduce_cell scan_word singular singular_end_pos singular_start_pos singular_word
        split_cell tail_sum""".split()
    assert loaded == "fibpal"
    assert fibpal.PalCoord is fibpal.chain.PalCoord is fibpal.cylinder.PalCoord
    assert fibpal.cylinder.validate_coord is fibpal.chain.validate_coord
    for module in ("chain", "counting", "cylinder", "errors", "fibword", "singular"):
        assert getattr(fibpal, module) is sys.modules[f"fibpal.{module}"]


def test_lazy_imports_show_in_importtime():
    # a module the package loads on first access gets its own -X importtime row
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "fibpal.cli", "letters", "-n", "5"],
                          capture_output=True, text=True, env=_env_with_src())
    assert proc.returncode == 0, proc.stderr
    rows = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"fibpal", "fibpal.errors", "fibpal.fibword"} <= rows


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
