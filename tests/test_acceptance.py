"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines as they complete.
"""

import time

import fibpal as fp
from fibpal import counting, kernels, oracle, verify
from fibpal.bench import run_bench
from naive import naive_palindrome_set, palindromes

# Golden cylinder table: first 12 rows per cylinder, singular entries flagged.
TAB1 = {
    "a": [
        ("a", True),
        ("bab", True),
        ("ababa", False),
        ("aababaa", False),
        ("baababaab", False),
        ("abaababaaba", False),
        ("aabaababaabaa", True),
        ("baabaababaabaab", False),
        ("abaabaababaabaaba", False),
        ("babaabaababaabaabab", False),
        ("ababaabaababaabaababa", False),
        ("aababaabaababaabaababaa", False),
    ],
    "b": [
        ("b", True),
        ("aba", False),
        ("aabaa", True),
        ("baabaab", False),
        ("abaabaaba", False),
        ("babaabaabab", False),
        ("ababaabaababa", False),
        ("aababaabaababaa", False),
        ("baababaabaababaab", False),
        ("abaababaabaababaaba", False),
        ("babaababaabaababaabab", True),
        ("ababaababaabaababaababa", False),
    ],
    "aa": [
        ("aa", True),
        ("baab", False),
        ("abaaba", False),
        ("babaabab", True),
        ("ababaababa", False),
        ("aababaababaa", False),
        ("baababaababaab", False),
        ("abaababaababaaba", False),
        ("aabaababaababaabaa", False),
        ("baabaababaababaabaab", False),
        ("abaabaababaababaabaaba", False),
        ("babaabaababaababaabaabab", False),
    ],
}

# Golden chain table: first-occurrence ending intervals for kernel indices -1..6.
TAB2 = {
    -1: (1, 1),
    0: (2, 3),
    1: (4, 6),
    2: (7, 11),
    3: (12, 19),
    4: (20, 32),
    5: (33, 53),
    6: (54, 87),
}

# Golden end-count vectors for blocks 1..6.
BLOCK_VECTORS = {
    1: [1],
    2: [1, 2],
    3: [2, 2, 3],
    4: [2, 3, 3, 3, 4],
    5: [3, 3, 4, 3, 4, 4, 4, 5],
    6: [3, 4, 4, 4, 5, 4, 4, 5, 4, 5, 5, 5, 6],
}

FIG1_LEAVES = [(0, 8), (-1, 14), (0, 9), (-1, 16), (0, 10), (0, 11), (-1, 19), (0, 12)]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def warm_kernels():
    oracle.scan_prefix(64)
    kernels.floor_identity_scan(1, 64)


def test_criterion_01_golden_tables():
    t0 = time.perf_counter()
    table = fp.cylinder_table(12)
    ok = table == TAB1
    for m, (lo, hi) in TAB2.items():
        iv = fp.chain_interval(m, 1)
        ok = ok and (iv.lo, iv.hi) == (lo, hi)
    elapsed = time.perf_counter() - t0
    report(1, "golden tables", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_02_worked_examples():
    t0 = time.perf_counter()
    ok = (
        fp.occurrence_count(13) == 32
        and fp.occurrence_count(19) == 56
        and fp.occurrence_count(29) == 98
        and fp.tail_sum(29) == 42
        and sum(fp.end_count(i) for i in range(20, 30)) == 42
    )
    for m, vec in BLOCK_VECTORS.items():
        start = fp.fib(m) - 1
        ok = ok and [fp.end_count(start + j) for j in range(len(vec))] == vec
        if m >= 3:
            ok = ok and fp.end_count_block(m) == vec
    scan = oracle.scan_prefix(90)
    counts = scan.end_counts
    ok = ok and int(counts[:13].sum()) == 32
    ok = ok and int(counts[:19].sum()) == 56
    ok = ok and int(counts[:29].sum()) == 98
    ok = ok and int(counts[19:29].sum()) == 42
    for m, vec in BLOCK_VECTORS.items():
        ok = ok and counts[fp.fib(m) - 2: fp.fib(m + 1) - 2].tolist() == vec
    elapsed = time.perf_counter() - t0
    report(2, "worked examples, closed path and tree oracle", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_03_richness():
    warm_kernels()
    t0 = time.perf_counter()  # the tree pass and the suite together
    r = verify.verify_richness(oracle.scan_prefix(10**5))
    elapsed = time.perf_counter() - t0
    report(3, "richness: distinct palindromes of prefix(n) equal n up to 1e5",
           r.ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_04_count_equivalence():
    warm_kernels()
    t0 = time.perf_counter()  # the tree pass and the suite together
    r = verify.verify_counts(oracle.scan_prefix(10**4))
    elapsed = time.perf_counter() - t0
    report(4, "closed-form counts equal tree counts up to 1e4",
           r.ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_05_position_formulas():
    r = verify.verify_chain(max_n=10**5, max_m=8, max_p=30)
    report(5, "position formulas match occurrence scans", r.ok,
           f"{r.checked} checks, {r.seconds:.2f}s")


def test_criterion_06_floor_identities():
    warm_kernels()
    r = verify.verify_floors(10**6)
    report(6, "floor identities exact for p <= 1e6", r.ok and r.seconds < 5.0,
           f"{r.seconds:.2f}s")


def test_criterion_07_tau_decomposition():
    r = verify.verify_tau(max_m=15, max_p=500)
    leaves = [(c.m, c.p) for c in fp.expand_leaves(4, 1)]
    reduced = [counting.reduce_cell(p).p for m, p in leaves if m == 0]
    direct = [p for m, p in leaves if m == -1]
    ok = r.ok and leaves == FIG1_LEAVES and sorted(reduced + direct) == list(range(13, 21))
    report(7, "interval splitting exact; leaf expansion reproduced", ok,
           f"{r.checked} checks, {r.seconds:.2f}s")


def test_criterion_08_prefix_palindromes():
    scan = oracle.scan_prefix(10**5)
    # direct check: the prefix is a palindrome iff its longest palindromic
    # suffix is the whole prefix
    direct = {n for n in range(1, 10**5 + 1) if scan.max_suffix[n - 1] == n}
    formula = set()
    m = 2
    while fp.fib(m) - 2 <= 10**5:
        if fp.fib(m) - 2 >= 1:
            formula.add(fp.fib(m) - 2)
        m += 1
    ok = direct == formula == set(fp.prefix_palindrome_lengths(10**5))
    s = fp.prefix(10**5)
    for n in sorted(formula)[:12]:
        ok = ok and s[:n] == s[:n][::-1]
    for n in (2, 5, 10, 100, 99999):
        ok = ok and (s[:n] == s[:n][::-1]) == (n in formula)
    report(8, "prefix palindrome lengths are fib(m)-2", ok)


def test_criterion_09_length_counts_and_conjugates():
    ok = all(len(fp.pals_of_length(n)) == (2 if n % 2 else 1) for n in range(1, 1001))
    for m in range(-1, 16):
        expected = 0 if m % 3 == 1 else 1
        ok = ok and len(fp.palindromic_conjugates(m)) == expected
    report(9, "palindrome-per-length and palindromic-conjugate counts", ok)


def test_criterion_10_closed_forms():
    ok = True
    blocks = {1: [1], 2: [1, 2]}
    running = 0
    for m in range(3, 26):
        blocks[m] = fp.end_count_block(m)
    for m in range(1, 26):
        ok = ok and fp.block_sum(m) == sum(blocks[m])
    for m in range(2, 26):
        running += sum(blocks[m - 1])
        ok = ok and fp.block_prefix_total(m) == running
        ok = ok and fp.fib_prefix_total(m) == running + blocks[m][0] + blocks[m][1]
        e2, e1, e0 = fp.end_count_near_fib(m)
        ok = ok and (e2, e1, e0) == (blocks[m - 1][-1], blocks[m][0], blocks[m][1])
    for m in range(1, 26):
        ok = ok and fp.convolution_identity_holds(m)
    try:
        for m in range(2, 501):
            fp.block_sum(m)
            fp.block_prefix_total(m)
            fp.fib_prefix_total(m)
            counting._div5((m - 11) * fp.fib(m - 1) + (m + 1) * fp.fib(m - 3))
    except AssertionError:
        ok = False
    report(10, "closed forms match brute-force block sums; /5 integrality", ok)


def test_criterion_11_performance():
    t0 = time.perf_counter()
    value = fp.occurrence_count(10**18)
    closed_elapsed = time.perf_counter() - t0
    ok = closed_elapsed < 0.05 and value > 0
    # logarithmic walk length
    _, trace = fp.occurrence_count_trace(10**18)
    ok = ok and len(trace["tail_steps"]) <= 120
    # no prefix materialization on the closed path
    from fibpal import fibword

    orig_prefix = fibword.prefix
    try:
        def _refuse(*a, **k):
            raise AssertionError("closed path must not materialize the word")

        fibword.prefix = _refuse
        assert fp.occurrence_count(10**18) == value
    finally:
        fibword.prefix = orig_prefix
    rows = run_bench([10**7], repeat=3)
    speedups = [row.speedup for row in rows]
    agree = all(row.closed_value == row.tree_value for row in rows)
    ok = ok and agree and all(s >= 1000 for s in speedups)
    report(11, "1e18 query under 50 ms; >= 1000x speedup over tree at 1e7",
           ok, f"query {closed_elapsed * 1e3:.2f}ms, speedup {min(speedups):.0f}x")


def test_criterion_12_oracle_self_check():
    ok = True
    for n in list(range(1, 65)) + [500, 2000]:
        s = fp.prefix(n)
        words = palindromes(s, oracle.scan_word(s).max_suffix)
        ok = ok and words == palindromes(s, oracle.scan_prefix(n).max_suffix) == naive_palindrome_set(s)
    report(12, "tree oracle agrees with naive substring enumeration", ok)
