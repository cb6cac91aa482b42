"""Guards on the verification suites themselves: how much they check, and
that a fault planted in any layer is reported as the suite's first
counterexample, not raised."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random

import pytest

from fibpal import DomainError, chain, counting, cylinder, fib, floor_phi, kernels, oracle, prefix, singular, verify
from fibpal.chain import ChainInterval, OccurrenceSpan
from fibpal.cylinder import PalCoord
from naive import factor_index, naive_palindrome_set

# checks per suite at run_suites(all, 2000, 5, 15); a faster suite must not check less
CHECKED_AT_2000 = {
    "floors": 2000,
    "cylinder": 150,
    "chain": 13284,
    "tau": 100090,
    "counts": 2000,
    "richness": 2000,
    "return-words": 8,
    "kernels": 3371,
}


def test_checked_counts_pinned():
    results = verify.run_suites(list(verify.SUITES), 2000, 5, 15)
    assert {r.name: r.checked for r in results} == CHECKED_AT_2000
    assert all(r.ok for r in results)


def test_verify_kernels_default_bounds():
    # every factor of length <= 50 (sum of L + 1) plus every word of length <= 10
    res = verify.verify_kernels()
    assert res.ok and res.checked == 3371 == sum(n + 1 for n in range(1, 51)) + 2**11 - 2


@pytest.mark.parametrize("max_p", [1, 2])
def test_verify_kernels_smallest_max_p(max_p):
    # one or two starts per factor and per kernel still check every factor
    res = verify.verify_kernels(prefix_n=1000, max_p=max_p)
    assert res.ok and res.checked == 3371


def test_verify_kernels_memory():
    # each length indexes the first max_p starts of a factor; every start of
    # every factor and kernel peaked at 1.96 MB here
    verify.verify_kernels(prefix_n=200)  # tables built before the measurement
    tracemalloc.start()
    try:
        res = verify.verify_kernels(prefix_n=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok and peak < 512 * 1024


def _random_word(n: int) -> str:
    rng = Random(33)
    return "".join(rng.choice("ab") for _ in range(n))


# (text, longest factor length): the kernels suite's prefixes, from the
# shortest it accepts, and words with many factors per length or few
INDEX_TEXTS = {
    "prefix-105": (prefix(105), verify.KERNEL_LEN),
    "prefix-1000": (prefix(1000), verify.KERNEL_LEN),
    "prefix-20000": (prefix(20_000), verify.KERNEL_LEN),
    "random-600": (_random_word(600), 30),
    "periodic-aab": ("aab" * 200, verify.KERNEL_LEN),
    "periodic-abaab": ("abaab" * 100 + "b", verify.KERNEL_LEN),
}


@pytest.mark.parametrize("max_p", [1, 2, 50])
@pytest.mark.parametrize("text", list(INDEX_TEXTS))
def test_factor_index_matches_the_reference(text, max_p):
    # the same factors, each with the same starts, in the same order
    s, max_len = INDEX_TEXTS[text]
    grown = [list(index.items()) for index in verify._factor_index(s, max_len, max_p)]
    assert grown == [list(index.items()) for index in factor_index(s, max_len, max_p)]


class _NoRefill(str):
    """A text whose later starts a full list never finds."""

    def find(self, *args):
        return -1


def test_verify_kernels_reports_an_index_without_refill(monkeypatch):
    # every list then stops at starts inside the first 50 letters: "aabab"
    # keeps its start 49, but its kernel "bab" there starts at 51, past the cut
    text = _NoRefill(prefix(1000))
    monkeypatch.setattr(verify, "prefix", lambda n, *what: text)
    res = verify.verify_kernels(1000, 50)
    assert not res.ok and res.counterexample == {"factor": "aabab"}


def test_verify_return_words_memory():
    # occurrences are streamed and two return words kept; keeping every start
    # and every return word peaked at 1.33 MB here
    verify.verify_return_words(prefix_n=200)
    tracemalloc.start()
    try:
        res = verify.verify_return_words(prefix_n=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok and res.checked == 8 and peak < 128 * 1024


def test_verify_kernels_reports_wrong_offset(monkeypatch):
    real = singular.kernel

    def shifted(w, *args, **kwargs):
        res = real(w, *args, **kwargs)
        return singular.KernelResult(res.m, res.offset + 1) if w == "abaab" else res

    monkeypatch.setattr(singular, "kernel", shifted)
    res = verify.verify_kernels(prefix_n=1000)
    assert not res.ok and res.counterexample == {"factor": "abaab"}
    # "abaab" is the first factor of length 5: 2 + 3 + 4 + 5 factors and the
    # 2 + 4 + 8 + 16 words of lengths 1..4 pass before it
    assert res.checked == 14 + 30


def test_verify_kernels_reports_a_length_short_of_its_factors(monkeypatch):
    # a 60-letter text has 33 windows of length 28, but they hold only 28 of the
    # word's 29 factors of that length; every shorter length is complete
    short = prefix(60)
    monkeypatch.setattr(verify, "prefix", lambda n, *what: short)
    res = verify.verify_kernels(10**4, 50)
    assert not res.ok and res.counterexample == {"length": 28, "distinct": 28}


def test_verify_kernels_reports_a_rejected_factor(monkeypatch):
    real = singular.kernel

    def rejecting(w):
        if w == "aba":
            raise singular.NotAFactorError(w)
        return real(w)

    monkeypatch.setattr(singular, "kernel", rejecting)
    res = verify.verify_kernels(prefix_n=1000)
    assert not res.ok and res.counterexample == {"factor": "aba", "is_factor": False}


def flip(word: str, k: int) -> str:
    """word with its letter at 0-based k flipped."""
    return word[:k] + "ab"[word[k] == "a"] + word[k + 1:]


def replace_at(monkeypatch, module, name, key, wrong):
    """Make module.name answer wrong(real answer) at the arguments ``key``, and
    answer as before elsewhere."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: wrong(real(*args)) if args == key else real(*args))


def widen(iv: ChainInterval) -> ChainInterval:
    return iv._replace(hi=iv.hi + 1)


def test_verify_kernels_reports_a_kernel_found_twice(monkeypatch):
    real = singular.kernel

    def doubled(w):
        if w == "baab":
            raise AssertionError("the kernel S(0) occurs twice in the factor 'baab'")
        return real(w)

    monkeypatch.setattr(singular, "kernel", doubled)
    res = verify.verify_kernels(prefix_n=1000)
    assert not res.ok and res.counterexample == {"factor": "baab", "kernel_unique": False}


def test_verify_kernels_reports_a_kernel_that_is_not_unique(monkeypatch):
    # the kernel index of "aba" one too small: "a" occurs twice in it
    replace_at(monkeypatch, singular, "kernel", ("aba",), lambda k: k._replace(m=k.m - 1))
    res = verify.verify_kernels(prefix_n=1000)
    assert not res.ok and res.counterexample == {"factor": "aba", "kernel": "a"}


def test_verify_floors_reports_a_spot_check(monkeypatch):
    real = verify.check_floor_identities
    monkeypatch.setattr(verify, "check_floor_identities", lambda p: {**real(p), "at_a_end": p != 7})
    res = verify.verify_floors(100)
    assert not res.ok and res.counterexample == {"p": 7, "identities": {**real(7), "at_a_end": False}}


def test_verify_floors_refuses_past_the_sweep(monkeypatch):
    monkeypatch.setattr(kernels, "FAST_SCAN_MAX", 1000)
    assert verify.verify_floors(1000).ok
    with pytest.raises(DomainError, match=r"reaches p = 1,000; the bound \(--max-n\) must be <= that, got 1001$"):
        verify.verify_floors(1001)


def test_verify_chain_memory():
    # one coordinate at a time: at --max-m 20 the sets of endings held 6.3 MB;
    # one block of intervals at a time: a list of all 20,000 holds over 1 MiB
    verify.verify_chain(max_n=100, max_m=3, max_p=1)  # tables and prefix built before the measurement
    for max_m, max_p in ((20, 1), (0, 20000)):
        tracemalloc.start()
        try:
            res = verify.verify_chain(max_n=100, max_m=max_m, max_p=max_p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok and peak < 2**20, (max_m, max_p)


@pytest.mark.parametrize("plant, counterexample", [
    # "ababa" built with its middle letter flipped
    (lambda mp: replace_at(mp, verify, "pal_from_coord", (PalCoord(2, 4),), lambda w: flip(w, 2)),
     {"coord": (2, 4), "slice": "abbba", "concatenation": "ababa"}),
    (lambda mp: replace_at(mp, verify, "coord_from_pal", ("baab",), lambda c: c._replace(i=c.i + 1)),
     {"coord": (1, 2), "roundtrip": (1, 3)}),
    (lambda mp: replace_at(mp, cylinder, "cylinder_tag", (PalCoord(0, 1),), lambda tag: "a"),
     {"word": "aba", "tag": "a", "expected": "b"}),
    # the coordinate (2, 4) of "ababa" dropped from the enumeration
    (lambda mp: replace_at(mp, verify, "pals_of_length", (5,), lambda cs: cs[1:]),
     {"missing": ["ababa"], "extra": []}),
])
def test_verify_cylinder_reports_a_planted_fault(monkeypatch, plant, counterexample):
    plant(monkeypatch)
    res = verify.verify_cylinder(oracle.scan_prefix(1000))
    assert not res.ok and res.counterexample == counterexample


# a plant returns the bounds its fault needs, if not verify_chain's defaults
@pytest.mark.parametrize("plant, counterexample", [
    # the p = 1 intervals tile from 1: (2, 1) is [7, 11]
    (lambda mp: replace_at(mp, verify, "chain_interval", (2, 1), lambda iv: iv._replace(lo=iv.lo + 1)),
     {"m": 2, "lo": 8, "expected": 7}),
    (lambda mp: replace_at(mp, verify, "chain_interval", (2, 1), widen), {"m": 2, "size": fib(3) + 1}),
    # "aba" starts at the 0-based positions 0, 3, 5, ...
    (lambda mp: replace_at(mp, verify, "pal_span", (PalCoord(0, 1), 2),
                           lambda sp: OccurrenceSpan(sp.start + 1, sp.end + 1)),
     {"word": "aba", "p": 2, "formula": (5, 7), "scan": (4, 6)}),
    # the bijection is checked pointwise: the p-th ending of (m, i) is hi + 1 - i
    (lambda mp: replace_at(mp, verify, "chain_interval", (3, 7), widen), {"m": 3, "p": 7, "i": 1}),
    (lambda mp: replace_at(mp, verify, "chain_interval", (3, 7), lambda iv: iv._replace(lo=iv.lo - 1)),
     {"m": 3, "p": 7, "size": fib(4) + 1}),
    (lambda mp: replace_at(mp, verify, "new_pal_at", (10,), lambda c: chain.new_pal_at(11)), {"n": 10}),
    # one ending off by one, in the first block of p and past it
    (lambda mp: replace_at(mp, verify, "pal_end_pos", (PalCoord(4, 3), 20), lambda end: end + 1),
     {"m": 4, "p": 20, "i": 3}),
    (lambda mp: replace_at(mp, verify, "pal_end_pos", (PalCoord(1, 2), verify.CHAIN_BLOCK + 5), lambda end: end - 1)
     or {"max_m": 1, "max_p": verify.CHAIN_BLOCK + 10}, {"m": 1, "p": verify.CHAIN_BLOCK + 5, "i": 2}),
])
def test_verify_chain_reports_a_planted_fault(monkeypatch, plant, counterexample):
    bounds = plant(monkeypatch) or {}
    res = verify.verify_chain(max_n=1000, **bounds)
    assert not res.ok and res.counterexample == counterexample


def right_late(children):
    """The children of a split step with the right one starting one position late."""
    left, (m, p, q, lo) = children
    return left, (m, p, q, lo + 1)


def test_verify_tau_reports_a_misaligned_split(monkeypatch):
    # the split step starts the right child of (3, 7) one position late, so
    # split_cell's children no longer tile the cell
    replace_at(monkeypatch, counting, "_split", (3, 7, floor_phi(7), chain.singular_end_pos(3, 7)), right_late)
    step = counting.split_cell(3, 7)
    assert step.left.hi + 1 < step.right.lo
    res = verify.verify_tau(max_m=5, max_p=20)
    assert not res.ok and res.counterexample == {"m": 3, "p": 7}


def test_verify_tau_reports_a_misaligned_reduction(monkeypatch):
    # only the reduction of (0, 1) takes this step; no split does
    replace_at(monkeypatch, counting, "_split", (0, 1, floor_phi(1), chain.singular_end_pos(0, 1)), right_late)
    assert counting.reduce_cell(1).lo == chain.chain_interval(0, 1).hi + 1
    res = verify.verify_tau(max_m=5, max_p=20)
    assert not res.ok and res.counterexample == {"p": 1}


@pytest.mark.parametrize("key, counterexample", [
    # the interval of (3, 1) one too wide: its children no longer tile it (p = 1
    # is no cell's child, so no earlier cell reads this interval)
    ((3, 1, floor_phi(1), chain.singular_end_pos(3, 1)), {"m": 3, "p": 1}),
    # every interval one too wide: the reduction of (0, 1) is no singleton
    (None, {"p": 1}),
])
def test_verify_tau_reports_a_wide_interval(monkeypatch, key, counterexample):
    real = counting._interval
    monkeypatch.setattr(counting, "_interval", lambda *cell: widen(real(*cell)) if key in (None, cell) else real(*cell))
    res = verify.verify_tau(max_m=15, max_p=100)
    assert not res.ok and res.counterexample == counterexample


def test_verify_tau_reports_a_wrong_reduction(monkeypatch):
    # the closed form of the reduction of (0, 4), the cell (-1, end_a(4) + 1) = (-1, 7),
    # one position late; below p = 7 nothing else reads it
    assert chain.singular_end_pos(-1, 4) + 1 == 7
    replace_at(monkeypatch, verify, "singular_end_pos", (-1, 7), lambda end: end + 1)
    res = verify.verify_tau(max_m=5, max_p=6)
    assert not res.ok and res.counterexample == {"p": 4}


def test_verify_tau_reports_a_preimage_gap(monkeypatch):
    # floor(phi * 10) off by one moves the preimage of 10 + floor(phi * 10) + 1 = 17 to 18
    real = kernels.floor_phi_block
    monkeypatch.setattr(kernels, "floor_phi_block", lambda q, **bufs: real(q, **bufs) + (q == 10))
    res = verify.verify_tau(max_m=2, max_p=5)
    assert 10 + floor_phi(10) + 1 == 17
    assert not res.ok and res.counterexample == {"q": 17, "preimages": 0}


# the last q of the first block of the preimage tiling, and three past it
TAU_FAULTS = [kernels.SCAN_CHUNK + k for k in (0, 1, 10, 11)]


@pytest.mark.parametrize("q_bad", TAU_FAULTS)
@pytest.mark.parametrize("shift", [1, -1])
def test_verify_tau_reports_a_preimage_fault_past_the_first_block(monkeypatch, q_bad, shift):
    # floor(phi * q_bad) one too large leaves q = end_a(q_bad) + 1 without a
    # preimage; one too small moves that end onto q - 1, which keeps its own
    # preimage: a b-end where floor(phi * q) steps by 1 at q_bad, else the
    # a-end of q_bad - 1, so that one block repeats an end
    real = kernels.floor_phi_block
    monkeypatch.setattr(kernels, "floor_phi_block", lambda q, **bufs: real(q, **bufs) + shift * (q == q_bad))
    res = verify.verify_tau(max_m=2, max_p=5)
    q = q_bad + floor_phi(q_bad) + 1
    want = {"q": q, "preimages": 0} if shift > 0 else {"q": q - 1, "preimages": 2}
    assert not res.ok and res.counterexample == want


def test_verify_tau_counts_every_end_piled_on_one_q(monkeypatch):
    # floors that fall by one per q over the second block send all of its
    # a-ends to one q, which must report every one of them
    real = kernels.floor_phi_block
    q0 = kernels.SCAN_CHUNK + 1

    def piled(q, **bufs):
        return real(q, **bufs) if q[0] != q0 else floor_phi(q0) + q0 - q

    monkeypatch.setattr(kernels, "floor_phi_block", piled)
    res = verify.verify_tau(max_m=2, max_p=5)
    assert not res.ok and res.counterexample == {"q": q0 + floor_phi(q0) + 1, "preimages": kernels.SCAN_CHUNK}


def test_verify_tau_faults_cover_both_steps():
    # so the faults above plant both a repeated a-end and an a-end on a b-end
    assert {floor_phi(q) - floor_phi(q - 1) for q in TAU_FAULTS} == {0, 1}


def test_verify_tau_memory():
    # the preimage tiling walks q in blocks of SCAN_CHUNK, so only its count
    # per q spans every q; one pass over every q at once peaked at 4.1 MB
    verify.verify_tau(max_m=1, max_p=1)
    tracemalloc.start()
    try:
        res = verify.verify_tau(max_m=15, max_p=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok and peak < 2 * 2**20


def test_one_tree_pass_serves_counts_and_richness(monkeypatch):
    # one pass serves cylinder, counts and richness; each suite alone makes its own
    fills = []
    real = kernels.eertree_fill
    monkeypatch.setattr(kernels, "eertree_fill", lambda text: fills.append(len(text)) or real(text))
    shared = verify.run_suites(["cylinder", "counts", "richness"], 2000, 5, 15)
    assert fills == [2000]
    alone = [suite(oracle.scan_prefix(2000)) for suite in (verify.verify_cylinder, verify.verify_counts,
                                                          verify.verify_richness)]
    assert fills == [2000] * 4
    assert [r._replace(seconds=0) for r in shared] == [r._replace(seconds=0) for r in alone]
    assert all(r.ok for r in shared)
    assert all(r.ok for r in verify.run_suites(list(verify.SUITES), 2000, 5, 15)) and fills == [2000] * 5


def test_run_suites_reads_the_suites_table_and_keeps_the_pass(monkeypatch):
    # a replaced tree suite is the one that runs, and a suite after the last
    # tree suite gets the same pass, which is kept until the call returns
    fills = []
    real = kernels.eertree_fill
    monkeypatch.setattr(kernels, "eertree_fill", lambda text: fills.append(len(text)) or real(text))
    suites = dict(verify.SUITES)
    suites["counts"] = lambda max_n, max_m, max_p, tree_pass: verify.VerifyResult(
        "counts", False, tree_pass().n, {"n": 1})
    suites["floors"] = lambda max_n, max_m, max_p, tree_pass: verify.VerifyResult(
        "floors", True, tree_pass().n)
    monkeypatch.setattr(verify, "SUITES", suites)
    counts, richness, floors = verify.run_suites(["counts", "richness", "floors"], 2000, 5, 15)
    assert counts.counterexample == {"n": 1} and richness.ok and floors.checked == 2000
    assert fills == [2000]


def test_run_suites_keeps_the_pass_within_the_fill_peak():
    # the fill peaks at ~121 B per letter and a finished pass holds ~20, so
    # a suite run while the pass is kept stays under the fill's own peak
    verify.run_suites(["richness", "return-words"], 200, 5, 15)  # tables built before the measurement
    peaks = []
    for run in (lambda: oracle.scan_prefix(20_000),
                lambda: verify.run_suites(["richness", "return-words"], 20_000, 5, 15)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    alone, shared = peaks
    assert shared <= 1.05 * alone, peaks


def test_verify_cylinder_reports_equal_lengths_in_word_order():
    # both length-5 coordinates dropped: the two missing words tie on length,
    # and come out in word order whatever the string hash seed
    code = ("from fibpal import oracle, verify; real = verify.pals_of_length; "
            "verify.pals_of_length = lambda n: [] if n == 5 else real(n); "
            "print(verify.verify_cylinder(oracle.scan_prefix(1000)).counterexample)")
    src = str(Path(verify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout == "{'missing': ['aabaa', 'ababa'], 'extra': []}\n", proc.stderr


@pytest.mark.parametrize("name, counterexample", [
    ("end_count", {"n": 50, "closed": counting.end_count(50) + 1, "oracle": counting.end_count(50)}),
    ("occurrence_count", {"n": 50, "closed_total": counting.occurrence_count(50) + 1,
                          "oracle_total": counting.occurrence_count(50)}),
])
def test_verify_counts_reports_an_answer_off_by_one(monkeypatch, name, counterexample):
    replace_at(monkeypatch, counting, name, (50,), lambda v: v + 1)
    res = verify.verify_counts(oracle.scan_prefix(100))
    assert not res.ok and res.counterexample == counterexample and res.checked == 50


def test_verify_richness_reports_a_flipped_letter(monkeypatch):
    # with its 9th letter flipped, the prefix of length 12 holds 11 distinct palindromes
    flipped = flip(prefix(200), 8)
    assert len(naive_palindrome_set(flipped[:12])) == 11
    assert all(len(naive_palindrome_set(flipped[:n])) == n for n in range(1, 12))
    monkeypatch.setattr(oracle, "prefix", lambda n, *what: flipped[:n])
    res = verify.verify_richness(oracle.scan_prefix(200))
    assert not res.ok and res.counterexample == {"n": 12, "distinct": 11}


def test_verify_cylinder_reports_a_flipped_letter(monkeypatch):
    # the 237th letter flipped: the text gains "bb", "abba", ... and loses the
    # one occurrence in its first 300 letters of a length-99 palindrome, which
    # ends at that letter; the tree pass reads the flipped text
    flipped = flip(prefix(300), 236)
    monkeypatch.setattr(verify, "prefix", lambda n, *what: flipped[:n])
    monkeypatch.setattr(oracle, "prefix", lambda n, *what: flipped[:n])
    res = verify.verify_cylinder(oracle.scan_prefix(300))
    assert not res.ok and res.checked == 150
    assert res.counterexample == {"missing": ["bb", "abba", "babab"], "extra": [prefix(237)[138:]]}


def test_verify_return_words_reports_a_third_return_word(monkeypatch):
    # "abbab...": the returns of "a" start "abb", "ab", "ab", "a"
    flipped = flip(prefix(10**4), 2)
    monkeypatch.setattr(verify, "prefix", lambda n, *what: flipped[:n])
    starts = oracle.occurrence_starts(flipped, "a")
    assert {flipped[i:j] for i, j in zip(starts, starts[1:])} == {"abb", "ab", "a"}
    res = verify.verify_return_words()
    assert not res.ok and res.counterexample == {"factor": "a", "distinct": 3} and res.checked == 0


def test_verify_return_words_reports_a_wrong_reduction(monkeypatch):
    # the text flipped at its 2nd letter, "aaaab...": the returns of "a" are still
    # "a" and "ab", but their reduced word starts "aaab", not "aaaa"
    flipped = flip(prefix(10**4), 1)
    monkeypatch.setattr(verify, "prefix", lambda n, *what: flipped[:n])
    res = verify.verify_return_words()
    reduced = "aaabbababbabbababbababbabbababbabbababba"
    assert not res.ok and res.counterexample == {"factor": "a", "reduced": reduced} and reduced != flipped[:40]


def test_verify_return_words_reports_a_single_return_word(monkeypatch):
    # in "abab...", every return word of "a" is "ab"
    monkeypatch.setattr(verify, "prefix", lambda n, *what: ("ab" * n)[:n])
    res = verify.verify_return_words(100)
    assert not res.ok and res.counterexample == {"factor": "a", "distinct": 1} and res.checked == 0
