"""Guards on the verification suites themselves: how much they check, and
that a fault planted in any layer is reported as the suite's first
counterexample, not raised."""

import pytest

from fibpal import chain, counting, cylinder, fib, floor_phi, kernels, oracle, prefix, singular, verify
from fibpal.chain import ChainInterval, OccurrenceSpan
from fibpal.cylinder import PalCoord

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


def test_verify_kernels_short_kernel_list_is_a_failure(monkeypatch):
    real = oracle.occurrence_starts

    def truncated(s, w):
        starts = real(s, w)
        return starts[:2] if w == singular.singular_word(0) else starts

    monkeypatch.setattr(oracle, "occurrence_starts", truncated)
    res = verify.verify_kernels(prefix_n=1000)
    # "b" is its own kernel and occurs more than twice
    assert not res.ok and res.counterexample == {"factor": "b"} and res.checked == 1


def test_verify_kernels_reports_a_rejected_factor(monkeypatch):
    real = singular.kernel

    def rejecting(w):
        if w == "aba":
            raise singular.NotAFactorError(w)
        return real(w)

    monkeypatch.setattr(singular, "kernel", rejecting)
    res = verify.verify_kernels(prefix_n=1000)
    assert not res.ok and res.counterexample == {"factor": "aba", "is_factor": False}


def test_kernel_correspondence_shares_the_suite_comparison(monkeypatch):
    s, ker = prefix(1000), singular.kernel("abaab")
    starts_k = oracle.occurrence_starts(s, singular.singular_word(ker.m))
    assert oracle.starts_correspond(oracle.occurrence_starts(s, "abaab"), starts_k, ker.offset, 10)
    monkeypatch.setattr(oracle, "starts_correspond", lambda *args: False)
    res = verify.verify_kernels(prefix_n=1000)
    assert not res.ok and res.counterexample == {"factor": "a"}


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
    res = verify.verify_cylinder(prefix_n=1000)
    assert not res.ok and res.counterexample == counterexample


@pytest.mark.parametrize("plant, counterexample", [
    # the p = 1 intervals tile from 1: (2, 1) is [7, 11]
    (lambda mp: replace_at(mp, verify, "chain_interval", (2, 1), lambda iv: iv._replace(lo=iv.lo + 1)),
     {"m": 2, "lo": 8, "expected": 7}),
    (lambda mp: replace_at(mp, verify, "chain_interval", (2, 1), widen), {"m": 2, "size": fib(3) + 1}),
    # "aba" starts at the 0-based positions 0, 3, 5, ...
    (lambda mp: replace_at(mp, verify, "pal_span", (PalCoord(0, 1), 2),
                           lambda sp: OccurrenceSpan(sp.start + 1, sp.end + 1)),
     {"word": "aba", "p": 2, "formula": (5, 7), "scan": (4, 6)}),
    (lambda mp: replace_at(mp, verify, "chain_interval", (3, 7), widen), {"m": 3, "p": 7}),
    (lambda mp: replace_at(mp, verify, "new_pal_at", (10,), lambda c: chain.new_pal_at(11)), {"n": 10}),
])
def test_verify_chain_reports_a_planted_fault(monkeypatch, plant, counterexample):
    plant(monkeypatch)
    res = verify.verify_chain(max_n=1000)
    assert not res.ok and res.counterexample == counterexample


def test_verify_tau_reports_a_misaligned_split(monkeypatch):
    # split_cell raises AssertionError on the misaligned cell; the suite reports it
    replace_at(monkeypatch, counting, "chain_interval", (3, 7), widen)
    with pytest.raises(AssertionError, match=r"cell split misaligned for \(m=3, p=7\)"):
        counting.split_cell(3, 7)
    res = verify.verify_tau(max_m=5, max_p=20)
    assert not res.ok and res.counterexample == {"m": 3, "p": 7}


def test_verify_tau_reports_a_misaligned_reduction(monkeypatch):
    # only reduce_cell(1) reads the cell (0, 1); no split at these bounds does
    replace_at(monkeypatch, counting, "chain_interval", (0, 1), widen)
    with pytest.raises(AssertionError, match="cell reduction misaligned for p=1"):
        counting.reduce_cell(1)
    res = verify.verify_tau(max_m=5, max_p=20)
    assert not res.ok and res.counterexample == {"p": 1}


def test_verify_tau_reports_a_wrong_reduction(monkeypatch):
    replace_at(monkeypatch, verify, "chain_interval", (0, 4), widen)
    res = verify.verify_tau(max_m=5, max_p=20)
    assert not res.ok and res.counterexample == {"p": 4}


def test_verify_tau_reports_a_preimage_gap(monkeypatch):
    # floor(phi * 10) off by one moves the preimage of 10 + floor(phi * 10) + 1 = 17 to 18
    real = kernels.floor_phi_block
    monkeypatch.setattr(kernels, "floor_phi_block", lambda q: real(q) + (q == 10))
    res = verify.verify_tau(max_m=2, max_p=5)
    assert 10 + floor_phi(10) + 1 == 17
    assert not res.ok and res.counterexample == {"q": 17, "preimages": 0}


@pytest.mark.parametrize("name, counterexample", [
    ("end_count", {"n": 50, "closed": counting.end_count(50) + 1, "oracle": counting.end_count(50)}),
    ("occurrence_count", {"n": 50, "closed_total": counting.occurrence_count(50) + 1,
                          "oracle_total": counting.occurrence_count(50)}),
])
def test_verify_counts_reports_an_answer_off_by_one(monkeypatch, name, counterexample):
    replace_at(monkeypatch, counting, name, (50,), lambda v: v + 1)
    res = verify.verify_counts(max_n=100)
    assert not res.ok and res.counterexample == counterexample and res.checked == 50


def test_verify_richness_reports_a_flipped_letter(monkeypatch):
    # with its 9th letter flipped, the prefix of length 12 holds 11 distinct palindromes
    flipped = flip(prefix(200), 8)
    assert len(oracle.naive_palindrome_set(flipped[:12])) == 11
    assert all(len(oracle.naive_palindrome_set(flipped[:n])) == n for n in range(1, 12))
    monkeypatch.setattr(oracle, "prefix", lambda n, *what: flipped[:n])
    res = verify.verify_richness(max_n=200)
    assert not res.ok and res.counterexample == {"n": 12, "distinct": 11}


def test_verify_return_words_reports_a_third_return_word(monkeypatch):
    # "abbab...": the returns of "a" start "abb", "ab", "ab", "a"
    flipped = flip(prefix(10**4), 2)
    monkeypatch.setattr(oracle, "prefix", lambda n, *what: flipped[:n])
    assert set(oracle.return_words("a", 10**4).returns) == {"abb", "ab", "a"}
    res = verify.verify_return_words()
    assert not res.ok and res.counterexample == {"factor": "a", "distinct": 3} and res.checked == 0


def test_verify_return_words_reports_a_wrong_reduction(monkeypatch):
    # the reduced word of "a" is a prefix of the word, not of the text flipped at its 2nd letter
    flipped = flip(prefix(10**4), 1)
    monkeypatch.setattr(verify, "prefix", lambda n, *what: flipped[:n])
    res = verify.verify_return_words()
    assert not res.ok and res.counterexample == {"factor": "a", "reduced": prefix(40)}
