import random
import tracemalloc

import numpy as np
import pytest

from fibpal import DomainError, kernel, prefix, singular_word
from fibpal import oracle, verify
from naive import center_end_counts, center_palindrome_spans, fill, naive_palindrome_set, palindromes, suffix_lengths


def naive_suffix_palindrome_count(s: str, pos: int) -> int:
    # truly naive: test every suffix of s[:pos] by reversal
    t = s[:pos]
    return sum(1 for k in range(1, pos + 1) if t[-k:] == t[-k:][::-1])


def test_eertree_end_count_examples():
    counts = oracle.scan_prefix(3).end_counts
    assert counts.tolist() == [1, 1, 2]
    assert oracle.scan_prefix(8).end_counts[-1] == 3
    assert oracle.scan_prefix(21).end_counts[-1] == 4


@pytest.mark.parametrize("n", [0, 1, 2, 17_710, 17_711, 17_712, 33_280, 10**5])
def test_scan_prefix_equals_scan_word_of_prefix(n):
    # the prefix table ends at 17,711 letters; every field, values and dtypes
    by_prefix, by_word = oracle.scan_prefix(n), oracle.scan_word(prefix(n))
    assert list(by_prefix._fields) == list(by_word._fields)
    for name, a, b in zip(by_prefix._fields, by_prefix, by_word):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert type(a) is type(b) and a == b, name


def test_eertree_total_examples():
    # the occurrence total is the sum of the per-position counts
    for n, total in ((1, 1), (13, 32), (29, 98), (0, 0)):
        assert int(oracle.scan_prefix(n).end_counts.sum()) == total


def test_eertree_distinct_examples():
    # every node but the two roots is a distinct palindromic factor
    for n, distinct in ((1, 1), (3, 3), (87, 87)):
        assert oracle.scan_prefix(n).nodes - 2 == distinct


def test_eertree_rich_per_position(scan_10k):
    assert np.array_equal(scan_10k.distinct, np.arange(1, 10**4 + 1))


def test_eertree_vs_naive_sets_small():
    for n in list(range(1, 65)) + [257, 500, 1000]:
        s = prefix(n)
        words = palindromes(s, oracle.scan_word(s).max_suffix)
        assert words == palindromes(s, oracle.scan_prefix(n).max_suffix)
        assert words == naive_palindrome_set(s)


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 100, None])
def test_capped_center_spans_are_the_short_uncapped_ones(cap, prefix_2k):
    # the capped read of a tree pass keeps exactly the uncapped spans' words
    # of length <= cap, on rich words and others
    rng = random.Random(cap or 0)
    words = [prefix_2k, "", "a", "aa", "a" * 150, "ab" * 75] + [
        "".join(rng.choice("ab") for _ in range(rng.randint(0, 120))) for _ in range(50)]
    for s in words:
        assert oracle.palindrome_set(s, oracle.scan_word(s), len(s) if cap is None else cap) == {
            s[i: j + 1] for i, j in center_palindrome_spans(s) if cap is None or j - i + 1 <= cap}


def test_eertree_counts_vs_naive_scans(prefix_2k, scan_2k):
    end_counts = scan_2k.end_counts.tolist()
    assert end_counts == center_end_counts(prefix_2k)
    for pos in range(1, 301):
        assert end_counts[pos - 1] == naive_suffix_palindrome_count(prefix_2k, pos)


def test_eertree_suffix_links_shorten(prefix_2k):
    nodes, lens, link, _, _ = fill(prefix_2k)
    for v in range(2, nodes):
        assert lens[link[v]] < lens[v]


def test_eertree_on_non_fibonacci_words():
    # sanity on arbitrary words: counts match the naive scanners
    for s in ["aaaa", "abab", "abba", "aabbaabb", "babab", "a", "ab"]:
        scan = oracle.scan_word(s)
        assert palindromes(s, scan.max_suffix) == naive_palindrome_set(s)
        assert scan.end_counts.tolist() == center_end_counts(s)


def naive_longest_suffix(t: str) -> int:
    return max(k for k in range(1, len(t) + 1) if t[-k:] == t[-k:][::-1])


def test_scan_word_random_words():
    # off the Fibonacci word: random words, most of them not rich
    rng = random.Random(11)
    for _ in range(300):
        s = "".join(rng.choice("ab") for _ in range(rng.randint(1, 40)))
        scan = oracle.scan_word(s)
        _, lens, link, _, node = fill(s)
        assert scan.n == len(s)
        words = palindromes(s, scan.max_suffix)
        assert words == naive_palindrome_set(s)
        assert scan.nodes - 2 == len(words)
        assert scan.end_counts.tolist() == center_end_counts(s)
        for pos in range(1, len(s) + 1):
            t = s[:pos]
            assert scan.max_suffix[pos - 1] == naive_longest_suffix(t)
            assert scan.distinct[pos - 1] == len(naive_palindrome_set(t))
            assert suffix_lengths(lens, link, node[pos - 1]) == [
                k for k in range(pos, 0, -1) if t[-k:] == t[-k:][::-1]
            ]


def test_scan_word_edges():
    empty = oracle.scan_word("")
    assert empty.n == 0 and empty.nodes == 2 and palindromes("", empty.max_suffix) == set()
    assert empty.end_counts.size == empty.max_suffix.size == empty.distinct.size == 0
    for bad in ["abc", "c", "ab a", "aXb"]:
        with pytest.raises(DomainError):
            oracle.scan_word(bad)


def test_scan_dtypes():
    scan = oracle.scan_prefix(100)
    assert scan.end_counts.dtype == np.int32
    assert scan.max_suffix.dtype == np.int64
    assert scan.distinct.dtype == np.int64


def test_scan_prefix_memory():
    # a pass keeps its three per-position arrays, 20 B per letter; also
    # keeping the text and the tree's node, length and link arrays held 37
    n = 10**5
    oracle.scan_prefix(200)  # modules loaded before the measurement
    tracemalloc.start()
    try:
        scan = oracle.scan_prefix(n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert scan.n == n and held <= 24 * n


def test_occurrences_examples():
    # 0-based starts; 1-based, "aba" starts at 1, 4 and 6
    assert oracle.occurrence_starts(prefix(8), "aba") == [0, 3, 5]
    assert oracle.occurrence_starts(prefix(7), "b") == [1, 4, 6]
    assert oracle.occurrence_starts(prefix(24), "bab")[2] + len("bab") == 20  # the 1-based end
    with pytest.raises(DomainError):
        oracle.occurrence_starts(prefix(10), "")


def return_words(w: str, n: int) -> tuple[list[str], str]:
    """The gaps between consecutive starts of w in the length-n prefix, and
    their reduced word: the first gap -> a, any other -> b."""
    s = prefix(n)
    starts = oracle.occurrence_starts(s, w)
    rets = [s[i:j] for i, j in zip(starts, starts[1:])]
    return rets, "".join("a" if r == rets[0] else "b" for r in rets)


def test_return_words_example():
    rets, reduced = return_words("a", 13)
    assert rets == ["ab", "a", "ab", "ab", "a", "ab", "a"]
    assert reduced == prefix(len(reduced))


def test_return_words_reduce_to_prefixes():
    for w, n in [("b", 20), ("aba", 30), ("aa", 200), ("abaab", 500), ("ababa", 2000)]:
        rets, reduced = return_words(w, n)
        assert len(set(rets)) == 2
        assert reduced == prefix(len(reduced))


def test_return_words_needs_occurrences():
    # "aa" first occurs at 3..4 and again at 8..9, so a prefix of 10 holds it twice
    with pytest.raises(DomainError, match="'aa' occurs only 2 times"):
        verify.verify_return_words(prefix_n=10)


def test_kernel_correspondence_examples():
    for w, p_max, n in (("aba", 3, 100), (singular_word(3), 5, 1000), ("abaab", 10, 1000)):
        s, ker = prefix(n), kernel(w)
        starts_w = oracle.occurrence_starts(s, w)[:p_max]
        assert len(starts_w) == p_max
        starts_k = oracle.occurrence_starts(s, singular_word(ker.m))
        assert starts_k[:p_max] == [i + ker.offset - 1 for i in starts_w]


def test_max_suffix_matches_naive(prefix_2k, scan_2k):
    # the longest palindrome ending at each position, from center-expansion spans
    longest = [0] * len(prefix_2k)
    for i, j in center_palindrome_spans(prefix_2k):
        longest[j] = max(longest[j], j - i + 1)
    assert scan_2k.max_suffix.tolist() == longest
    for pos in range(1, 501):
        assert scan_2k.max_suffix[pos - 1] == naive_longest_suffix(prefix_2k[:pos])
