import time
import tracemalloc

import pytest

from fibpal import (
    DomainError,
    NotAFactorError,
    PalCoord,
    ResourceError,
    coord_from_pal,
    cylinder_table,
    cylinder_tag,
    fib,
    pal_from_coord,
    palindromic_conjugates,
    pals_of_length,
    prefix,
    prefix_palindrome_lengths,
    singular_word,
)
from fibpal import oracle, verify
from naive import center_palindrome_spans


def test_pal_from_coord_examples():
    assert pal_from_coord(PalCoord(0, 1)) == "aba"
    assert pal_from_coord(PalCoord(2, fib(3))) == "bab"
    assert pal_from_coord(PalCoord(-1, 1)) == "a"


def test_pal_from_coord_domain():
    with pytest.raises(DomainError):
        pal_from_coord(PalCoord(2, 0))
    with pytest.raises(DomainError):
        pal_from_coord(PalCoord(2, fib(3) + 1))
    with pytest.raises(DomainError):
        pal_from_coord(PalCoord(-2, 1))
    # kernel indices 0 and -1 are the least; one below, or any below, is refused
    assert (cylinder_tag(PalCoord(0, 1)), cylinder_tag(PalCoord(-1, 1))) == ("b", "a")
    for m in (-2, -3, -10**21000):
        with pytest.raises(DomainError, match="kernel index must be >= -1"):
            cylinder_tag(PalCoord(m, 1))


def test_coord_from_pal_examples():
    assert coord_from_pal("ababa") == PalCoord(2, 4)
    assert coord_from_pal("b") == PalCoord(0, 2)
    assert coord_from_pal("babaabab") == PalCoord(4, fib(5))


def test_coord_from_pal_errors():
    with pytest.raises(DomainError):
        coord_from_pal("ab")  # not a palindrome
    with pytest.raises(NotAFactorError):
        coord_from_pal("bb")  # palindrome, not a factor
    with pytest.raises(DomainError):
        coord_from_pal("")


def test_roundtrip_all_coords():
    for m in range(-1, 17):
        s_m, s_next = singular_word(m), singular_word(m + 1)  # the other defining form
        for i in range(1, fib(m + 1) + 1):
            c = PalCoord(m, i)
            w = pal_from_coord(c)
            assert w == s_next[i:] + s_m + s_next[: fib(m + 1) - i], c
            assert len(w) == c.length()
            assert w == w[::-1]
            assert coord_from_pal(w) == c


def test_pals_of_length_examples():
    assert {pal_from_coord(c) for c in pals_of_length(5)} == {"ababa", "aabaa"}
    assert {pal_from_coord(c) for c in pals_of_length(4)} == {"baab"}
    assert {pal_from_coord(c) for c in pals_of_length(1)} == {"a", "b"}
    with pytest.raises(DomainError):
        pals_of_length(0)


def test_pals_of_length_cardinality():
    for n in range(1, 1001):
        assert len(pals_of_length(n)) == (2 if n % 2 else 1)


def test_enumeration_matches_naive_scan(prefix_10k):
    # tree-free: every center-expansion span of length <= 100
    scanned = {prefix_10k[i: j + 1] for i, j in center_palindrome_spans(prefix_10k) if j - i < 100}
    generated = {pal_from_coord(c) for n in range(1, 101) for c in pals_of_length(n)}
    assert generated == scanned


def test_cylinder_classification():
    for n in range(1, 120):
        for c in pals_of_length(n):
            w = pal_from_coord(c)
            tag = cylinder_tag(c)
            if len(w) % 2 == 0:
                assert tag == "aa"
            else:
                assert tag == w[len(w) // 2]


def test_cylinder_table_rows():
    table = cylinder_table(12)
    assert [len(col) for col in table.values()] == [12, 12, 12]
    assert table["a"][0] == ("a", True)
    assert table["b"][2] == ("aabaa", True)
    assert table["aa"][3] == ("babaabab", True)
    # row r of the odd cylinders has length 2r-1, of the even cylinder 2r
    for r in range(12):
        assert len(table["a"][r][0]) == 2 * r + 1
        assert len(table["b"][r][0]) == 2 * r + 1
        assert len(table["aa"][r][0]) == 2 * r + 2


def test_cylinder_table_checks_its_total_once(monkeypatch):
    # 3 rows**2 + rows letters in all: 3 * 10**10 + 10**5 is past the default cap
    with pytest.raises(ResourceError, match="^cylinder table of length 30000100000 exceeds"):
        cylinder_table(10**5)
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", str(3 * 12 * 12 + 12))
    assert sum(len(w) for col in cylinder_table(12).values() for w, _ in col) == 3 * 12 * 12 + 12
    with pytest.raises(ResourceError):
        cylinder_table(13)


def test_palindromic_conjugates_examples():
    assert palindromic_conjugates(2) == {"aba"}
    assert palindromic_conjugates(1) == set()
    assert palindromic_conjugates(4) == set()


def test_palindromic_conjugates_counts():
    for m in range(-1, 21):
        expected = 0 if m % 3 == 1 else 1
        w = "b" if m == -1 else prefix(fib(m))  # the m-th iterate is the length-fib(m) prefix
        ww = w + w
        rotations = (ww[k:k + len(w)] for k in range(len(w)))
        found = palindromic_conjugates(m)
        assert found == {r for r in rotations if r == r[::-1]}, m
        assert len(found) == expected


def test_palindromic_conjugates_linear_time():
    # fib(30) = 1,346,269 letters; testing every rotation takes time quadratic in that
    start = time.perf_counter()
    assert len(palindromic_conjugates(30)) == 1
    assert time.perf_counter() - start < 1.0


def test_palindromic_conjugates_memory():
    # one rotation at a time: a list of all fib(20) = 10,946 rotations held ~300 MB
    tracemalloc.start()
    try:
        assert len(palindromic_conjugates(20)) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_prefix_palindrome_lengths_examples():
    assert prefix_palindrome_lengths(11) == [1, 3, 6, 11]
    assert prefix_palindrome_lengths(2) == [1]
    assert prefix_palindrome_lengths(100) == [1, 3, 6, 11, 19, 32, 53, 87]


def test_prefix_palindrome_lengths_refuses_past_the_index_limit():
    # fib(10**5) has ~20,900 digits; without the refusal this listed 100,483 lengths in ~450 MB
    with pytest.raises(ResourceError, match="^fib index"):
        prefix_palindrome_lengths(10**21000)


def test_prefix_palindrome_lengths_by_reversal():
    s = prefix(1000)
    expected = {n for n in range(1, 1001) if s[:n] == s[:n][::-1]}
    assert set(prefix_palindrome_lengths(1000)) == expected


def test_verify_cylinder_checks_both_forms(monkeypatch):
    assert verify.verify_cylinder(oracle.scan_prefix(300)).ok
    real, swap = verify.pal_from_coord, str.maketrans("ab", "ba")
    monkeypatch.setattr(verify, "pal_from_coord", lambda c: real(c).translate(swap) if c == PalCoord(1, 1) else real(c))
    res = verify.verify_cylinder(oracle.scan_prefix(300))
    word = real(PalCoord(1, 1))
    assert not res.ok
    assert res.counterexample == {"coord": (1, 1), "slice": word.translate(swap), "concatenation": word}
