import itertools
import random

import pytest

from fibpal import DomainError, NotAFactorError, fib, is_factor, kernel, prefix, singular_word
from fibpal import oracle, singular, verify


def test_singular_examples():
    assert singular_word(-1) == "a"
    assert singular_word(0) == "b"
    assert singular_word(1) == "aa"
    assert singular_word(2) == "bab"
    assert singular_word(4) == "babaabab"
    with pytest.raises(DomainError):
        singular_word(-2)


def test_singular_three_part_recursion():
    for m in range(2, 21):
        assert singular_word(m) == singular_word(m - 2) + singular_word(m - 3) + singular_word(m - 2)


def test_singular_palindrome_of_fib_length():
    for m in range(-1, 21):
        w = singular_word(m)
        assert len(w) == fib(m)
        assert w == w[::-1]


def test_last_letter():
    # S(m) opens with the last letter of the (m+1)-th iterate
    for m in range(-1, 15):
        assert singular_word(m)[0] == prefix(fib(m + 1))[-1]


def test_kernel_examples():
    res = kernel("aba")
    assert (res.m, res.offset) == (0, 2)
    res = kernel(singular_word(5))
    assert (res.m, res.offset) == (5, 1)
    res = kernel("abaab")
    assert (res.m, res.offset) == (1, 3)
    # even-length palindromes cannot center an odd-length singular word
    res = kernel("ababaababa")
    assert res.m == 4 and singular_word(4) == "ababaababa"[res.offset - 1: res.offset + 7]


def test_kernel_errors():
    with pytest.raises(DomainError):
        kernel("")
    with pytest.raises(NotAFactorError):
        kernel("bb")
    with pytest.raises(NotAFactorError):
        kernel("aaa")


def test_is_factor():
    assert is_factor("abaab")
    assert is_factor(singular_word(10))
    assert not is_factor("bb")
    assert not is_factor("abc")
    assert not is_factor("ccc")
    with pytest.raises(DomainError):
        is_factor("")


def brute_kernel(w):
    # the largest m with S(m) in w, and the 1-based index of its first occurrence
    m = max(m for m in range(-1, 20) if fib(m) <= len(w) and singular_word(m) in w)
    return m, w.index(singular_word(m)) + 1


def test_membership_exhaustive_short_words():
    text = prefix(10**5)
    n_factors = 0
    for length in range(1, 15):
        factors = {text[i: i + length] for i in range(len(text) - length + 1)}
        for letters in itertools.product("ab", repeat=length):
            w = "".join(letters)
            assert is_factor(w) == (w in factors), w
            if w in factors:
                n_factors += 1
                res = kernel(w)
                assert (res.m, res.offset) == brute_kernel(w), w
    assert n_factors == sum(length + 1 for length in range(1, 15))  # Sturmian complexity


def test_membership_long_factors_and_mutants():
    text = prefix(10**6)
    rng = random.Random(20260418)
    for _ in range(200):
        length = rng.randint(10**3, 2 * 10**4)
        start = rng.randrange(len(text) - length)
        w = text[start: start + length]
        assert is_factor(w)
        res = kernel(w)
        assert w[res.offset - 1:].startswith(singular_word(res.m))
        assert singular_word(res.m + 1) not in w
        k = rng.randrange(length)
        mutant = w[:k] + ("a" if w[k] == "b" else "b") + w[k + 1:]
        assert is_factor(mutant) == (mutant in text)


def test_kernel_uniqueness_over_short_factors(prefix_10k):
    # every factor of length <= 50 contains its kernel exactly once
    for length in range(1, 51):
        factors = {prefix_10k[i: i + length] for i in range(len(prefix_10k) - length + 1)}
        assert len(factors) == length + 1  # Sturmian complexity
        for w in factors:
            res = kernel(w)
            assert w.count(singular_word(res.m)) == 1
            # no larger singular word occurs
            for bigger in range(res.m + 1, 12):
                if fib(bigger) > length:
                    break
                assert singular_word(bigger) not in w


def test_kernel_found_twice_raises(monkeypatch):
    # over an all-a prefix, "aaaa" is a factor holding the candidate S(2) = "aaa" twice
    monkeypatch.setattr(singular, "prefix", lambda n: "a" * n)
    with pytest.raises(AssertionError, match=r"the kernel S\(2\) occurs twice in the factor 'aaaa'"):
        kernel("aaaa")


def test_kernel_occurrence_correspondence(prefix_10k):
    # the kernel inside the p-th occurrence is the p-th kernel occurrence
    for w in ["a", "b", "aa", "aba", "abaab", "ababa", singular_word(4), "abaababaab"]:
        ker = kernel(w)
        starts_w = oracle.occurrence_starts(prefix_10k, w)[:50]
        starts_k = oracle.occurrence_starts(prefix_10k, singular_word(ker.m))
        assert starts_k[:len(starts_w)] == [i + ker.offset - 1 for i in starts_w]


def test_kernel_correspondence_example():
    # the third occurrence of aba sits at positions 6..8 around the third b
    s = prefix(100)
    starts = oracle.occurrence_starts(s, "aba")
    assert (starts[2] + 1, starts[2] + 3) == (6, 8)
    b_starts = oracle.occurrence_starts(s, "b")
    assert b_starts[2] + 1 == 7
    assert b_starts[:3] == [i + kernel("aba").offset - 1 for i in starts[:3]]


def test_verify_kernels_checks_non_factors(monkeypatch):
    res = verify.verify_kernels(prefix_n=1000)
    # length + 1 factors per length, plus every word of length <= 10
    assert res.ok and res.checked == sum(length + 1 for length in range(1, 51)) + 2**11 - 2 == 3371
    monkeypatch.setattr(singular, "is_factor", lambda w: True)
    res = verify.verify_kernels(prefix_n=1000)
    assert not res.ok and res.counterexample == {"word": "bb", "is_factor": True}
