"""Singular words, kernel extraction and exact factor membership.

The m-th singular word is the last letter of the (m+1)-th morphism iterate
followed by the m-th iterate minus its last letter.  Singular words are
palindromes of length fib(m) and satisfy the three-part recursion
S(m) = S(m-2) S(m-3) S(m-2) for m >= 2.

The kernel of a factor w is the largest singular word occurring in w; it
occurs there exactly once, and the p-th occurrence of w in the infinite word
carries the p-th occurrence of its kernel at that same offset (Wen & Wen,
"Some properties of the singular words of the Fibonacci word", 1994).  The
first occurrence of S(m) starts at position fib(m+1), so a word is a factor
exactly when it equals the slice of the infinite word that puts its kernel
there.  Membership is therefore decided exactly, from fib(M+1) + len(w)
letters with M the largest index fib(M) <= len(w), with no scanning window.
"""

from __future__ import annotations

from typing import NamedTuple

from . import fibword
from .errors import DomainError, NotAFactorError, show_int
from .fibword import fib, prefix


class KernelResult(NamedTuple):
    """Kernel index plus the 1-based offset of its unique occurrence."""

    m: int
    offset: int


def singular_word(m: int) -> str:
    """The m-th singular word, a palindrome of length fib(m), for m >= -1."""
    if m < -1:
        raise DomainError(f"singular index must be >= -1, got {show_int(m)}")
    if m < 1:
        return "ab"[m + 1]
    # the last letter of iterate(m + 1) is a iff m is odd
    return "ba"[m % 2] + prefix(fib(m), "singular word")[:-1]


def _largest_singular(w: str) -> tuple[int, int, bool] | None:
    """The largest singular word in w: (m, its 0-based index in w, w occurs).

    Every candidate S(m) is the slice of one prefix at its first
    occurrence, which starts at position fib(m+1); the same prefix holds
    the slice that w must equal if it is a factor.  None when w
    holds neither letter.  A factor whose kernel occurs twice in it raises
    AssertionError: that contradicts the uniqueness of the kernel
    occurrence, so it is a defect, not bad input.
    """
    n = len(w)
    m = fibword.fib_floor_index(n)
    fibs = fibword.fibs_through(m + 1)  # fibs[k + 1] is fib(k)
    text = prefix(fibs[m + 2] + n)
    while m >= -1:
        first = fibs[m + 2] - 1
        s = text[first:first + fibs[m + 1]]
        idx = w.find(s)
        if idx >= 0:
            start = first - idx
            occurs = start >= 0 and text.startswith(w, start)
            if occurs and w.find(s, idx + 1) >= 0:
                raise AssertionError(f"the kernel S({m}) occurs twice in the factor {w[:40]!r}")
            return m, idx, occurs
        m -= 1
    return None


def is_factor(w: str) -> bool:
    """Whether w occurs in the infinite word.

    Exact, with no scanning window: w occurs iff it equals the slice that
    puts its kernel on the kernel's first occurrence (kernel
    correspondence, Wen & Wen 1994; see the module docstring).
    """
    if not w:
        raise DomainError("the empty word is not handled")
    found = _largest_singular(w)
    return found is not None and found[2]


def kernel(w: str) -> KernelResult:
    """The maximal singular word occurring in a factor w, with its occurrence offset.

    Candidates are tested for decreasing index starting from the largest m
    with fib(m) <= len(w); the same search decides membership exactly, as
    in ``is_factor``, and a non-factor raises NotAFactorError.  A factor
    whose kernel occurs twice in it raises AssertionError, since that would
    be a defect.
    """
    if not w:
        raise DomainError("kernel of the empty word is undefined")
    found = _largest_singular(w)
    if found is None or not found[2]:
        raise NotAFactorError(f"{w[:40]!r} does not occur in the Fibonacci word")
    return tuple.__new__(KernelResult, (found[0], found[1] + 1))  # as KernelResult._make does, without its frame
