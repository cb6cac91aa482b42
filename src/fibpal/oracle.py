"""Independent ground truth at desk scale.

A palindromic tree (eertree) built letter by letter, a center-expansion
palindrome set and plain substring search.  Nothing here shares code with
the closed-form modules, so agreement between the two paths is meaningful
evidence.  This module holds the ground truth only; each verify suite makes
its own comparison against it.

There is one tree: ``kernels.eertree_fill``, which allocates its own
buffers.  ``scan_word`` runs it over any word over {a, b} and
``scan_prefix`` over a prefix of the Fibonacci word; both feed it the word's
letters as bytes 0 and 1 by one ``translate``.  A pass converts three
per-position facts from the fill's lists into the one ``PrefixScan`` it
returns (``end_counts`` sums to the occurrence total, ``nodes - 2`` is the
distinct count) and keeps nothing else.  A factor's occurrences come from
one substring scan, ``occurrence_starts``.  ``center_palindrome_set``
expands each center once and adds only the palindromes it has not yet seen.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DomainError, show_int
from .fibword import prefix


_CODES = bytes.maketrans(b"ab", b"\x00\x01")


class PrefixScan(NamedTuple):
    """Per-position facts from one palindromic-tree pass over a word."""

    n: int
    end_counts: np.ndarray  # occurrences ending at each position (1-based shift)
    max_suffix: np.ndarray  # longest palindromic suffix length per position
    distinct: np.ndarray  # distinct palindromic factors so far per position
    nodes: int

    def end_count(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise DomainError(f"position must be in 1..{self.n}, got {show_int(i)}")
        return int(self.end_counts[i - 1])


def _scan(text: bytes) -> PrefixScan:
    """One tree pass over ``text`` (letters 0 and 1)."""
    # looked up at call time, so a wrapper on the module attribute sees every fill
    nodes, lens, link, depth, node = kernels.eertree_fill(text)
    # each list is freed once read (the suffix links at once: no field reads
    # them), so the arrays fit in the memory the fill has already used
    del link
    node = np.fromiter(node, np.int64, len(text))
    end_counts = np.fromiter(depth, np.int32, len(depth))[node]
    del depth
    max_suffix = np.fromiter(lens, np.int64, len(lens))[node]
    del lens
    # nodes are numbered in creation order, so the largest node seen so far
    # counts the distinct palindromes (the two roots are nodes 0 and 1)
    distinct = np.maximum.accumulate(node, out=node)
    distinct -= 1
    return PrefixScan(len(text), end_counts, max_suffix, distinct, nodes)


def scan_word(w: str) -> PrefixScan:
    """Run the tree kernel over any word over {a, b}."""
    if not set(w) <= {"a", "b"}:
        raise DomainError(f"scan_word takes words over {{a, b}}, got {w[:40]!r}")
    return _scan(w.encode("ascii").translate(_CODES))


def scan_prefix(n: int) -> PrefixScan:
    """Run the tree kernel over the length-n prefix."""
    return _scan(prefix(n, "prefix scan").encode("ascii").translate(_CODES))


def occurrence_starts(s: str, w: str) -> list[int]:
    """0-based starts of every (possibly overlapping) occurrence of w in s, from one scan."""
    if not w:
        raise DomainError("occurrences of the empty word are undefined")
    out = []
    idx = s.find(w)
    while idx >= 0:
        out.append(idx)
        idx = s.find(w, idx + 1)
    return out


# --- center expansion (a tree-free scanner) ---


def center_palindrome_set(s: str, max_len: int | None = None) -> set[str]:
    """Distinct palindromic substrings of s (optionally length-capped), by center expansion.

    Each center is expanded to its largest radius within the cap.  Its
    palindromes are then added longest first, up to the first one already in
    the set: the set stays closed under removing one letter from each end, so
    every shorter palindrome about that center is in it too.
    """
    n = len(s)
    cap = n if max_len is None else max_len
    out = set()
    for width in (1, 2):  # odd lengths about one letter, even ones about two equal letters
        top = (cap - width) // 2  # the largest radius of a palindrome within the cap
        if top < 0:  # none of this parity fits
            continue
        for lo in range(n - width + 1):
            hi = lo + width - 1  # s[lo: hi + 1] is the center
            if s[lo] != s[hi]:
                continue
            reach = min(top, lo, n - 1 - hi)
            r = 0
            while r < reach and s[lo - r - 1] == s[hi + r + 1]:
                r += 1
            for k in range(r, -1, -1):
                w = s[lo - k: hi + k + 1]
                if w in out:
                    break
                out.add(w)
    return out
