"""Independent ground truth at desk scale.

A palindromic tree (eertree) built letter by letter and plain substring
search.  Nothing here shares code with the closed-form modules, so agreement
between the two paths is meaningful evidence.  This module holds the ground
truth only; each verify suite makes its own comparison against it.

There is one tree: ``kernels.eertree_fill``, which allocates its own
buffers.  ``scan_word`` runs it over any word over {a, b} and
``scan_prefix`` over a prefix of the Fibonacci word, both fed as bytes 0 and
1 by one ``translate``.  A pass converts three per-position facts from the
fill's lists into the one ``PrefixScan`` it returns and keeps nothing else:
``end_counts`` sums to the occurrence total, ``nodes - 2`` is the distinct
count, and ``palindrome_set`` reads the palindromes from ``max_suffix``.  The
fill sets a pass's peak (~121 B per letter); the ``PrefixScan`` holds ~20.  A
factor's occurrences come from one substring scan, ``occurrence_starts``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DomainError
from .fibword import prefix


_CODES = bytes.maketrans(b"ab", b"\x00\x01")


class PrefixScan(NamedTuple):
    """Per-position facts from one palindromic-tree pass over a word."""

    n: int
    end_counts: np.ndarray  # occurrences ending at each position (1-based shift)
    max_suffix: np.ndarray  # longest palindromic suffix length per position
    distinct: np.ndarray  # distinct palindromic factors so far per position
    nodes: int


def _scan(text: bytes) -> PrefixScan:
    """One tree pass over ``text`` (letters 0 and 1)."""
    # looked up at call time, so a wrapper on the module attribute sees every fill
    nodes, lens, _, depth, node = kernels.eertree_fill(text)
    node = np.fromiter(node, np.int64, len(text))
    end_counts = np.fromiter(depth, np.int32, len(depth))[node]
    max_suffix = np.fromiter(lens, np.int64, len(lens))[node]
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


def palindrome_set(s: str, scan: PrefixScan, max_len: int) -> set[str]:
    """Palindromes of s up to max_len long, from a pass over s: a node is made as the longest palindromic suffix."""
    ends = np.flatnonzero(scan.max_suffix <= max_len)
    return {s[e + 1 - k: e + 1] for e, k in zip(ends.tolist(), scan.max_suffix[ends].tolist())}


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
