"""Independent ground truth at desk scale.

Two tiers: a palindromic tree (eertree) built letter by letter, and naive
scanners (center expansion, substring slicing, plain substring search) that
validate the tree itself.  Nothing here shares code with the closed-form
modules, so agreement between the two paths is meaningful evidence.  This
module holds the ground truth only; each verify suite makes its own
comparison against it.

There is one tree: ``kernels.eertree_fill``, which allocates its own
buffers.  ``scan_word`` runs it over any word over {a, b} and
``scan_prefix`` over a prefix of the Fibonacci word; both feed it the word's
letters as bytes 0 and 1 by one ``translate``.  Every count is a field of
the one ``PrefixScan`` a pass returns (``end_counts`` sums to the occurrence
total, ``nodes - 2`` is the distinct count); the distinct factors and
palindromic suffixes are read off its arrays.  A factor's occurrences come
from one substring scan, ``occurrence_starts``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DomainError, show_int
from .fibword import prefix


_CODES = bytes.maketrans(b"ab", b"\x00\x01")
_LETTERS = bytes.maketrans(b"\x00\x01", b"ab")


class PrefixScan(NamedTuple):
    """Per-position facts from one palindromic-tree pass over a word.

    ``node`` is the tree node of the longest palindromic suffix at each
    position; ``lens`` and ``link`` are the tree's node lengths and suffix
    links (node 0 is the root of virtual length -1, node 1 the empty word).
    """

    n: int
    end_counts: np.ndarray  # occurrences ending at each position (1-based shift)
    max_suffix: np.ndarray  # longest palindromic suffix length per position
    distinct: np.ndarray  # distinct palindromic factors so far per position
    nodes: int
    text: bytes  # the letters fed, a -> 0, b -> 1
    lens: np.ndarray
    link: np.ndarray
    node: np.ndarray

    def _check_pos(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise DomainError(f"position must be in 1..{self.n}, got {show_int(i)}")

    def end_count(self, i: int) -> int:
        self._check_pos(i)
        return int(self.end_counts[i - 1])

    def palindromic_suffix_lengths(self, pos: int) -> list[int]:
        """Lengths of all palindromic suffixes of the prefix ending at 1-based pos."""
        self._check_pos(pos)
        v = int(self.node[pos - 1])
        out = []
        while self.lens[v] > 0:
            out.append(int(self.lens[v]))
            v = int(self.link[v])
        return out

    def words(self) -> set[str]:
        """Every distinct palindromic factor of the scanned word."""
        # every node was the longest palindromic suffix at its creation
        # position, so collecting those suffixes covers all distinct factors
        s = self.text.translate(_LETTERS).decode("ascii")
        return {s[pos + 1 - l: pos + 1] for pos, l in enumerate(self.max_suffix.tolist())}


def _scan(text: bytes) -> PrefixScan:
    """One tree pass over ``text`` (letters 0 and 1)."""
    # looked up at call time, so a wrapper on the module attribute sees every fill
    nodes, lens, link, depth, node = kernels.eertree_fill(text)
    lens_a = np.asarray(lens)[:nodes]
    link_a = np.asarray(link)[:nodes]
    node_a = np.asarray(node)
    # nodes are numbered in creation order, so the largest node seen so far
    # counts the distinct palindromes (the two roots are nodes 0 and 1)
    distinct = np.maximum.accumulate(node_a, dtype=np.int64)
    distinct -= 1
    return PrefixScan(
        len(text),
        end_counts=np.asarray(depth)[node_a],
        max_suffix=lens_a[node_a],
        distinct=distinct,
        nodes=nodes,
        text=text,
        lens=lens_a,
        link=link_a,
        node=node_a,
    )


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


# --- naive scanners (second-level oracle, validate the tree itself) ---


def center_palindrome_spans(s: str, max_len: int | None = None):
    """Yield the span of every palindromic substring, by center expansion.

    With ``max_len``, spans longer than it are neither yielded nor expanded.
    """
    n = len(s)
    cap = n if max_len is None else max_len
    # the largest radius k of a span within the cap: 2k + 1 letters about an
    # odd center, 2k + 2 about an even one (-1 when no span fits)
    odd_r = (cap - 1) // 2
    even_r = cap // 2 - 1
    for c in range(n):  # odd lengths, center c
        r = 0
        while r < odd_r and c - r - 1 >= 0 and c + r + 1 < n and s[c - r - 1] == s[c + r + 1]:
            r += 1
        for k in range(min(r, odd_r) + 1):
            yield (c - k, c + k)
    for c in range(n - 1):  # even lengths, center between c and c+1
        if s[c] != s[c + 1]:
            continue
        r = 0
        while r < even_r and c - r - 1 >= 0 and c + r + 2 < n and s[c - r - 1] == s[c + r + 2]:
            r += 1
        for k in range(min(r, even_r) + 1):
            yield (c - k, c + k + 1)


def center_palindrome_set(s: str, max_len: int | None = None) -> set[str]:
    """Distinct palindromic substrings of s (optionally length-capped)."""
    return {s[i: j + 1] for i, j in center_palindrome_spans(s, max_len)}


def center_end_counts(s: str) -> list[int]:
    """Palindromic-substring occurrences ending at each 1-based position."""
    counts = [0] * (len(s) + 1)
    for _, j in center_palindrome_spans(s):
        counts[j + 1] += 1
    return counts[1:]


def naive_palindrome_set(s: str) -> set[str]:
    """Distinct palindromic substrings by checking every substring slice.

    Quadratic in len(s) with a first-letter/last-letter prefilter; meant for
    validating the other scanners, not for production sizes.
    """
    n = len(s)
    out = set()
    for i in range(n):
        ci = s[i]
        for j in range(i, n):
            if s[j] != ci:
                continue
            t = s[i: j + 1]
            if t == t[::-1]:
                out.add(t)
    return out
