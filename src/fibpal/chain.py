"""Occurrence positions of singular words and palindromes.

For the p-th occurrence of the m-th singular word the ending position is

    end = p * fib(m+1) + (floor_phi(p) + 1) * fib(m) - 1

and a palindrome with coordinate (m, i) ends its p-th occurrence exactly
fib(m+1) - i letters later.  Ranging over i, those ending positions fill the
contiguous interval of size fib(m+1) starting at ``end``; for p = 1 the
intervals for consecutive m tile the positive integers, which is why exactly
one palindrome's first occurrence ends at each position n.
"""

from __future__ import annotations

from typing import NamedTuple

from .cylinder import PalCoord, validate_coord
from .errors import DomainError, show_int
from .fibword import fib, fib_floor_index, floor_phi


class OccurrenceSpan(NamedTuple):
    """1-based first/last letter positions of one occurrence."""

    start: int
    end: int

    def length(self) -> int:
        """Number of letters from start through end."""
        return self.end - self.start + 1


class ChainInterval(NamedTuple):
    """Ending positions of the p-th occurrences of all kernel-(m) palindromes."""

    m: int
    p: int
    lo: int
    hi: int

    def size(self) -> int:
        """Number of ending positions, fib(m+1) for an interval from chain_interval."""
        return self.hi - self.lo + 1

    def as_range(self) -> range:
        """The ending positions lo .. hi as a range."""
        return range(self.lo, self.hi + 1)


def _end_pos(m: int, p: int, fib_next: int) -> int:
    """singular_end_pos(m, p) for checked arguments, given fib_next = fib(m+1)."""
    return p * fib_next + (floor_phi(p) + 1) * fib(m) - 1


def singular_end_pos(m: int, p: int) -> int:
    """Ending position of the p-th occurrence of the m-th singular word."""
    if m < -1:
        raise DomainError(f"kernel index must be >= -1, got {show_int(m)}")
    if p < 1:
        raise DomainError(f"occurrence index must be >= 1, got {show_int(p)}")
    return _end_pos(m, p, fib(m + 1))


def singular_start_pos(m: int, p: int) -> int:
    """Starting position of the p-th occurrence of the m-th singular word."""
    return singular_end_pos(m, p) - fib(m) + 1


def pal_end_pos(c: PalCoord, p: int) -> int:
    """Ending position of the p-th occurrence of the palindrome (m, i)."""
    fib_next = validate_coord(c)  # the coordinate error wins over p's
    if p < 1:
        raise DomainError(f"occurrence index must be >= 1, got {show_int(p)}")
    return _end_pos(c.m, p, fib_next) + fib_next - c.i


def pal_span(c: PalCoord, p: int) -> OccurrenceSpan:
    """First and last letter positions of the p-th occurrence of the palindrome (m, i)."""
    end = pal_end_pos(c, p)
    return OccurrenceSpan(end - c.length() + 1, end)


def chain_interval(m: int, p: int) -> ChainInterval:
    """The interval of p-th-occurrence ending positions for kernel index m.

    Stored as (lo, hi); the interval is provably contiguous of size fib(m+1),
    so it is never materialized as an element set.
    """
    lo = singular_end_pos(m, p)  # checks m, then p
    return ChainInterval(m, p, lo, lo + fib(m + 1) - 1)


def new_pal_at(n: int) -> PalCoord:
    """The unique palindrome whose first occurrence ends at position n.

    n lies in the first-occurrence interval of exactly one kernel index m
    (fib(m+2) - 1 <= n <= fib(m+3) - 2), and there i = fib(m+3) - 1 - n.
    """
    if n < 1:
        raise DomainError(f"positions are 1-based, got {show_int(n)}")
    m = fib_floor_index(n + 1) - 2
    c = PalCoord(m, fib(m + 3) - 1 - n)
    validate_coord(c)  # boundary check: i lands in [1, fib(m+1)]
    return c


def distinct_count(n: int) -> int:
    """Number of distinct palindromic factors of the length-n prefix.

    Equals n: each position is the ending position of exactly one first
    occurrence.  Exposed as an operation so the CLI and the oracle can
    exercise the identity.
    """
    if n < 1:
        raise DomainError(f"positions are 1-based, got {show_int(n)}")
    return n
