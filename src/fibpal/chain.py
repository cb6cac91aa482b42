"""Occurrence positions of singular words and palindromes.

For the p-th occurrence of the m-th singular word the ending position is

    end = p * fib(m+1) + (floor_phi(p) + 1) * fib(m) - 1

and a palindrome with coordinate (m, i) ends its p-th occurrence exactly
fib(m+1) - i letters later.  Ranging over i, those ending positions fill the
contiguous interval of size fib(m+1) starting at ``end``; for p = 1 the
intervals for consecutive m tile the positive integers, which is why exactly
one palindrome's first occurrence ends at each position n.

Each query checks its arguments once and reads the Fibonacci numbers it
needs from one ``fibword.fibs_through`` view (``fibs[k + 1]`` is fib(k)), with
no helper frame; on bad arguments it calls the function that states the
check, which raises.  ``pal_span`` alone also calls fib(), as noted there.
"""

from __future__ import annotations

from typing import NamedTuple

from . import fibword
from .errors import DomainError, show_int
from .fibword import fib, fib_floor_index, floor_phi


class PalCoord(NamedTuple):
    """Coordinate (m, i) of a palindromic factor; i in [1, fib(m+1)]."""

    m: int
    i: int

    def length(self) -> int:
        """Length of the palindrome, fib(m+3) - 2i."""
        return fib(self.m + 3) - 2 * self.i

    def is_singular(self) -> bool:
        """Whether the palindrome is the singular word S(m), i.e. i = fib(m+1)."""
        return self.i == fib(self.m + 1)


def validate_coord(c: PalCoord) -> None:
    """Raise DomainError unless i lies in [1, fib(m+1)]."""
    if c.m < -1:
        raise DomainError(f"kernel index must be >= -1, got {show_int(c.m)}")
    top = fib(c.m + 1)
    if not 1 <= c.i <= top:
        raise DomainError(f"i must lie in [1, fib({c.m + 1})={show_int(top)}], got {show_int(c.i)}")


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


def singular_end_pos(m: int, p: int) -> int:
    """Ending position of the p-th occurrence of the m-th singular word."""
    if m < -1:
        raise DomainError(f"kernel index must be >= -1, got {show_int(m)}")
    if p < 1:
        raise DomainError(f"occurrence index must be >= 1, got {show_int(p)}")
    fibs = fibword.fibs_through(m + 1)
    return p * fibs[m + 2] + (floor_phi(p) + 1) * fibs[m + 1] - 1


def singular_start_pos(m: int, p: int) -> int:
    """Starting position of the p-th occurrence of the m-th singular word."""
    return singular_end_pos(m, p) - fib(m) + 1


def pal_end_pos(c: PalCoord, p: int) -> int:
    """Ending position of the p-th occurrence of the palindrome (m, i)."""
    m, i = c
    fibs = fibword.fibs_through(m + 1)  # the table, unread, when m < -1
    if m < -1 or not 1 <= i <= fibs[m + 2] or p < 1:
        validate_coord(c)  # the coordinate's error wins over p's
        raise DomainError(f"occurrence index must be >= 1, got {show_int(p)}")
    return (p + 1) * fibs[m + 2] + (floor_phi(p) + 1) * fibs[m + 1] - 1 - i  # singular_end_pos + fib(m+1) - i


def pal_span(c: PalCoord, p: int) -> OccurrenceSpan:
    """First and last letter positions of the p-th occurrence of the palindrome (m, i)."""
    m, i = c
    fibs = fibword.fibs_through(m + 1)
    if m < -1 or not 1 <= i <= fibs[m + 2] or p < 1:
        pal_end_pos(c, p)  # raises, the coordinate's error before p's
    # S(m) starts at p fib(m+1) + floor_phi(p) fib(m), the palindrome fib(m+1) - i letters
    # earlier; its length reads fib(m+3) by fib(), which refuses it past the index limit
    start = (p - 1) * fibs[m + 2] + floor_phi(p) * fibs[m + 1] + i
    # tuple.__new__ builds the record as OccurrenceSpan._make does, without its frame
    return tuple.__new__(OccurrenceSpan, (start, start + fib(m + 3) - 2 * i - 1))


def chain_interval(m: int, p: int) -> ChainInterval:
    """The interval of p-th-occurrence ending positions for kernel index m.

    Stored as (lo, hi); the interval is provably contiguous of size fib(m+1),
    so it is never materialized as an element set.
    """
    if m < -1 or p < 1:
        singular_end_pos(m, p)  # raises, m's error before p's
    fibs = fibword.fibs_through(m + 1)
    lo = p * fibs[m + 2] + (floor_phi(p) + 1) * fibs[m + 1] - 1
    return tuple.__new__(ChainInterval, (m, p, lo, lo + fibs[m + 2] - 1))


def new_pal_at(n: int) -> PalCoord:
    """The unique palindrome whose first occurrence ends at position n.

    n lies in the first-occurrence interval of exactly one kernel index m
    (fib(m+2) - 1 <= n <= fib(m+3) - 2), and there i = fib(m+3) - 1 - n.
    """
    if n < 1:
        raise DomainError(f"positions are 1-based, got {show_int(n)}")
    m = fib_floor_index(n + 1) - 2
    fibs = fibword.fibs_through(m + 3)
    i = fibs[m + 4] - 1 - n
    if not 1 <= i <= fibs[m + 2]:  # a defect: every n >= 1 lands in [1, fib(m+1)]
        raise AssertionError(f"position {show_int(n)} gets i = {show_int(i)} outside [1, fib({m + 1})]")
    return tuple.__new__(PalCoord, (m, i))


def distinct_count(n: int) -> int:
    """Number of distinct palindromic factors of the length-n prefix.

    Equals n: each position is the ending position of exactly one first
    occurrence.  Exposed as an operation so the CLI and the oracle can
    exercise the identity.
    """
    if n < 1:
        raise DomainError(f"positions are 1-based, got {show_int(n)}")
    return n
