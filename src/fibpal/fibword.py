"""Exact arithmetic on the infinite Fibonacci word.

The infinite word is the fixed point, starting from ``a``, of the morphism
a -> ab, b -> a.  Positions are 1-based and unbounded, so everything here is
integer-exact: golden-ratio floors are computed with ``math.isqrt`` on
arbitrary-precision integers, and no float ever reaches a result.

Conventions used throughout the package:

* ``fib(m)`` is the length of the m-th morphism iterate, with
  ``fib(-1) == fib(0) == 1`` and ``fib(m+1) == fib(m) + fib(m-1)``.
* ``floor_phi(p)`` is the floor of ``p * (sqrt(5)-1)/2``; it equals the number
  of letters ``a`` in the prefix of length ``p - 1``.
* The prefix of length 0 is the empty word.
* ``prefix(n)`` is the one builder of letters: a ``str`` over {a, b}, checked
  against the cap.  Nothing here needs NumPy.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_right

from .errors import DomainError, ResourceError, show_int

LETTER_A = "a"
LETTER_B = "b"

DEFAULT_MATERIALIZE_CAP = 10**8

# Fibonacci numbers, index shifted by one: _fibs[i] holds fib(i - 1).  The
# table grows on demand up to fib(FIB_TABLE_MAX) and no further (~1.1 MB):
# a position below 1.1 * 10**1000 has block index ~4,790.  Past it, fib
# values come from fast doubling and are not kept, so memory does not grow
# with the largest index ever asked for.  FIB_INDEX_MAX bounds the size of
# an answer: larger indices are refused.  A position of 10**10000 has block
# index ~47,850.
FIB_TABLE_MAX = 5000
FIB_INDEX_MAX = 10**5
_fibs = [1, 1]
_fibs_lock = threading.Lock()


def materialize_cap(raw: str | None) -> int:
    """Maximum number of bytes a single call may hold, a letter counting one,
    from the raw ``FIBPAL_MAX_MATERIALIZE`` value (None when it is not set)."""
    if raw is None:
        return DEFAULT_MATERIALIZE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ResourceError(f"FIBPAL_MAX_MATERIALIZE is not an integer: {raw!r}") from exc
    if cap < 1:
        raise ResourceError(f"FIBPAL_MAX_MATERIALIZE must be positive, got {show_int(cap)}")
    return cap


_CAP_KEY = os.environ.encodekey("FIBPAL_MAX_MATERIALIZE")


def check_cap(n: int, what: str = "word", unit: int = 1) -> None:
    """Raise ResourceError if holding ``n`` items of ``unit`` bytes each (a
    letter is one byte) exceeds the cap, read from the
    ``FIBPAL_MAX_MATERIALIZE`` environment variable on every call.

    The read is one lookup in the dict behind ``os.environ``, under the key
    encoded at import (``os.environ.get`` raises and catches two KeyErrors
    when the variable is unset), so a change made through ``os.environ``
    shows on the next call.
    """
    raw = os.environ._data.get(_CAP_KEY)
    cap = materialize_cap(None if raw is None else os.environ.decodevalue(raw))
    if n * unit > cap:
        size = f"length {show_int(n)}" if unit == 1 else f"{show_int(n)} items of {show_int(unit)} bytes"
        raise ResourceError(f"{what} of {size} exceeds materialization cap {show_int(cap)}")


def fib(m: int) -> int:
    """The m-th Fibonacci number with fib(-1) = fib(0) = 1.

    Exact up to m = FIB_INDEX_MAX; a larger m raises ResourceError.  Values up
    to FIB_TABLE_MAX are memoized in a shared table, whose growth is serialized
    and whose reads are lock-free; larger ones are computed by fast doubling
    on every call.
    """
    if m < -1:
        raise DomainError(f"fib index must be >= -1, got {show_int(m)}")
    idx = m + 1
    if idx >= len(_fibs):
        if m > FIB_TABLE_MAX:
            return _fib_pair(m)[0]
        with _fibs_lock:
            while idx >= len(_fibs):
                _fibs.append(_fibs[-1] + _fibs[-2])
    return _fibs[idx]


def _fib_pair(m: int) -> tuple[int, int]:
    """(fib(m), fib(m - 1)) by fast doubling, for 0 <= m <= FIB_INDEX_MAX."""
    if m > FIB_INDEX_MAX:
        raise ResourceError(f"fib index {show_int(m)} exceeds the index limit {FIB_INDEX_MAX}")
    a, b = 0, 1  # F(k), F(k + 1) in the standard indexing, where fib(m) = F(m + 2)
    for bit in bin(m + 1)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return b, a


class _FibSteps:
    """fib values by the table's index, [k + 1] -> fib(k), for k past the table.

    Holds one pair (fib(k), fib(k - 1)) and moves it by one addition or
    subtraction per index, so a walk that moves a few indices at a time pays
    O(1) big-int operations per step; indices inside the table are read there.
    """

    __slots__ = ("idx", "hi", "lo")

    def __init__(self, m: int):
        self.idx = m + 1
        self.hi, self.lo = _fib_pair(m)

    def __getitem__(self, idx: int) -> int:
        if idx < len(_fibs):
            return _fibs[idx]
        k, hi, lo = self.idx, self.hi, self.lo
        while k > idx:
            hi, lo = lo, hi - lo
            k -= 1
        while k < idx:
            hi, lo = hi + lo, hi
            k += 1
        self.idx, self.hi, self.lo = k, hi, lo
        return hi


def fibs_through(m: int) -> list[int] | _FibSteps:
    """Indexable fib(-1) .. fib(m), with [k + 1] holding fib(k) as in the table.

    The table itself when m is within FIB_TABLE_MAX; past it, the table filled
    to FIB_TABLE_MAX and a stepped pair from (fib(m), fib(m - 1)) above it.
    """
    if m + 1 < len(_fibs):
        return _fibs
    fib(min(m, FIB_TABLE_MAX))
    return _fibs if m <= FIB_TABLE_MAX else _FibSteps(m)


def fib_floor_index(x: int) -> int:
    """Largest m with fib(m) <= x, for x >= 1.

    Because fib(-1) == fib(0) == 1, the *largest* such m is returned
    (so fib_floor_index(1) == 0).  Below fib(FIB_TABLE_MAX) it is a search in
    the table; past it, one fast doubling near the answer and a few steps, so
    the table does not grow.  An answer that may exceed FIB_INDEX_MAX raises
    ResourceError.
    """
    if x < 1:
        raise DomainError(f"fib_floor_index needs x >= 1, got {show_int(x)}")
    if _fibs[-1] <= x:
        # with g = (1 + sqrt 5)/2, fib(m) >= g**m and log(2)/log(g) < 1.4405,
        # so fib(top) > x
        top = x.bit_length() * 14405 // 10000 + 1
        if top > FIB_INDEX_MAX:
            raise ResourceError(f"fib index {show_int(top)} exceeds the index limit {FIB_INDEX_MAX}")
        if top > FIB_TABLE_MAX:
            # fib(m) <= g**(m + 1) <= 2**(bits - 1) <= x, as 1.4404 < 1/log2(g);
            # the answer is at most top, a few steps up
            m = (x.bit_length() - 1) * 14404 // 10000 - 1
            hi, lo = _fib_pair(m)
            while hi + lo <= x:
                hi, lo = hi + lo, hi
                m += 1
            return m
        fib(top)
    return bisect_right(_fibs, x) - 2


def floor_phi(p: int) -> int:
    """Exact floor(phi * p) where phi = (sqrt(5) - 1) / 2.

    Computed as (isqrt(5 p^2) - p) // 2.  sqrt(5) * p is irrational for
    p >= 1, so the floor is recovered exactly from the integer square root;
    no floating point is involved.  Equals the number of ``a`` letters in the
    prefix of length p - 1.
    """
    if p < 0:
        raise DomainError(f"floor_phi needs p >= 0, got {show_int(p)}")
    return (math.isqrt(5 * p * p) - p) // 2


def letter_at(n: int) -> str:
    """The letter at 1-based position n, without materializing the prefix.

    Uses the Beatty-difference characterization: the letter is ``a`` exactly
    when floor_phi(n+1) - floor_phi(n) == 1, i.e. when position n contributes
    an ``a`` to the running letter count.
    """
    if n < 1:
        raise DomainError(f"positions are 1-based, got {show_int(n)}")
    return LETTER_A if floor_phi(n + 1) - floor_phi(n) == 1 else LETTER_B


def _grow(buf: bytearray, cur: int, prev: int) -> bytearray:
    """Fill buf by the concatenation recursion of the morphism iterates.

    buf[:cur] must hold an iterate and buf[:prev] the one before it: the
    next iterate is the current one followed by a copy of its previous
    iterate, which is also its own prefix.
    """
    n = len(buf)
    while cur < n:
        take = min(prev, n - cur)
        buf[cur:cur + take] = buf[:take]
        cur, prev = cur + take, cur
    return buf


# Every prefix of up to fib(PREFIX_TABLE_M) = 17,711 letters is a slice of
# this one table, the PREFIX_TABLE_M-th iterate, built once at import.
PREFIX_TABLE_M = 20
_TABLE = _grow(bytearray(b"ab") + bytearray(fib(PREFIX_TABLE_M) - 2), 2, 1).decode("ascii")


def prefix(n: int, what: str = "prefix") -> str:
    """The prefix of length n as a string over {a, b}; prefix(0) is empty.

    Up to the table length it is a slice of the table; longer prefixes
    continue the doubling loop from the whole table.  Its cap check names the
    caller's request ``what``, so no caller checks again.
    """
    if n < 0:
        raise DomainError(f"prefix length must be >= 0, got {show_int(n)}")
    check_cap(n, what)
    if n <= len(_TABLE):
        return _TABLE[:n]
    buf = bytearray(n)
    buf[:len(_TABLE)] = _TABLE.encode("ascii")
    return _grow(buf, len(_TABLE), fib(PREFIX_TABLE_M - 1)).decode("ascii")


def check_floor_identities(p: int) -> dict[str, bool]:
    """Evaluate the four golden-floor identities at p >= 1.

    With q = floor_phi(p), the arguments p + q and 2p + q are the ending
    positions of the p-th ``a`` and the p-th ``b``; the identities say

    * at_a_end:      floor_phi(p + q)      == p - 1
    * at_b_end:      floor_phi(2p + q)     == p + q
    * after_a_end:   floor_phi(p + q + 1)  == p
    * after_b_end:   floor_phi(2p + q + 1) == p + q

    All four hold for every p >= 1; each is evaluated independently so a
    violation pinpoints the failing identity.
    """
    if p < 1:
        raise DomainError(f"check_floor_identities needs p >= 1, got {show_int(p)}")
    q = floor_phi(p)
    return {
        "at_a_end": floor_phi(p + q) == p - 1,
        "at_b_end": floor_phi(2 * p + q) == p + q,
        "after_a_end": floor_phi(p + q + 1) == p,
        "after_b_end": floor_phi(2 * p + q + 1) == p + q,
    }
