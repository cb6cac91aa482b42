"""Canonical coordinates and enumeration of palindromic factors.

Every palindrome occurring in the infinite word is a centered extension of
its kernel: with kernel index m there is a unique i in [1, fib(m+1)] such
that the palindrome equals

    S(m+1)[i+1 ..] + S(m) + S(m+1)[.. fib(m+1)-i]
    == S(m+3)[i+1 .. fib(m+3)-i]

where S(k) is the k-th singular word.  The pair (m, i) is the palindrome's
coordinate; its length is fib(m+3) - 2i.  Palindromes split into three
cylinders by kernel index mod 3, equivalently by length parity and middle
letter.
"""

from __future__ import annotations

from typing import NamedTuple

from . import fibword
from .errors import DomainError, show_int
from .fibword import fib, fib_floor_index
from .singular import kernel

CYLINDER_BY_MOD = {2: "a", 0: "b", 1: "aa"}


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


def validate_coord(c: PalCoord) -> int:
    """Raise DomainError unless i lies in [1, fib(m+1)]; return fib(m+1)."""
    if c.m < -1:
        raise DomainError(f"kernel index must be >= -1, got {show_int(c.m)}")
    top = fib(c.m + 1)
    if not 1 <= c.i <= top:
        raise DomainError(f"i must lie in [1, fib({c.m + 1})={show_int(top)}], got {show_int(c.i)}")
    return top


def cylinder_tag(c: PalCoord) -> str:
    """Cylinder of a palindrome: 'a' / 'b' (odd length, middle letter) or 'aa'."""
    if c.m < -1:
        raise DomainError(f"kernel index must be >= -1, got {show_int(c.m)}")
    return CYLINDER_BY_MOD[c.m % 3]


def pal_from_coord(c: PalCoord) -> str:
    """Materialize the palindrome with coordinate c, as one slice of the iterate.

    S(m+3) is the (m+3)-th iterate with its last letter moved to the front,
    so for i >= 1 the slice S(m+3)[i : fib(m+3)-i] is
    iterate(m+3)[i-1 : fib(m+3)-i-1]; the cap is charged fib(m+3) letters.
    ``verify_cylinder`` checks this form against the concatenation form.
    """
    validate_coord(c)
    n = fib(c.m + 3)
    return fibword.prefix(n, "palindrome construction")[c.i - 1:n - c.i - 1]


def coord_from_pal(w: str) -> PalCoord:
    """The unique coordinate of a palindromic factor w."""
    if not w:
        raise DomainError("the empty word has no coordinates")
    if w != w[::-1]:
        raise DomainError(f"{w[:40]!r} is not a palindrome")
    m = kernel(w).m  # raises NotAFactorError for non-factors
    num = fib(m + 3) - len(w)
    if num <= 0 or num % 2:
        raise DomainError(f"{w[:40]!r} has no valid coordinate")
    c = PalCoord(m, num // 2)
    validate_coord(c)
    return c


def pals_of_length(n: int) -> list[PalCoord]:
    """All palindrome coordinates of length n: two for odd n, one for even.

    A kernel index m realizes the lengths fib(m), fib(m)+2, ..., fib(m+3)-2,
    so with M the largest index fib(M) <= n only m = M-2, M-1, M can realize n.
    """
    if n < 1:
        raise DomainError("palindrome lengths start at 1; the empty word is excluded")
    out = []
    top = fib_floor_index(n)
    for m in range(max(-1, top - 2), top + 1):
        num = fib(m + 3) - n
        if num >= 2 and num % 2 == 0 and num // 2 <= fib(m + 1):
            out.append(PalCoord(m, num // 2))
    return out


def palindromic_conjugates(m: int) -> set[str]:
    """Palindromes among the rotations of the m-th morphism iterate.

    Empty exactly when m = 1 mod 3 (even iterate length), a singleton
    otherwise.  Rotation k of w reversed is rotation n - k of rev(w), so it
    is a palindrome only if rev(w) occurs in ww at some j = 2k - n (mod n):
    a linear substring search finds every such j, and the rotations that
    solve it are tested.
    """
    if m < -1:
        raise DomainError(f"iterate index must be >= -1, got {show_int(m)}")
    w = "b" if m == -1 else fibword.prefix(fib(m), "conjugate enumeration")  # iterate(-1) is b
    n, ww, rev = len(w), w + w, w[::-1]
    out = set()
    j = ww.find(rev)
    while 0 <= j < n:
        for k in (j // 2, (j + n) // 2):  # every solution of 2k = j (mod n) is one of these
            if (r := ww[k:k + n]) == r[::-1]:
                out.add(r)
        j = ww.find(rev, j + 1)
    return out


def prefix_palindrome_lengths(max_n: int) -> list[int]:
    """All n <= max_n whose length-n prefix is a palindrome: n = fib(m) - 2.
    The cap is charged first, ~0.05 top + 40 bytes per length: fib(m) takes ~0.09 m."""
    if max_n < 1:
        raise DomainError(f"need max_n >= 1, got {show_int(max_n)}")
    top = fib_floor_index(max_n + 2)  # refuses an index past FIB_INDEX_MAX
    fibword.check_cap(top, "prefix palindrome lengths", top // 20 + 40)
    out = []
    f, f_next = fib(2), fib(3)  # fib(2) - 2 = 1 is the first length
    for _ in range(top - 1):  # m = 2 .. top
        out.append(f - 2)
        f, f_next = f_next, f + f_next
    return out


def cylinder_table(rows: int) -> dict[str, list[tuple[str, bool]]]:
    """First ``rows`` palindromes per cylinder, each with its singular flag.

    Row r holds the length 2r-1 palindrome of the 'a' and 'b' cylinders and
    the length 2r palindrome of the 'aa' cylinder, so the table holds
    3 rows**2 + rows letters; that total is checked against the cap first.
    """
    if rows < 1:
        raise DomainError(f"need rows >= 1, got {show_int(rows)}")
    fibword.check_cap(3 * rows * rows + rows, "cylinder table")
    table: dict[str, list[tuple[str, bool]]] = {"a": [], "b": [], "aa": []}
    for r in range(1, rows + 1):
        for n in (2 * r - 1, 2 * r):
            for c in pals_of_length(n):
                table[cylinder_tag(c)].append((pal_from_coord(c), c.is_singular()))
    return table
