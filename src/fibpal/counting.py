"""Occurrence counting: per-position and cumulative palindrome counts.

``end_count(n)`` is the number of palindrome occurrences ending exactly at
position n; ``occurrence_count(n)`` is its running sum, the number of
palindrome occurrences (with repetition) inside the length-n prefix.

Blocks and recursion
--------------------
Written as blocks over the position ranges [fib(m)-1, fib(m+1)-2], the
end-count sequence obeys, for m >= 3,

    block(m) = (block(m-2) ++ block(m-1)) + 1   (pointwise, ++ = concat)

with base blocks [1] and [1, 2].  The two source blocks cover the contiguous
range [fib(m-2)-1, fib(m)-2], which sits exactly fib(m-1) positions below
block(m), so the per-index form is the single-branch

    end_count(n) = end_count(n - fib(m-1)) + 1

for every n in block m, after which n lies in block m-1 or m-2.  On the block
offset r = n - fib(m) + 1, a hop keeps r into block m-2 if r < fib(m-3), else
subtracts fib(m-3) into block m-1, and the walk ends in a base table.  The
cumulative count is a closed form at the block boundary, block_prefix_total(m)
= ((m-3) fib(m+2) + (m-1) fib(m)) / 5 + 2, plus a tail sum: r + 1 per hop, the
base table, and per "head+tail" hop the block m-2 it copies as its head,
block_sum(m-2) = ((m-1) fib(m-1) + (m-4) fib(m-3)) / 5.  occurrence_count_trace
takes that walk hop by hop, each head divided by 5 as it is added; end_count
and occurrence_count read the same walk off n's Zeckendorf digits, below.
Agreement with the block form and the tree oracle is enforced by the tests.

Zeckendorf digits and the peel
------------------------------
Measured from the end of its block, n is X = fib(m+1) - 2 - n < fib(m-1),
and the walk is X's greedy Zeckendorf expansion over fib(0) = 1, fib(1) = 2,
...: at block m a hop reads the digit at place m-2, a 1 when r < fib(m-3)
(X >= fib(m-2): X -= fib(m-2), down two blocks), else a 0 (down one).  So
the hops over m - m' blocks are m - m' less the ones met, the base table
gives 3 less the ones at places 0 .. 2, and with z(X) the number of 1-digits

    end_count(n) = m - z(X),   tail_sum(n) = block_sum(m) - m X + sum_{x<X} z(x),

as 5 sum_{x<fib(k)} z(x) = (2k+2) fib(k) - (k+2) fib(k-1): the x < X that
leave X at one of its ones, at place p with c ones above it, and go on
freely below add 5 c fib(p) plus that at k = p.

The counts peel X W = _PEEL_W digits at a time, in chunks at places s .. s+W-1
with s a multiple of W, from s = W floor((m-2)/W), whose pattern may be
partial, down to s = 0.  For x < fib(s+W), the pattern a of x's digits there
is the largest a with H_s(a) = fib(s-1) a + fib(s-2) B(a) <= x, B(a) =
floor_phi(a+1) being a's expansion one place down: for s >= W an estimate and
one exact step at most find it, and x - H_s(a) < fib(s); at s = 0, H_0(a) = a
(fib(-1) = 1, fib(-2) = 0), so the last pattern is the x left.  A chunk adds
POP[a] = z(a) ones, so end_count(n) = m - sum POP[a], and to 5 sum_{x<X} z(x)
it adds fib(s-1) (T1[a] + s (2a - B) + 5 c a) + fib(s-2) (T1[B] + (s+1) (3B -
a) + 5 c B), c the ones above it (T1[a] + 5 c a at s = 0), where over a's ones
at local place j, rho ones above each,

    T1[a] = sum 5 rho fib(j) + (2j+2) fib(j) - (j+2) fib(j-1) = 5 sum_{y<a} POP[y],
    T1[B] + 3B - a = sum 5 rho fib(j-1) + (2j+2) fib(j-1) - (j+2) fib(j-2),

fib(-2) = 0: a's ones one place down sum to B, T1's sum holds over any expansion
whose ones but the lowest are apart, and each term is T1's at j-1 plus 3 fib(j-1) -
fib(j).  As block_prefix_total(m+1) - m X + sum_{x<X} z(x),

    occurrence_count(n) = ((m-2) fib(m+3) + m fib(m+1) - 5 m X + sum of the chunk terms) / 5 + 2,

one division by 5, which checks the whole sum.

From s = 3W on, at odd s/W, one big-int step peels places s .. s+2W-1 as one pattern a <
fib(2W), at the top place too (there x < fib(s+W)): _chunk's estimate on a 72-bit cut, one
exact step, B(a) = (a+1) R >> 64 with R = floor(2**64 / g), and _chunk's estimate and step at
place W, written out with that place's fields as module constants, to split a into hi and lo.
B is exact, equal to floor_phi(a+1) for every a <= fib(2W), as a test checks; one step
suffices, as the least |1/g - frac((a+1)/g)| / sqrt 5 for 0 < a < fib(2W), 3.2e-9 at
a = fib(2W-1), exceeds the cut's error, < 1e-13, and _chunk's e, 1.5e-16 at s = 57 (1.3e-8 at
s = 38, so places W and 2W stay single).  The step adds fib(s-1) (P[hi] + T1[lo] + c lo + k a
- s B) + fib(s-2) (P2[hi] + T1[b] + (c+3) b - lo + (k+s) B - s a), B = B(a), b = B(lo), c =
5 POP[hi], k = 2s + 5 (ones above), P[hi] being hi's chunk term at place W, P2[hi] that term
one place down.  A count's steps are a slice of one ladder, the steps at places W, 2W, 3W, 5W,
7W, ... inside the Fibonacci table; past it its wide steps come from (fib(m), fib(m-1)), moved
down to the top one's place by the recurrence, then 2W places at a time by one Cassini step.
POP (bytes), B ('H', with B[fib(W)]) and T1 ('i'), 10,946 entries in ~78 KiB, are built by a
process's first count, P and P2 ('q', ~171 KiB) when the ladder first reaches 3W.

occurrence_count's wide steps above place _CARRIED hold their two terms rather than multiply
them by (fib(s-1), fib(s-2)).  Wide steps are 2W places apart, and fib(j + t) = fib(t-1) fib(j)
+ fib(t-2) fib(j-1), so a held u fib(s-1) + v fib(s-2) is (C0 u + C1 v) fib(s'-1) + (C1 u + C2 v)
fib(s'-2) at the next wide place s' = s - 2W, C0, C1, C2 = fib(2W-1), fib(2W-2), fib(2W-3): the
next step adds those to its own terms.  The fourth step held, and every step from _CARRIED down,
where a pair of products costs less than the carry, adds its terms to the total at its own pair;
the last wide step, at 3W, is one, so nothing is held past it.  u and v stay small ints (under
125 bits up to the index limit), and a count at 1e1000 makes ~70 pairs of small x big products
for its ~125 wide steps.

Interval splitting
------------------
With q = floor_phi(p), the p-th letters a and b end at end_a(p) = p + q
and end_b(p) = 2p + q.  For m >= 1 the interval of p-th-occurrence ending
positions for kernel index m splits exactly into those of two child cells,

    cell(m, p) = cell(m-2, end_b(p) + 1)  |_|  cell(m-1, end_a(p) + 1)

and the m = 0 cell reduces to its maximum, cell(-1, end_a(p) + 1); expanding
down to kernel indices {-1, 0} tiles every cell.  The children's floors are
p + q and p (the identities after_b_end and after_a_end), so one split rule
carries (m, p, q, lo), lo the first position, with no floor_phi below the root.
The children start at lo and lo + fib(m-1), so they tile the cell by
construction; verify_tau checks the rule against the closed forms.
"""

from __future__ import annotations

import struct
import sys
import threading
from array import array
from itertools import accumulate
from typing import Iterator, NamedTuple

from . import fibword
from .chain import ChainInterval, chain_interval, singular_end_pos
from .errors import DomainError, show_int
from .fibword import FIB_TABLE_MAX, check_cap, fib, fib_floor_index, floor_phi

# end_count(1) .. end_count(6); the trace's walk bottoms out here.
_END_BASE = (1, 1, 2, 2, 2, 3)

# The counts peel _PEEL_W digits per chunk.  W = 20 ran 3-5% faster at 10**1000
# (2-vCPU Xeon VM, Python 3.11, before the wide steps) but builds its 17,711 patterns in 2.2-3.5 ms,
# against 1.4 ms for W = 19, and the build lands in a process's first count.
_PEEL_W = 19
_peel_tables = None  # (POP, B, T1), built on the first count
_wide_tables = None  # (P, P2), built when _ladder first reaches place 3W
_ladder = []  # the steps at places W, 2W, 3W, 5W, 7W, ... inside the Fibonacci table, built on demand
_runs = {}  # top -> _ladder's steps for a count whose top place is W top, inside the Fibonacci table
_peel_lock = threading.Lock()
_R = fibword._PHI >> 4032  # floor(2**64 / g): B(a) = (a + 1) _R >> 64 for a <= fib(2W)
_W2 = 2 * _PEEL_W  # a count's steps above place 2W are wide
_F0, _F1 = fibword._fib_pair(_PEEL_W)  # place W's fib(W), fib(W-1), fib(W-2) and L_W split each wide pattern
_F2, _LW = _F0 - _F1, 3 * _F1 - _F0
_C0, _C1 = fibword._fib_pair(2 * _PEEL_W - 1)  # fib(2W-1), fib(2W-2), fib(2W-3) carry a held sum 2W places down
_C2 = _C0 - _C1
# Wide steps above this place hold their terms.  Below it the carry's small-int work costs more than the
# products it saves (crossover ~1,500-3,000 on a 2-vCPU VM, Python 3.11); it must exceed 3W.
_CARRIED = 2000

# Bytes charged to the cap per unit held (tracemalloc peaks, m = 16..24, p = 1):
# ~25 per end_count_block entry, ~185 per expand_leaves leaf, ~790 per
# expand_cell leaf with its share of inner nodes and its reduction.  A leaf
# also holds 3 or 8 ints as wide as the cell's last position, ~1 byte per 7 bits.
# A trace step holds ~280 and ints ~1.1 times as wide as n (n = 10**e + 12345, e = 100 .. 4000).
_BLOCK_BYTES, _LEAF_BYTES, _NODE_BYTES, _STEP_BYTES = 32, 192, 832, 320


def _div5(x: int) -> int:
    if x % 5:
        raise AssertionError(f"{show_int(x)} is not divisible by 5")
    return x // 5


def _tables():
    """(POP, B, T1) over the fib(_PEEL_W) patterns a, built on first use.

    By the block rule: a pattern whose top 1-digit is at place j is fib(j) + y,
    y < fib(j-1), so POP[a] = POP[y] + 1 and B[a] = B[y] + fib(j-1); T1 sums 5 POP
    (at most 50, so a byte) below a.  B holds one more entry, B[fib(W)] = fib(W-1).
    The build runs once, under a lock, and publishes the three at once."""
    global _peel_tables
    if _peel_tables is None:
        with _peel_lock:
            if _peel_tables is None:
                pop, b = bytearray(1), array("H", [0])
                inc = bytes(range(1, 256)) + b"\0"  # bytes.translate adds 1 to each count
                for j in range(_PEEL_W):
                    k = fib(j - 1)
                    pop += pop[:k].translate(inc)
                    b.fromlist([v + k for v in b[:k]])
                b.append(fib(_PEEL_W - 1))
                t1 = array("i", accumulate(pop[:-1].translate(bytes(5 * c % 256 for c in range(256))), initial=0))
                _peel_tables = bytes(pop), b, t1
    return _peel_tables


def _place(s: int, f0: int, f1: int, f2: int) -> tuple:
    """Place s as the counts take it, from f0, f1, f2 = fib(s), fib(s-1), fib(s-2)."""
    sh = max(f1.bit_length() - 72, 0)  # a 72-bit cut, or the exact L_s at W and 2W
    return s, f0, f1, f2, sh, ((f1 >> sh) << 1) - (f2 >> sh)


def _steps(top: int, m: int, f0: int, f1: int):
    """The steps of a count in block m whose top place is W top, highest first: a wide one at each odd
    j >= 3 up to top, for places W j and W (j+1), then places 2W and W.  Inside the Fibonacci table they
    are a slice of _ladder, kept in _runs; past it the wide ones come from f0, f1 = fib(m), fib(m-1),
    then the whole ladder.  As the ladder first reaches place 3W, P and P2 are built on columns read
    as ints of 64-bit lanes, each result in [0, 2**33)."""
    global _wide_tables
    w = _PEEL_W
    t = min(top, FIB_TABLE_MAX // w)
    k = min(t, (t + 3) // 2)  # the ladder's steps up to place W t
    if len(_ladder) < k:
        fibs, (_, b, t1) = fibword.fibs_through(w * t), _peel_tables or _tables()  # fibs[k + 1] is fib(k)
        with _peel_lock:
            for i in range(len(_ladder), k):
                if i == 2:  # place 3W, the first wide step: P and P2 first, with the lock already held
                    tables, n, order = (array("q"), array("q")), len(t1), sys.byteorder
                    for lo in range(0, n, 1024):  # in blocks, so that the build holds little beyond the tables
                        hi = min(lo + 1024, n)
                        ta, tb, a, bv = (int.from_bytes(struct.pack(f"={hi - lo}q", *v), order)
                                         for v in (t1[lo:hi], [t1[v] for v in b[lo:hi]], range(lo, hi), b[lo:hi]))
                        e1, e2 = ta + w * (2 * a - bv), tb + (3 * w + 3) * bv - (w + 1) * a
                        for table, (g1, g2) in zip(tables, (fibs[w:w - 2:-1], fibs[w - 1:w - 3:-1])):
                            table.frombytes((g1 * e1 + g2 * e2).to_bytes(8 * (hi - lo), order))
                    _wide_tables = tables
                s = w * max(i + 1, 2 * i - 1)
                _ladder.append(_place(s, fibs[s + 1], fibs[s], fibs[s - 1]))
    steps = _ladder[k - 1::-1] if k else []
    if t < top:
        return _down(top, m, f0, f1, steps)
    _runs[top] = steps
    return steps


def _down(top: int, m: int, f0: int, f1: int, ladder: list) -> Iterator[tuple]:
    """Past the Fibonacci table, the wide steps of a count in block m from f0, f1 = fib(m), fib(m-1),
    moved down to the top one's place by the recurrence, then 2W places at a time; then the ladder."""
    w, fibs = _PEEL_W, fibword.fibs_through(2 * _PEEL_W)
    for _ in range(m - w * (top - 1 | 1)):  # 2 .. 39 steps down to the top wide step's (fib(s), fib(s-1))
        f0, f1 = f1, f0 - f1
    for s in range(w * (top - 1 | 1), FIB_TABLE_MAX, -2 * w):
        yield _place(s, f0, f1, f0 - f1)
        # by Cassini, fib(s-2W) = fib(2W-3) fib(s) - fib(2W-2) fib(s-1)
        # and fib(s-2W-1) = fib(2W-1) fib(s-1) - fib(2W-2) fib(s)
        f0, f1 = fibs[2 * w - 2] * f0 - fibs[2 * w - 1] * f1, fibs[2 * w] * f1 - fibs[2 * w - 1] * f0
    yield from ladder


def _chunk(x: int, place: tuple, b) -> tuple[int, int, int]:
    """(a, B(a), x - H_s(a)) for x < fib(s + W) and place = (s, fib(s), fib(s-1), fib(s-2),
    shift, divisor), s = W or 2W: a is x's pattern at places s .. s+W-1.  With g = (1 + sqrt 5)/2
    and L_s = 2 fib(s-1) - fib(s-2), the divisor, H_s(a) / L_s = a + (1/g - frac((a+1)/g)) / sqrt 5
    + e, |e| < 2e-4 at s = 19, < 2e-12 at 38, so the estimate floor(x / L_s) undershoots a only if
    frac((a+1)/g) > 1/g: then frac(a/g) + 1/g < 1, B(a) = B(a-1), and H_s(a) - H_s(a-1) is
    fib(s-1), not fib(s) as where B rises.  A test finds it one step at most from a at both ends
    of every pattern's range, at both places."""
    _, f0, f1, f2, sh, d = place
    a = (x >> sh) // d
    ba = b[a]
    x -= f1 * a + f2 * ba
    if x < 0:  # H_s(a) > x: down one pattern; B is flat there only from a = fib(W)
        a -= 1
        x += f0 if b[a] < ba else f1
        ba = b[a]
    elif x >= f1 and b[a + 1] == ba:  # H_s(a+1) = H_s(a) + fib(s-1) <= x: up one pattern
        x -= f1
        a += 1
    return a, ba, x


def end_count(n: int) -> int:
    """Number of palindrome occurrences ending exactly at position n: m less the
    1-digits of X, the distance from n to the end of its block m."""
    if n < 1:
        raise DomainError(f"positions are 1-based, got {show_int(n)}")
    m = fib_floor_index(n + 1)  # the block: fib(m) - 1 <= n <= fib(m+1) - 2
    fibs = fibword.fibs_through(m + 1)  # fibs[k + 1] is fib(k)
    pop, b, _ = _peel_tables or _tables()
    x = fibs[m + 2] - 2 - n
    top = (m - 2) // _PEEL_W  # the chunks above place 0
    for place in _runs[top] if top in _runs else _steps(top, m, fibs[m + 1], fibs[m]):
        s, f0, f1, f2, sh, d = place
        if s > _W2:  # a wide step: _chunk's estimate and step, then _chunk's split at place W, inline
            ba = ((a := (x >> sh) // d) + 1) * _R >> 64  # a estimated, B(a) by _R
            x -= f1 * a + f2 * ba
            if x < 0 or x >= f1 and (a + 2) * _R >> 64 == ba:  # down one pattern, or up one where B is flat
                e = 1 if x > 0 else -1
                a, bb = a + e, (a + e + 1) * _R >> 64
                x, ba = x - e * (f1 if bb == ba else f0), bb
            lo = a - _F1 * (hi := a // _LW) - _F2 * (bh := b[hi])
            if lo < 0:
                hi -= 1
                lo += _F0 if b[hi] < bh else _F1
            elif lo >= _F1 and b[hi + 1] == bh:
                hi, lo = hi + 1, lo - _F1
            m -= pop[hi] + pop[lo]
        else:
            a, _, x = _chunk(x, place, b)
            m -= pop[a]
    return m - pop[x]


def end_count_block(m: int) -> list[int]:
    """The end counts over positions fib(m)-1 .. fib(m+1)-2, for m >= 3."""
    if m < 3:
        raise DomainError(f"blocks start at index 3, got {show_int(m)}")
    check_cap(fib(m - 1), "end-count block", _BLOCK_BYTES)
    prev, block = [1], [1, 2]  # blocks 1 and 2
    for _ in range(3, m + 1):
        prev, block = block, [x + 1 for x in prev + block]
    return block


def tail_sum(n: int) -> int:
    """Sum of end_count over the containing block's start through n.

    With m the block index of n, this is sum(end_count(i) for i in
    [fib(m)-1, n]).
    """
    if n < 1:
        raise DomainError(f"positions are 1-based, got {show_int(n)}")
    m = fib_floor_index(n + 1)
    return occurrence_count(n) - (block_prefix_total(m) if m > 1 else 0)  # block 1 is position 1, with nothing before it


def block_prefix_total(m: int) -> int:
    """Closed form of occurrence_count(fib(m) - 2), the total before block m."""
    if m < 2:
        raise DomainError(f"defined for m >= 2, got {show_int(m)}")
    fibs = fibword.fibs_through(m + 2)  # fibs[k + 1] is fib(k)
    return _div5((m - 3) * fibs[m + 3] + (m - 1) * fibs[m + 1]) + 2


def fib_prefix_total(m: int) -> int:
    """Closed form of occurrence_count(fib(m)), for m >= 2."""
    return block_prefix_total(m) + m + 1  # plus end_count at fib(m) - 1 and fib(m)


def block_sum(m: int) -> int:
    """Closed form of the sum of block m's end counts, for m >= 1.

    Also satisfies block_sum(m) = block_sum(m-1) + block_sum(m-2) + fib(m-1).
    """
    if m < 1:
        raise DomainError(f"defined for m >= 1, got {show_int(m)}")
    return _div5((m + 1) * fib(m + 1) + (m - 2) * fib(m - 1))


def end_count_near_fib(m: int) -> tuple[int, int, int]:
    """Closed forms of end_count at fib(m)-2, fib(m)-1 and fib(m), m >= 2.

    The last two sum to m + 1.
    """
    if m < 2:
        raise DomainError(f"defined for m >= 2, got {show_int(m)}")
    return (m - 1, (m + 1) // 2, (m + 2) // 2)


def occurrence_count(n: int) -> int:
    """Number of palindrome occurrences (with repetition) in the length-n prefix.

    occurrence_count(0) is 0 by convention.  O(log n) steps: n's Zeckendorf
    digits, peeled 38 or 19 at a time, in exact integer arithmetic with no memo and
    no prefix materialization.  The sum is the module docstring's, its
    (m-2) fib(m+3) + m fib(m+1) read as (m-2) fib(m+2) + 2 (m-1) fib(m+1).
    """
    if n < 0:
        raise DomainError(f"prefix lengths are >= 0, got {show_int(n)}")
    if not n:
        return 0
    m = fib_floor_index(n + 1)  # the block: fib(m) - 1 <= n <= fib(m+1) - 2
    fibs = fibword.fibs_through(m + 2)  # fibs[k + 1] is fib(k)
    pop, b, t1 = _peel_tables or _tables()
    x = fibs[m + 2]
    total = (m - 2) * fibs[m + 3] + 2 * (m - 1) * x
    x -= n + 2  # X, the distance to the block's end
    total -= 5 * m * x
    c5 = i = 0  # 5 times the ones peeled so far; the wide steps whose terms are held
    top = (m - 2) // _PEEL_W  # the chunks above place 0
    for place in _runs[top] if top in _runs else _steps(top, m, fibs[m + 1], fibs[m]):
        s, f0, f1, f2, sh, d = place
        if s > _W2:  # a wide step, as end_count's
            ba = ((a := (x >> sh) // d) + 1) * _R >> 64
            x -= f1 * a + f2 * ba
            if x < 0 or x >= f1 and (a + 2) * _R >> 64 == ba:
                e = 1 if x > 0 else -1
                a, bb = a + e, (a + e + 1) * _R >> 64
                x, ba = x - e * (f1 if bb == ba else f0), bb
            lo = a - _F1 * (hi := a // _LW) - _F2 * (bh := b[hi])
            if lo < 0:
                hi -= 1
                lo += _F0 if b[hi] < bh else _F1
            elif lo >= _F1 and b[hi + 1] == bh:
                hi, lo = hi + 1, lo - _F1
            p1, p2 = _wide_tables
            c, bl, k = 5 * pop[hi], b[lo], 2 * s + c5
            e1 = p1[hi] + t1[lo] + c * lo + k * a - s * ba
            e2 = p2[hi] + t1[bl] + (c + 3) * bl - lo + (k + s) * ba - s * a
            c5 += c + 5 * pop[lo]
            if i:  # the held u fib(s+2W-1) + v fib(s+2W-2), carried down to this place
                e1, e2 = _C0 * u + _C1 * v + e1, _C1 * u + _C2 * v + e2
            if s > _CARRIED and i < 3:
                u, v, i = e1, e2, i + 1
            else:  # the fourth step in a row above _CARRIED, and every step from it down, meets its pair
                total += f1 * e1 + f2 * e2
                i = 0
        else:
            a, ba, x = _chunk(x, place, b)
            k = 2 * s + c5
            total += f1 * (t1[a] + k * a - s * ba) + f2 * (t1[ba] + (k + s + 3) * ba - (s + 1) * a)
            c5 += 5 * pop[a]
    return _div5(total + t1[x] + c5 * x) + 2


def occurrence_count_trace(n: int) -> tuple[int, dict]:
    """occurrence_count(n) plus the walk taken, by its own exact walk on the hop
    rule: each step adds its part as one big int, and its value is tail_sum of its n."""
    if n < 0:
        raise DomainError(f"prefix lengths are >= 0, got {show_int(n)}")
    if n <= 3:
        value = occurrence_count(n)
        return value, {"base_table": True, "value": value}
    m0 = m = fib_floor_index(n + 1)
    check_cap(m, "count trace", _STEP_BYTES + 2 * (n.bit_length() // 8))  # m steps, two ints of n's width each
    fibs = fibword.fibs_through(m0)  # fibs[k + 1] is fib(k)
    f1, f2 = fibs[m], fibs[m - 1]  # fib(m-1), fib(m-2), moved down with m
    r1 = n - fibs[m + 1] + 2  # r + 1, r the offset in block m
    walked = []  # (m, n, case, part): part is what the step adds to the tail
    while m > 3:  # each hop moves n down by fib(m-1)
        g = f1 - f2  # fib(m-3)
        if r1 <= g:
            walked.append((m, n, "copy", r1))
            n, f1, f2, m = n - f1, g, f2 - g, m - 2
        else:  # the head is block m-2: block_sum(m-2) = ((m-1) fib(m-1) + (m-4) fib(m-3)) / 5
            walked.append((m, n, "head+tail", r1 + _div5((m - 1) * f1 + (m - 4) * g)))
            r1 -= g
            n, f1, f2, m = n - f1, f2, g, m - 1
    walked.append((m, n, "table", sum(_END_BASE[f1 + f2 - 2:n])))  # the block starts at _END_BASE index fib(m) - 2
    values = list(accumulate(part for *_, part in reversed(walked)))[::-1]  # tail_sum at each step's n
    steps = [{"n": k, "m": mk, "case": case, "value": v} for (mk, k, case, _), v in zip(walked, values)]
    before = block_prefix_total(m0)
    return before + values[0], {"m": m0, "before_block": before, "tail": values[0], "tail_steps": steps}


def convolution_identity_holds(m: int) -> bool:
    """Check sum(fib(i) * fib(m-i-1), i = -1..m) against its closed form."""
    if m < 1:
        raise DomainError(f"defined for m >= 1, got {show_int(m)}")
    lhs, lo, lo_next, hi, hi_prev = 0, 1, 1, fib(m), fib(m - 1)
    for _ in range(m + 2):  # lo = fib(i) and hi = fib(m-i-1), stepped as pairs
        lhs += lo * hi
        lo, lo_next = lo_next, lo + lo_next
        hi, hi_prev = hi_prev, hi - hi_prev
    return lhs == _div5((m + 2) * fib(m + 2) + (m + 4) * fib(m))


class CellSplit(NamedTuple):
    """One splitting step: a cell and the two child cells tiling it."""

    parent: ChainInterval
    left: ChainInterval
    right: ChainInterval


def _split(m: int, p: int, q: int, lo: int) -> tuple[tuple, tuple]:
    """The children of the carried cell (m, p, q = floor_phi(p), lo); at m = 0 the right one is its reduction."""
    return (m - 2, 2 * p + q + 1, p + q, lo), (m - 1, p + q + 1, p, lo + fib(m - 1))


def _interval(m: int, p: int, q: int, lo: int) -> ChainInterval:
    return tuple.__new__(ChainInterval, (m, p, lo, lo + fib(m + 1) - 1))


def split_cell(m: int, p: int) -> CellSplit:
    """Split cell (m, p), m >= 1, into the two children that tile it."""
    if m < 1:
        raise DomainError(f"splitting needs kernel index >= 1, got {show_int(m)} (index 0 reduces)")
    parent = chain_interval(m, p)
    return CellSplit(parent, *(_interval(*child) for child in _split(m, p, floor_phi(p), parent.lo)))


def reduce_cell(p: int) -> ChainInterval:
    """Reduce cell (0, p) to the singleton cell (-1, end_a(p) + 1) holding its maximum."""
    lo = singular_end_pos(0, p)  # checks p
    return _interval(*_split(0, p, floor_phi(p), lo)[1])


def expand_cell(m: int, p: int, depth: int | None = None, include_reduce: bool = False) -> dict:
    """Expand cell (m, p) into its splitting tree.

    Cells with kernel index >= 1 split; indices -1 and 0 are leaves (with the
    optional singleton reduction attached to index-0 leaves).  ``depth``
    limits the number of splitting levels; None expands to the leaves.  The
    leaf count, at most min(2**depth, fib(m)), is charged to the cap once, at
    the bytes a leaf holds: no subtree has more leaves than the whole tree.
    """
    if depth is not None and depth < 0:
        raise DomainError(f"expansion depth must be >= 0, or None (CLI: -1) for the leaves, got {show_int(depth)}")

    def expand(cell: tuple, depth: int) -> dict:
        node = _interval(*cell)._asdict()  # m, p, lo, hi
        if cell[0] >= 1 and depth > 0:
            node["children"] = [expand(child, depth - 1) for child in _split(*cell)]
        elif cell[0] == 0 and include_reduce:
            node["reduces_to"] = _interval(*_split(*cell)[1])._asdict()
        return node

    root = chain_interval(m, p)
    depth = m if depth is None else min(depth, m)  # every split lowers the kernel index, so depth m expands fully
    if depth > 0:  # so m >= 1
        check_cap(min(2**depth, fib(m)), "cell expansion", _NODE_BYTES + 8 * (root.hi.bit_length() // 7))
    return expand((m, p, floor_phi(p), root.lo), depth)


def expand_leaves(m: int, p: int) -> list[ChainInterval]:
    """Leaf cells (kernel index in {-1, 0}) tiling cell (m, p), in order.

    There are exactly fib(m) of them, charged to the cap once, at the bytes a
    leaf holds.
    """
    root = chain_interval(m, p)
    if m >= 1:
        check_cap(fib(m), "cell expansion", _LEAF_BYTES + 3 * (root.hi.bit_length() // 7))
    out, todo = [], [(m, p, floor_phi(p), root.lo)]
    while todo:
        cell = todo.pop()
        if cell[0] <= 0:
            out.append(_interval(*cell))
        else:
            todo += _split(*cell)[::-1]  # the left child comes out first
    return out
