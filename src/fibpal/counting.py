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
floor_phi(a+1) being a's expansion one place down: for s >= W an estimate from
40 leading bits and one exact step at most find it, and x - H_s(a) < fib(s);
at s = 0, H_0(a) = a (fib(-1) = 1, fib(-2) = 0), so the last pattern is the x
left.  A chunk adds POP[a] = z(a) ones, so end_count(n) = m - sum POP[a], and
to 5 sum_{x<X} z(x) it adds fib(s-1) (T1[a] + s (2a - B) + 5 c a) + fib(s-2)
(T2[a] + s (3B - a) + 5 c B), c the ones above it (T1[a] + 5 c a at s = 0),
where over a's ones at local place j, rho ones above each,

    T1[a] = sum 5 rho fib(j) + (2j+2) fib(j) - (j+2) fib(j-1) = 5 sum_{y<a} POP[y],
    T2[a] = sum 5 rho fib(j-1) + (2j+2) fib(j-1) - (j+2) fib(j-2),

fib(-2) = 0.  As block_prefix_total(m+1) - m X + sum_{x<X} z(x),

    occurrence_count(n) = ((m-2) fib(m+3) + m fib(m+1) - 5 m X + sum of the chunk terms) / 5 + 2,

one division by 5, which checks the whole sum.  Each place s >= W is a tuple
(s, fib(s), fib(s-1), fib(s-2), shift, divisor), made once inside the Fibonacci
table as far up as counts need, and past it from a stepped pair and never held.
POP (bytes), B (array 'H', with B[fib(W)]) and T1, T2 (array 'i') hold one entry
per pattern, 10,946 at W = 19 in ~122 KiB, built by a process's first count.

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
# (2-vCPU Xeon VM, Python 3.11) but built its 17,711 patterns in 4.6-6 ms,
# against 2.9 ms for W = 19, and the build lands in a process's first count.
_PEEL_W = 19
_peel_tables = None  # (POP, B, T1, T2), built on the first count
_places = [None]  # _places[k] is place W k, k >= 1, built on demand inside the Fibonacci table
_peel_lock = threading.Lock()

# Bytes charged to the cap per unit held (tracemalloc peaks, m = 16..24, p = 1):
# ~25 per end_count_block entry, ~185 per expand_leaves leaf, ~790 per
# expand_cell leaf with its share of inner nodes and its reduction.  A leaf
# also holds 3 or 8 ints as wide as the cell's last position, ~1 byte per 7 bits.
_BLOCK_BYTES, _LEAF_BYTES, _NODE_BYTES = 32, 192, 832


def _div5(x: int) -> int:
    if x % 5:
        raise AssertionError(f"coefficient sum {x} is not divisible by 5")
    return x // 5


def _tables():
    """(POP, B, T1, T2) over the fib(_PEEL_W) patterns a, built on first use.

    By the block rule: a pattern whose top 1-digit is at place j is fib(j) + y,
    y < fib(j-1), so POP[a] = POP[y] + 1 and B[a] = B[y] + fib(j-1); the top one
    has rank 0 and each of y's ones one more than in y, which adds 5 B[y] to T2;
    T1 sums 5 POP[y] (at most 50, so a byte).  B holds one more entry, B[fib(W)] =
    fib(W-1).  The build runs once, under a lock, and publishes the four at once."""
    global _peel_tables
    if _peel_tables is None:
        with _peel_lock:
            if _peel_tables is None:
                pop, b, t2 = bytearray(1), array("H", [0]), array("i", [0])
                inc = bytes(range(1, 256)) + b"\0"  # bytes.translate adds 1 to each count
                for j in range(_PEEL_W):
                    k, h = fib(j - 1), fib(j - 2) if j else 0  # fib(-2) = 0
                    top2 = (2 * j + 2) * k - (j + 2) * h
                    pop += pop[:k].translate(inc)
                    t2.fromlist([t + 5 * v + top2 for t, v in zip(t2[:k], b[:k])])
                    b.fromlist([v + k for v in b[:k]])
                b.append(fib(_PEEL_W - 1))
                t1 = array("i", accumulate(pop[:-1].translate(bytes(5 * c % 256 for c in range(256))), initial=0))
                _peel_tables = bytes(pop), b, t1, t2
    return _peel_tables


def _place(fibs, s: int) -> tuple[int, int, int, int, int, int]:
    """Place s as _chunk takes it, from fibs: the Fibonacci table or a stepped pair."""
    f0, f1 = fibs[s + 1], fibs[s]
    f2 = fibs[s - 1] if s <= FIB_TABLE_MAX else f0 - f1  # share the table's int; past it, spare a stepped read
    sh = f1.bit_length() - 40 if f1 >= 1 << 40 else 0  # a shorter fib(s-1) gives the exact L_s
    return s, f0, f1, f2, sh, ((f1 >> sh) << 1) - (f2 >> sh)


def _places_down(top: int, fibs) -> Iterator[tuple]:
    """Places W top, ..., 2W, W: past the Fibonacci table made one at a time, inside it from _places."""
    with _peel_lock:
        _places.extend(_place(fibs, _PEEL_W * k) for k in range(len(_places), min(top, FIB_TABLE_MAX // _PEEL_W) + 1))
    for s in range(_PEEL_W * top, FIB_TABLE_MAX, -_PEEL_W):
        yield _place(fibs, s)
    yield from _places[top:0:-1]


def _chunk(x: int, place: tuple, b) -> tuple[int, int, int]:
    """(a, B(a), x - H_s(a)) for x < fib(s + W) and place = (s, fib(s), fib(s-1),
    fib(s-2), shift, divisor), s a positive multiple of W: a is x's pattern at places s ..
    s+W-1.  With g = (1 + sqrt 5)/2 and L_s = 2 fib(s-1) - fib(s-2), H_s(a) / L_s =
    a + (1/g - frac((a+1)/g)) / sqrt 5 + e, |e| < 2e-4 at s = 19, < 2e-12 from 38 on,
    so the estimate floor(x / L_s) undershoots a only if frac((a+1)/g) > 1/g: then
    frac(a/g) + 1/g < 1, B(a) = B(a-1), and H_s(a) - H_s(a-1) is fib(s-1), not fib(s)
    as where B rises.  A test finds it one step at most from a at s = 19 .. 190,
    4,997 and 5,016; past s = 38 its error, < 3e-8 with the 40-bit cut, is below the
    least |1/g - frac((a+1)/g)| / sqrt 5, 1.8e-5 for 0 < a <= fib(W): so at every s."""
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


def _walk(n: int) -> tuple[int, int]:
    """(occurrence_count(n), block index m of n), for n >= 1.

    The count is block_prefix_total(m+1) less the end counts past n, m X -
    sum_{x<X} z(x): 5 times it is (m-2) fib(m+2) + 2 (m-1) fib(m+1) - 5 m X plus
    each chunk's part of 5 sum_{x<X} z(x), and the chunk at place 0, pattern x,
    adds T1[x] + 5 c x."""
    m = fib_floor_index(n + 1)  # the block: fib(m) - 1 <= n <= fib(m+1) - 2
    fibs = fibword.fibs_through(m + 2)  # fibs[k + 1] is fib(k): the table, or a stepped pair past it
    pop, b, t1, t2 = _peel_tables or _tables()
    # read fib(m+2) first: a stepped pair moves down from there
    total = (m - 2) * fibs[m + 3]
    x = fibs[m + 2]
    total += 2 * (m - 1) * x
    x -= n + 2  # X, the distance to the block's end
    total -= 5 * m * x
    c5 = 0  # 5 times the ones peeled so far
    top = (m - 2) // _PEEL_W  # the chunks above place 0
    for place in _places[top:0:-1] if top < len(_places) else _places_down(top, fibs):
        s, _, f1, f2, _, _ = place
        a, ba, x = _chunk(x, place, b)
        k = 2 * s + c5
        total += f1 * (t1[a] + k * a - s * ba) + f2 * (t2[a] + (k + s) * ba - s * a)
        c5 += 5 * pop[a]
    return _div5(total + t1[x] + c5 * x) + 2, m


def end_count(n: int) -> int:
    """Number of palindrome occurrences ending exactly at position n: m less the
    1-digits of X, the distance from n to the end of its block m."""
    if n < 1:
        raise DomainError(f"positions are 1-based, got {show_int(n)}")
    m = fib_floor_index(n + 1)  # the block: fib(m) - 1 <= n <= fib(m+1) - 2
    fibs = fibword.fibs_through(m + 1)  # fibs[k + 1] is fib(k)
    pop, b, _, _ = _peel_tables or _tables()
    x = fibs[m + 2] - 2 - n
    top = (m - 2) // _PEEL_W  # the chunks above place 0
    for place in _places[top:0:-1] if top < len(_places) else _places_down(top, fibs):
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
    total, m = _walk(n)
    return total - block_prefix_total(m) if m > 1 else total  # block 1 is position 1, with nothing before it


def block_prefix_total(m: int) -> int:
    """Closed form of occurrence_count(fib(m) - 2), the total before block m."""
    if m < 2:
        raise DomainError(f"defined for m >= 2, got {show_int(m)}")
    return _div5((m - 3) * fib(m + 2) + (m - 1) * fib(m)) + 2


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
    digits, peeled 19 at a time, in exact integer arithmetic with no memo and
    no prefix materialization.
    """
    if n < 0:
        raise DomainError(f"prefix lengths are >= 0, got {show_int(n)}")
    return _walk(n)[0] if n else 0


def occurrence_count_trace(n: int) -> tuple[int, dict]:
    """occurrence_count(n) plus the walk taken, by its own exact walk on the hop
    rule: each step adds its part as one big int, and its value is tail_sum of its n."""
    if n < 0:
        raise DomainError(f"prefix lengths are >= 0, got {show_int(n)}")
    if n <= 3:
        return occurrence_count(n), {"base_table": True, "value": occurrence_count(n)}
    m0 = m = fib_floor_index(n + 1)
    fibs = fibword.fibs_through(m0)  # fibs[k + 1] is fib(k)
    r = n - fibs[m + 1] + 1
    walked = []  # (m, n, case, part): part is what the step adds to the tail
    while m > 3:
        f, g = fibs[m + 1], fibs[m - 2]  # fib(m), fib(m-3)
        if r < g:
            walked.append((m, r + f - 1, "copy", r + 1))
            m -= 2
        else:  # the head is block m-2: block_sum(m-2) = ((m-1) fib(m-1) + (m-4) fib(m-3)) / 5
            walked.append((m, r + f - 1, "head+tail", r + 1 + _div5((m - 1) * fibs[m] + (m - 4) * g)))
            r -= g
            m -= 1
    base = fibs[m + 1] - 2  # _END_BASE index of the block's first position
    walked.append((m, base + r + 1, "table", sum(_END_BASE[base:base + r + 1])))
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
