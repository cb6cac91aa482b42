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

for every n in block m, after which n lies in block m-1 or m-2.  The counts
come from an iterative O(log n) walk with no memo, on the block offset
r = n - fib(m) + 1: a hop keeps r into block m-2 if r < fib(m-3), else
subtracts fib(m-3) into block m-1 (the greedy Zeckendorf digits of r), so it
costs one big-int comparison and at most one big-int subtraction.  end_count
is that walk alone, ending in a base table.  The cumulative count is a closed
form at the block boundary plus a tail sum whose every term is a small
integer times a Fibonacci number: the tail walk, shared by tail_sum,
occurrence_count and its trace, folds those terms into a small element
x + y phi of Z[phi] by Horner's rule, one multiplication by phi per block,
and every few dozen blocks adds its value (two small-by-big products) to one
big sum, with one checked division by 5.  That each head's closed form is
an integer depends on m mod 20 only, so it is checked once on small integers
(fib mod 5) for all 20 residues, not per hop.  Past the Fibonacci table the
walk reads fib(m-3) from a pair stepped down by subtraction, so memory stays
bounded.  Agreement with the block form and the tree oracle is enforced by
the tests.

Interval splitting
------------------
The interval of p-th-occurrence ending positions for kernel index m >= 1
splits exactly into the intervals of its two child cells,

    cell(m, p) = cell(m-2, end_b(p) + 1)  |_|  cell(m-1, end_a(p) + 1)

where end_a/end_b are the ending positions of the p-th single letters, and
the m = 0 cell reduces to the singleton holding its maximum.  Expanding the
first cells down to kernel indices {-1, 0} tiles every interval.
"""

from __future__ import annotations

from typing import NamedTuple

from . import fibword
from .chain import ChainInterval, chain_interval, singular_end_pos
from .errors import DomainError, show_int
from .fibword import check_cap, fib, fib_floor_index

# end_count(1) .. end_count(6); the walk bottoms out here.
_END_BASE = (1, 1, 2, 2, 2, 3)

# fib(k) % 5 at index k % 20, for k >= -1: fib mod 5 has period 20 (Pisano).
_FIB_MOD5 = (1, 2, 3, 0, 3, 3, 1, 4, 0, 4, 4, 3, 2, 0, 2, 2, 4, 1, 0, 1)
_heads_checked = None  # the last _FIB_MOD5 table found to make every head exact

# The tail's Horner element is flushed into the big sum every _SEG blocks, so
# its small ints stay within a few machine words.
_SEG = 40

# Bytes charged to the cap per unit held (tracemalloc peaks, m = 16..24, p = 1):
# ~25 per end_count_block entry, ~185 per expand_leaves leaf, ~804 per
# expand_cell leaf with its share of inner nodes and its reduction.  A leaf
# also holds 3 or 8 ints as wide as the cell's last position, ~1 byte per 7 bits.
_BLOCK_BYTES, _LEAF_BYTES, _NODE_BYTES = 32, 192, 832


def _div5(x: int) -> int:
    if x % 5:
        raise AssertionError(f"coefficient sum {x} is not divisible by 5")
    return x // 5


def _check_heads() -> None:
    """Raise unless every head closed form is an integer.

    The numerator (m-11) fib(m-1) + (m+1) fib(m-3) mod 5 depends on m mod 20
    only, so the 20 residues cover every block; a table is checked once.
    """
    global _heads_checked
    table = _FIB_MOD5
    if table is _heads_checked:
        return
    for m in range(20):
        if ((m - 11) * table[(m - 1) % 20] + (m + 1) * table[(m - 3) % 20]) % 5:
            raise AssertionError(f"head closed form at blocks m = {m} mod 20 is not divisible by 5")
    _heads_checked = table


def _flush(x: int, y: int, fibs, m: int) -> int:
    """x fib(m-4) + y fib(m-3), the value of the tail element x + y phi at block m >= 2."""
    return x * (fibs[m - 3] if m > 2 else 0) + y * fibs[m - 2]  # fib(-2) = 0


def _walk(n: int, steps: list | None = None) -> tuple[int, int]:
    """(tail_sum(n), block index of n) by walking the block offset as end_count does.

    A "copy" hop keeps the offset r; a "head+tail" hop (r >= fib(m-3)) takes
    r - fib(m-3).  The tail adds r + 1 per hop, the closed form
    (5 fib(m) + (m-11) fib(m-1) + (m+1) fib(m-3)) / 5 of each copied head,
    and the base table.  The heads' Fibonacci terms are summed by Horner's
    rule over Z[phi]: a small x + y phi stands for x fib(m-4) + y fib(m-3) at
    the current block m, so stepping down one block multiplies it by phi, and
    every _SEG blocks it is flushed into one big sum.  A ``steps`` list
    receives (m, n, case, part) per hop and for the final "table" step, where
    part is what the step adds to the tail.
    """
    m0 = m = fib_floor_index(n + 1)  # the block: fib(m) - 1 <= n <= fib(m+1) - 2
    fibs = fibword.fibs_through(m0)  # fibs[k + 1] is fib(k): the table, or a stepped pair past it
    r0 = r = n - fibs[m + 1] + 1
    _check_heads()
    # a head at block m adds (m-1) fib(m-4) + w fib(m-3), its closed form in the
    # basis fib(m-3), fib(m-4) (fib(m) = 3 fib(m-3) + 2 fib(m-4), fib(m-1) =
    # 2 fib(m-3) + fib(m-4)) plus 5 hops fib(m-3), as fib(m-3) is also in
    # offsets 1 .. hops; with w = 5 hops + 3m - 6 from the start
    total = x = y = 0
    w = 3 * m - 6
    while m > 3:
        stop = max(m - _SEG, 3)
        while m > stop:
            g = fibs[m - 2]  # fib(m-3)
            if steps is not None:
                f = fibs[m + 1]
                head = 0 if r < g else _div5(5 * f + (m - 11) * fibs[m] + (m + 1) * g)
                steps.append((m, r + f - 1, "copy" if r < g else "head+tail", r + 1 + head))
            if r < g:  # down two blocks: times phi**2
                x, y = x + y, x + 2 * y
                w -= 1
                m -= 2
            else:  # add the head, then down one block: times phi
                x, y = y + w, x + y + w + m - 1
                w += 2
                r -= g
                m -= 1
        total += _flush(x, y, fibs, m)
        x = y = 0
    hops = (w - 3 * m + 6) // 5
    base = fibs[m + 1] - 2  # _END_BASE index of the block's first position
    part = sum(_END_BASE[base:base + r + 1])
    if steps is not None:
        steps.append((m, base + r + 1, "table", part))
    # the offsets sum to r0 + (hops - 1) r plus the hop-weighted fib(m-3) in total
    return hops + r0 + (hops - 1) * r + _div5(total) + part, m0


def end_count(n: int) -> int:
    """Number of palindrome occurrences ending exactly at position n: 1 per hop plus the base table."""
    if n < 1:
        raise DomainError(f"positions are 1-based, got {show_int(n)}")
    m = fib_floor_index(n + 1)  # the block: fib(m) - 1 <= n <= fib(m+1) - 2
    fibs = fibword.fibs_through(m)  # fibs[k + 1] is fib(k)
    r = n - fibs[m + 1] + 1
    hops = 0
    while m > 3:
        g = fibs[m - 2]  # fib(m-3)
        if r < g:
            m -= 2
        else:
            r -= g
            m -= 1
        hops += 1
    return _END_BASE[fibs[m + 1] - 2 + r] + hops


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
    return _walk(n)[0]


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

    occurrence_count(0) is 0 by convention.  O(log n) steps: one walk down the
    chain, in exact integer arithmetic with no memo and no prefix
    materialization.
    """
    if n < 0:
        raise DomainError(f"prefix lengths are >= 0, got {show_int(n)}")
    if n <= 3:
        return (0, 1, 2, 4)[n]
    tail, m = _walk(n)
    return block_prefix_total(m) + tail


def occurrence_count_trace(n: int) -> tuple[int, dict]:
    """occurrence_count(n) plus the walk taken; each step's value is tail_sum of its n."""
    if n < 0:
        raise DomainError(f"prefix lengths are >= 0, got {show_int(n)}")
    if n <= 3:
        return occurrence_count(n), {"base_table": True, "value": occurrence_count(n)}
    walked: list = []
    tail, m = _walk(n, walked)
    steps, done = [], 0
    for mk, nk, case, part in walked:
        steps.append({"n": nk, "m": mk, "case": case, "value": tail - done})
        done += part
    before = block_prefix_total(m)
    return before + tail, {"m": m, "before_block": before, "tail": tail, "tail_steps": steps}


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


def split_cell(m: int, p: int) -> CellSplit:
    """Split cell (m, p), m >= 1, into its two children and verify the tiling."""
    if m < 1:
        raise DomainError(f"splitting needs kernel index >= 1, got {show_int(m)} (index 0 reduces)")
    parent = chain_interval(m, p)
    left = chain_interval(m - 2, singular_end_pos(0, p) + 1)
    right = chain_interval(m - 1, singular_end_pos(-1, p) + 1)
    if not (left.lo == parent.lo and right.hi == parent.hi and left.hi + 1 == right.lo):
        raise AssertionError(f"cell split misaligned for (m={m}, p={p})")
    return CellSplit(parent, left, right)


def reduce_cell(p: int) -> ChainInterval:
    """Reduce cell (0, p) to the singleton cell holding its maximum."""
    if p < 1:
        raise DomainError(f"occurrence index must be >= 1, got {show_int(p)}")
    child = chain_interval(-1, singular_end_pos(-1, p) + 1)
    if child.lo != chain_interval(0, p).hi:
        raise AssertionError(f"cell reduction misaligned for p={p}")
    return child


def expand_cell(m: int, p: int, depth: int | None = None, include_reduce: bool = False) -> dict:
    """Expand cell (m, p) into its splitting tree.

    Cells with kernel index >= 1 split; indices -1 and 0 are leaves (with the
    optional singleton reduction attached to index-0 leaves).  ``depth``
    limits the number of splitting levels; None expands to the leaves.  The
    leaf count, at most min(2**depth, fib(m)), is charged to the cap once, at
    the bytes a leaf holds: no subtree has more leaves than the whole tree.
    """
    if depth is not None and depth < 0:
        raise DomainError(f"expansion depth must be >= 0, or None for the leaves, got {show_int(depth)}")

    def expand(iv: ChainInterval, depth: int | None) -> dict:
        node = iv._asdict()  # m, p, lo, hi
        if iv.m >= 1 and (depth is None or depth > 0):
            step = split_cell(iv.m, iv.p)
            nxt = None if depth is None else depth - 1
            node["children"] = [expand(step.left, nxt), expand(step.right, nxt)]
        elif iv.m == 0 and include_reduce:
            node["reduces_to"] = reduce_cell(iv.p)._asdict()
        return node

    root = chain_interval(m, p)
    if m >= 1 and (depth is None or depth > 0):
        # every split lowers the kernel index, so depth m already expands fully
        check_cap(fib(m) if depth is None else min(2 ** min(depth, m), fib(m)), "cell expansion",
                  _NODE_BYTES + 8 * (root.hi.bit_length() // 7))
    return expand(root, depth)


def expand_leaves(m: int, p: int) -> list[ChainInterval]:
    """Leaf cells (kernel index in {-1, 0}) tiling cell (m, p), in order.

    There are exactly fib(m) of them, charged to the cap once, at the bytes a
    leaf holds.
    """
    root = chain_interval(m, p)
    if m >= 1:
        check_cap(fib(m), "cell expansion", _LEAF_BYTES + 3 * (root.hi.bit_length() // 7))
    out, todo = [], [root]
    while todo:
        iv = todo.pop()
        if iv.m <= 0:
            out.append(iv)
        else:
            step = split_cell(iv.m, iv.p)
            todo += (step.right, step.left)  # the left child comes out first
    return out
