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
form at the block boundary, block_prefix_total(m) = ((m-3) fib(m+2) +
(m-1) fib(m)) / 5 + 2, plus a tail sum: r + 1 per hop, the base table, and
per "head+tail" hop the block m-2 it copies as its head, summing to
block_sum(m-2) = ((m-1) fib(m-1) + (m-4) fib(m-3)) / 5.  The tail loop
(occurrence_count, tail_sum) folds the heads' Fibonacci terms into a small
x + y phi in Z[phi] by Horner's rule, flushing it into one big sum every few
dozen blocks; that sum starts at the boundary's numerator, so the total takes
one division by 5.  The trace is its own exact walk by the same hop rule.
That each head is an integer depends on m mod 20 only (fib mod 5 has Pisano
period 20), so it is checked once, at import, on the heads of twenty
consecutive blocks.  Past the Fibonacci table the walks step a pair down by
subtraction, so memory stays bounded.  Agreement with the block form and the
tree oracle is enforced by the tests.

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

from itertools import accumulate
from typing import NamedTuple

from . import fibword
from .chain import ChainInterval, chain_interval, singular_end_pos
from .errors import DomainError, show_int
from .fibword import check_cap, fib, fib_floor_index, floor_phi

# end_count(1) .. end_count(6); the walk bottoms out here.
_END_BASE = (1, 1, 2, 2, 2, 3)

# The tail's Horner element is flushed into the big sum every _SEG blocks, so
# its small ints stay within a few machine words.
_SEG = 40

# Bytes charged to the cap per unit held (tracemalloc peaks, m = 16..24, p = 1):
# ~25 per end_count_block entry, ~185 per expand_leaves leaf, ~790 per
# expand_cell leaf with its share of inner nodes and its reduction.  A leaf
# also holds 3 or 8 ints as wide as the cell's last position, ~1 byte per 7 bits.
_BLOCK_BYTES, _LEAF_BYTES, _NODE_BYTES = 32, 192, 832


def _div5(x: int) -> int:
    if x % 5:
        raise AssertionError(f"coefficient sum {x} is not divisible by 5")
    return x // 5


# Every head block_sum(m-2) is an integer: its numerator mod 5 depends on m mod 20
# only, as fib mod 5 has period 20 (Pisano), so blocks m = 4 .. 23 cover every m.
for _m in range(4, 24):
    if ((_m - 1) * fib(_m - 1) + (_m - 4) * fib(_m - 3)) % 5:
        raise AssertionError(f"head closed form at blocks m = {_m} mod 20 is not divisible by 5")
del _m


def _flush(x: int, y: int, fibs, m: int) -> int:
    """x fib(m-4) + y fib(m-3), the value of the tail element x + y phi at block m >= 2."""
    return x * (fibs[m - 3] if m > 2 else 0) + y * fibs[m - 2]  # fib(-2) = 0


def _walk(n: int) -> tuple[int, int]:
    """(occurrence_count(n), block index of n), for n >= 1, on end_count's hop rule.

    The copied heads, block_sum(m-2) each, are summed by Horner's rule over Z[phi]:
    a small x + y phi stands for x fib(m-4) + y fib(m-3) at the current block m,
    so stepping down one block multiplies it by phi; every _SEG blocks it is
    flushed into one big sum, which starts at 5 (block_prefix_total(m) - 2)."""
    m0 = m = fib_floor_index(n + 1)  # the block: fib(m) - 1 <= n <= fib(m+1) - 2
    fibs = fibword.fibs_through(m0 + 2)  # fibs[k + 1] is fib(k): the table, or a stepped pair past it
    # read fib(m+2) first: a stepped pair moves down to fib(m), where the walk starts
    total = (m - 3) * fibs[m + 3]
    f = fibs[m + 1]
    total += (m - 1) * f
    r0 = r = n - f + 1
    # a head at block m adds (m-1) fib(m-4) + w fib(m-3): 5 block_sum(m-2) is
    # (m-1) fib(m-4) + (3m-6) fib(m-3) in the basis fib(m-3), fib(m-4) (fib(m-1) =
    # 2 fib(m-3) + fib(m-4)), plus 5 hops fib(m-3), as fib(m-3) is also in
    # offsets 1 .. hops; with w = 5 hops + 3m - 6 from the start
    x = y = 0
    w = 3 * m - 6
    while m > 3:
        stop = max(m - _SEG, 3)
        while m > stop:
            g = fibs[m - 2]  # fib(m-3)
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
    # the offsets sum to r0 + (hops - 1) r plus the hop-weighted fib(m-3) in total
    return hops + r0 + (hops - 1) * r + _div5(total) + 2 + sum(_END_BASE[base:base + r + 1]), m0


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

    occurrence_count(0) is 0 by convention.  O(log n) steps: one walk down the
    chain, in exact integer arithmetic with no memo and no prefix
    materialization.
    """
    if n < 0:
        raise DomainError(f"prefix lengths are >= 0, got {show_int(n)}")
    return _walk(n)[0] if n else 0


def occurrence_count_trace(n: int) -> tuple[int, dict]:
    """occurrence_count(n) plus the walk taken, by its own exact walk on _walk's hop
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
