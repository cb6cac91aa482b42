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

for every n in block m, after which n lies in block m-1 or m-2.  All four
counting queries share one iterative O(log n) walk with no memo, on the block
offset r = n - fib(m) + 1: a hop keeps r into block m-2 if r < fib(m-3), else
subtracts fib(m-3) into block m-1 (the greedy Zeckendorf digits of r), so it
costs one big-int comparison and at most one big-int subtraction.  The
cumulative count is a closed form at the block boundary plus a tail sum whose
every term is a small integer times a Fibonacci number: the walk collects the
small coefficients per index, checks on small integers (fib mod 5) that each
head's closed form is exact, and combines them in one dot product with one
checked division by 5.  Agreement with the block form and the tree oracle is
enforced by the tests.

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

from operator import mul
from typing import NamedTuple

from . import fibword
from .chain import ChainInterval, chain_interval, singular_end_pos
from .errors import DomainError
from .fibword import check_cap, fib, fib_floor_index

# end_count(1) .. end_count(6); the walk bottoms out here.
_END_BASE = (1, 1, 2, 2, 2, 3)

# fib(k) % 5 at index k % 20, for k >= -1: fib mod 5 has period 20 (Pisano).
_FIB_MOD5 = (1, 2, 3, 0, 3, 3, 1, 4, 0, 4, 4, 3, 2, 0, 2, 2, 4, 1, 0, 1)


def _div5(x: int) -> int:
    if x % 5:
        raise AssertionError(f"coefficient sum {x} is not divisible by 5")
    return x // 5


def _walk(n: int, with_tail: bool, steps: list | None = None) -> tuple[int, int, int]:
    """(end_count(n), tail_sum(n), block index of n) by walking the block offset.

    A "copy" hop keeps the offset r; a "head+tail" hop (r >= fib(m-3)) takes
    r - fib(m-3).  With ``with_tail`` the tail adds r + 1 per hop, the closed
    form (5 fib(m) + (m-11) fib(m-1) + (m+1) fib(m-3)) / 5 of each copied
    head, and the base table.  A ``steps`` list receives (m, r, case) per hop
    and the final (m, r, "table").
    """
    m0 = m = fib_floor_index(n + 1)  # the block: fib(m) - 1 <= n <= fib(m+1) - 2
    fibs = fibword._fibs  # fibs[k + 1] is fib(k), grown past fib(m0) just above
    r0 = r = n - fibs[m + 1] + 1
    coef = [0] * (m0 + 2) if with_tail else None  # coef[k + 1] multiplies fib(k)
    hops = 0
    while m > 3:
        g = fibs[m - 2]  # fib(m-3)
        if steps is not None:
            steps.append((m, r, "copy" if r < g else "head+tail"))
        if r < g:
            m -= 2
        else:
            if coef is not None:
                if ((m - 11) * _FIB_MOD5[(m - 1) % 20] + (m + 1) * _FIB_MOD5[(m - 3) % 20]) % 5:
                    raise AssertionError(f"head closed form at block {m} is not divisible by 5")
                coef[m + 1] += 5
                coef[m] += m - 11
                coef[m - 2] += 5 * hops + m + 1  # hops: fib(m-3) is in offsets 1 .. hops
            r -= g
            m -= 1
        hops += 1
    base = fibs[m + 1] - 2  # _END_BASE index of the block's first position
    tail = 0
    if coef is not None:
        # the offsets sum to r0 + (hops - 1) r plus the hop-weighted fib(m-3) in coef
        tail = hops + r0 + (hops - 1) * r + _div5(sum(map(mul, coef, fibs)))
        tail += sum(_END_BASE[base:base + r + 1])
    if steps is not None:
        steps.append((m, r, "table"))
    return _END_BASE[base + r] + hops, tail, m0


def end_count(n: int) -> int:
    """Number of palindrome occurrences ending exactly at position n."""
    if n < 1:
        raise DomainError(f"positions are 1-based, got {n}")
    return _walk(n, False)[0]


def end_count_block(m: int) -> list[int]:
    """The end counts over positions fib(m)-1 .. fib(m+1)-2, for m >= 3."""
    if m < 3:
        raise DomainError(f"blocks start at index 3, got {m}")
    check_cap(fib(m - 1), "end-count block")
    blocks = {1: [1], 2: [1, 2]}
    for k in range(3, m + 1):
        blocks[k] = [x + 1 for x in blocks[k - 2] + blocks[k - 1]]
        del blocks[k - 2]
    return blocks[m]


def tail_sum(n: int) -> int:
    """Sum of end_count over the containing block's start through n.

    With m the block index of n, this is sum(end_count(i) for i in
    [fib(m)-1, n]).
    """
    if n < 1:
        raise DomainError(f"positions are 1-based, got {n}")
    return _walk(n, True)[1]


def block_prefix_total(m: int) -> int:
    """Closed form of occurrence_count(fib(m) - 2), the total before block m."""
    if m < 2:
        raise DomainError(f"defined for m >= 2, got {m}")
    return _div5((m - 3) * fib(m + 2) + (m - 1) * fib(m)) + 2


def fib_prefix_total(m: int) -> int:
    """Closed form of occurrence_count(fib(m)), for m >= 2."""
    if m < 2:
        raise DomainError(f"defined for m >= 2, got {m}")
    return _div5((m - 3) * fib(m + 2) + (m - 1) * fib(m)) + m + 3


def block_sum(m: int) -> int:
    """Closed form of the sum of block m's end counts, for m >= 1.

    Also satisfies block_sum(m) = block_sum(m-1) + block_sum(m-2) + fib(m-1).
    """
    if m < 1:
        raise DomainError(f"defined for m >= 1, got {m}")
    return _div5((m + 1) * fib(m + 1) + (m - 2) * fib(m - 1))


def end_count_near_fib(m: int) -> tuple[int, int, int]:
    """Closed forms of end_count at fib(m)-2, fib(m)-1 and fib(m), m >= 2.

    The last two sum to m + 1.
    """
    if m < 2:
        raise DomainError(f"defined for m >= 2, got {m}")
    return (m - 1, (m + 1) // 2, (m + 2) // 2)


def occurrence_count(n: int) -> int:
    """Number of palindrome occurrences (with repetition) in the length-n prefix.

    occurrence_count(0) is 0 by convention.  O(log n) steps: one walk down the
    chain, in exact integer arithmetic with no memo and no prefix
    materialization.
    """
    if n < 0:
        raise DomainError(f"prefix lengths are >= 0, got {n}")
    if n <= 3:
        return (0, 1, 2, 4)[n]
    _, tail, m = _walk(n, True)
    return block_prefix_total(m) + tail


def occurrence_count_trace(n: int) -> tuple[int, dict]:
    """occurrence_count(n) plus the walk taken; each step's value is tail_sum of its n."""
    if n < 0:
        raise DomainError(f"prefix lengths are >= 0, got {n}")
    if n <= 3:
        return occurrence_count(n), {"base_table": True, "value": occurrence_count(n)}
    walked: list = []
    _, tail, m = _walk(n, True, walked)
    steps, done = [], 0
    for mk, r, case in walked:
        steps.append({"n": r + fib(mk) - 1, "m": mk, "case": case, "value": tail - done})
        done += r + 1
        if case == "head+tail":
            done += _div5(5 * fib(mk) + (mk - 11) * fib(mk - 1) + (mk + 1) * fib(mk - 3))
    before = block_prefix_total(m)
    return before + tail, {"m": m, "before_block": before, "tail": tail, "tail_steps": steps}


def convolution_identity_holds(m: int) -> bool:
    """Check sum(fib(i) * fib(m-i-1), i = -1..m) against its closed form."""
    if m < 1:
        raise DomainError(f"defined for m >= 1, got {m}")
    lhs = sum(fib(i) * fib(m - i - 1) for i in range(-1, m + 1))
    return lhs == _div5((m + 2) * fib(m + 2) + (m + 4) * fib(m))


class CellSplit(NamedTuple):
    """One splitting step: a cell and the two child cells tiling it."""

    parent: ChainInterval
    left: ChainInterval
    right: ChainInterval


def split_cell(m: int, p: int) -> CellSplit:
    """Split cell (m, p), m >= 1, into its two children and verify the tiling."""
    if m < 1:
        raise DomainError(f"splitting needs kernel index >= 1, got {m} (index 0 reduces)")
    parent = chain_interval(m, p)
    left = chain_interval(m - 2, singular_end_pos(0, p) + 1)
    right = chain_interval(m - 1, singular_end_pos(-1, p) + 1)
    if not (left.lo == parent.lo and right.hi == parent.hi and left.hi + 1 == right.lo):
        raise AssertionError(f"cell split misaligned for (m={m}, p={p})")
    return CellSplit(parent, left, right)


def reduce_cell(p: int) -> ChainInterval:
    """Reduce cell (0, p) to the singleton cell holding its maximum."""
    if p < 1:
        raise DomainError(f"occurrence index must be >= 1, got {p}")
    child = chain_interval(-1, singular_end_pos(-1, p) + 1)
    if child.lo != chain_interval(0, p).hi:
        raise AssertionError(f"cell reduction misaligned for p={p}")
    return child


def expand_cell(m: int, p: int, depth: int | None = None, include_reduce: bool = False) -> dict:
    """Expand cell (m, p) into its splitting tree.

    Cells with kernel index >= 1 split; indices -1 and 0 are leaves (with the
    optional singleton reduction attached to index-0 leaves).  ``depth``
    limits the number of splitting levels; None expands to the leaves.  The
    leaf count, at most min(2**depth, fib(m)), is checked against the cap
    once: no subtree has more leaves than the whole tree.
    """
    if depth is not None and depth < 0:
        raise DomainError(f"expansion depth must be >= 0, or None for the leaves, got {depth}")

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
        check_cap(fib(m) if depth is None else min(2 ** min(depth, m), fib(m)), "cell expansion")
    return expand(root, depth)


def expand_leaves(m: int, p: int) -> list[ChainInterval]:
    """Leaf cells (kernel index in {-1, 0}) tiling cell (m, p), in order.

    There are exactly fib(m) of them, checked against the cap once.
    """
    if m >= 1:
        check_cap(fib(m), "cell expansion")
    out, todo = [], [chain_interval(m, p)]
    while todo:
        iv = todo.pop()
        if iv.m <= 0:
            out.append(iv)
        else:
            step = split_cell(iv.m, iv.p)
            todo += (step.right, step.left)  # the left child comes out first
    return out
