"""Hot inner loops: the palindromic-tree fill and the bulk floor-identity sweep.

The tree fill, ``eertree_fill``, is plain Python over ``list`` buffers,
which it returns as they are; the floor sweep is vectorized NumPy over
blocks of at most ``SCAN_CHUNK`` values, on work arrays made once per
sweep, so that they stay small whatever its bound.  Both work on
machine-width integers only; callers refuse input past the guards below, and
nothing escalates to big-int arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def active_backend() -> str:
    """The tree fill's implementation, as benchmark records name it: there is
    one, in plain Python."""
    return "python"


# Machine-width guards.  floor arguments up to FAST_FLOOR_MAX keep 5*p*p and
# the root-correction squares inside int64 (the float64 sqrt seed is off by at
# most one there; floor_phi_block steps once each way).  The identity sweep
# feeds derived arguments up to ~2.62*p, hence its tighter input bound.
FAST_FLOOR_MAX = 10**9
FAST_SCAN_MAX = 3 * 10**8
# Values per block of a NumPy sweep (floor_identity_scan and the preimage
# tiling of verify_tau): each int64 work row is 64 KiB, and a sweep peaks
# at ~0.5 MB (tracemalloc).  Under glibc malloc, temporaries of 96 KiB and
# more were paged in afresh block after block (~34,000 minor faults per
# 10**6 sweep at 2**14 values, ~400 at 2**13), and 2**19 values peaked at
# ~30 MB; CHANGES.md has the block-size table.  Both sweeps make their work
# rows once and pass them to every block as ``out=``.
SCAN_CHUNK = 1 << 13


def eertree_fill(text):
    """Feed ``text`` (``bytes`` of letters 0 and 1) into a palindromic tree.

    Returns the node count and the ``list`` buffers ``lens``, ``link``,
    ``depth`` and ``node``.  The first three are sized for the n + 2 nodes
    that n letters can make: the two roots (node 0 of virtual length -1,
    node 1 of length 0), then one node per distinct palindrome in creation
    order.  ``depth`` is the suffix-link chain length, i.e. the number of
    palindromic suffixes; ``node`` holds the node of the longest palindromic
    suffix at each position.

    The buffers are ``list``s because a list read returns a stored int where
    an ``array.array`` read makes a new one.  The lists and their ints peak
    at ~120 B per letter (``tracemalloc``); a caller converts what it keeps.
    """
    n = len(text)
    # s[pos + 1] is text[pos]; the sentinel 2 in front matches no letter, so
    # a suffix-link walk stops there without a bounds test (a list, because
    # its reads are faster than those of bytes)
    s = [2, *text]
    lens = [0] * (n + 2)
    link = [0] * (n + 2)
    depth = [0] * (n + 2)
    trans = ([0] * (n + 2), [0] * (n + 2))  # the child of each node by letter 0, by letter 1
    node = [0] * n
    lens[0] = -1
    num = 2
    last = 1
    for pos, c in enumerate(text):
        # s[pos - lens[v]] is the letter before suffix v (c itself at root 0)
        v = last
        while s[pos - lens[v]] != c:
            v = link[v]
        child = trans[c]
        last = child[v]
        if not last:
            last = num
            num += 1
            lens[last] = lens[v] + 2
            if v:
                u = link[v]
                while s[pos - lens[u]] != c:
                    u = link[u]
                w = child[u]
            else:  # a single letter links to the empty word
                w = 1
            link[last] = w
            depth[last] = depth[w] + 1
            child[v] = last
        node[pos] = last
    return num, lens, link, depth, node


def floor_phi_block(p: np.ndarray, out: np.ndarray | None = None,
                    work: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Vectorized exact floor(phi * p) for an int64 array with p <= FAST_FLOOR_MAX.

    A float64 square root seeds the integer root of 5p**2 and one step each way
    makes it exact.  ``p`` itself is never written.  The floors go to ``out``,
    and the temporaries to ``work``, two int64 rows of p's length; a sweep
    passes the same ones block after block, and either is made when omitted.
    """
    if p.size and int(p.max()) > FAST_FLOOR_MAX:
        raise OverflowError("floor_phi_block input exceeds machine-width guard")
    p = np.asarray(p, dtype=np.int64)
    s = np.empty_like(p) if out is None else out
    n, sq = np.empty((2, *p.shape), dtype=np.int64) if work is None else work
    np.multiply(p, p, out=n)
    n *= 5
    # the float64 root of n < 2**63 is within ~2**-52 s of the true root s, and
    # s <= ~2.3e9, so the truncated seed is off by at most one either way; it
    # is written into sq's bytes, which the square below overwrites
    root = np.sqrt(n, out=sq.view(np.float64))
    np.copyto(s, root, casting="unsafe")
    np.multiply(s, s, out=sq)
    s -= sq > n
    n -= sq
    np.add(s, s, out=sq)
    s += n > sq  # (s + 1)**2 <= n; never where s was just lowered
    s -= p
    s >>= 1
    return s


def floor_identity_scan(lo: int, hi: int) -> int:
    """First p in [lo, hi] violating any of the four floor identities, else 0.

    With q = floor(phi*p): floor(phi*(p+q)) = p-1, floor(phi*(2p+q)) = p+q,
    floor(phi*(p+q+1)) = p and floor(phi*(2p+q+1)) = p+q.  Swept in blocks
    of ``SCAN_CHUNK`` values through ``floor_phi_block``, on work arrays made
    once per sweep.
    """
    steps = np.arange(SCAN_CHUNK, dtype=np.int64)
    rows = np.empty((6, SCAN_CHUNK), dtype=np.int64)
    masks = np.empty((2, SCAN_CHUNK), dtype=bool)
    for start in range(lo, hi + 1, SCAN_CHUNK):
        size = min(SCAN_CHUNK, hi + 1 - start)
        p, pq, arg, floors, *work = rows[:, :size]
        bad, miss = masks[:, :size]
        np.add(steps[:size], start, out=p)
        np.add(p, floor_phi_block(p, out=floors, work=work), out=pq)
        at_a_end = floor_phi_block(pq, out=floors, work=work)
        at_a_end += 1
        np.not_equal(at_a_end, p, out=bad)
        np.add(pq, p, out=arg)
        bad |= np.not_equal(floor_phi_block(arg, out=floors, work=work), pq, out=miss)
        np.add(pq, 1, out=arg)
        bad |= np.not_equal(floor_phi_block(arg, out=floors, work=work), p, out=miss)
        arg += p
        bad |= np.not_equal(floor_phi_block(arg, out=floors, work=work), pq, out=miss)
        if bad.any():
            return start + int(bad.argmax())
    return 0
