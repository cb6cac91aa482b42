"""Hot inner loops: the palindromic-tree fill and the bulk floor-identity sweep.

The tree fill, ``eertree_fill``, is plain Python over ``bytes`` and the
``array.array`` buffers it allocates; the floor sweep is one vectorized
NumPy pass.  Both work on machine-width integers only; callers refuse input
past the guards below, and nothing escalates to big-int arithmetic.
"""

from __future__ import annotations

from array import array

import numpy as np


def active_backend() -> str:
    """The tree fill's implementation, as benchmark records name it: there is
    one, in plain Python."""
    return "python"


# Machine-width guards.  floor arguments up to FAST_FLOOR_MAX keep 5*p*p and
# the root-correction squares inside int64 (the float64 sqrt seed may be a few
# ulps off there; the correction loops repair it).  The identity sweep feeds
# derived arguments up to ~2.62*p, hence its tighter input bound.
FAST_FLOOR_MAX = 10**9
FAST_SCAN_MAX = 3 * 10**8
SCAN_CHUNK = 1 << 19  # values per floor_identity_scan block, ~29 MB of temporaries (tracemalloc)


def eertree_fill(text):
    """Feed ``text`` (``bytes`` of letters 0 and 1) into a palindromic tree.

    Returns the node count and the buffers ``lens``, ``link``, ``depth`` and
    ``node``, ``array.array``s (NumPy uint8 would make ``2*v + c`` wrap)
    sized for the n + 2 nodes that n letters can make: the two roots (node 0
    of virtual length -1, node 1 of length 0), then one node per distinct
    palindrome in creation order.  ``depth`` is the suffix-link chain
    length, i.e. the number of palindromic suffixes; ``node`` holds the node
    of the longest palindromic suffix at each position.
    """
    n = len(text)
    lens = array("q", bytes(8 * (n + 2)))  # zeroed, so only the root of length -1 is written
    link = array("i", bytes(4 * (n + 2)))
    depth = array("i", bytes(4 * (n + 2)))
    trans = array("i", bytes(8 * (n + 2)))
    node = array("i", bytes(4 * n))
    lens[0] = -1
    num = 2
    last = 1
    for pos in range(n):
        c = text[pos]
        v = last
        while True:
            i = pos - lens[v] - 1
            if i >= 0 and text[i] == c:
                break
            v = link[v]
        edge = 2 * v + c
        last = trans[edge]
        if last == 0:
            last = num
            num += 1
            lens[last] = lens[v] + 2
            if lens[last] == 1:
                link[last] = 1
            else:
                u = link[v]
                while True:
                    i = pos - lens[u] - 1
                    if i >= 0 and text[i] == c:
                        break
                    u = link[u]
                link[last] = trans[2 * u + c]
            depth[last] = depth[link[last]] + 1
            trans[edge] = last
        node[pos] = last
    return num, lens, link, depth, node


def floor_phi_block(p: np.ndarray) -> np.ndarray:
    """Vectorized exact floor(phi * p) for an int64 array with p <= FAST_FLOOR_MAX.

    float64 square roots seed the integer root; the correction loops make the
    result exact.
    """
    if p.size and int(p.max()) > FAST_FLOOR_MAX:
        raise OverflowError("floor_phi_block input exceeds machine-width guard")
    n = 5 * p.astype(np.int64) * p
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    while True:
        over = s * s > n
        if not over.any():
            break
        s[over] -= 1
    while True:
        under = (s + 1) * (s + 1) <= n
        if not under.any():
            break
        s[under] += 1
    return (s - p) >> 1


def floor_identity_scan(lo: int, hi: int) -> int:
    """First p in [lo, hi] violating any of the four floor identities, else 0.

    With q = floor(phi*p): floor(phi*(p+q)) = p-1, floor(phi*(2p+q)) = p+q,
    floor(phi*(p+q+1)) = p and floor(phi*(2p+q+1)) = p+q.  Swept in blocks
    of ``SCAN_CHUNK`` values through ``floor_phi_block``.
    """
    for start in range(lo, hi + 1, SCAN_CHUNK):
        stop = min(start + SCAN_CHUNK - 1, hi)
        p = np.arange(start, stop + 1, dtype=np.int64)
        q = floor_phi_block(p)
        bad = (
            (floor_phi_block(p + q) != p - 1)
            | (floor_phi_block(2 * p + q) != p + q)
            | (floor_phi_block(p + q + 1) != p)
            | (floor_phi_block(2 * p + q + 1) != p + q)
        )
        if bad.any():
            return int(p[bad][0])
    return 0
