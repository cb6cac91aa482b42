"""Reference scanners and tree readers that only the tests use.

The three scanners (every center-expansion span, the occurrences ending at
each position, and every substring slice) share no code with the
palindromic tree, so they check it, and the spans capped at a length check
the coordinate enumeration without a tree.  The readers recover from a scan's
per-position counts, or from the buffers of ``kernels.eertree_fill``, what a
``PrefixScan`` does not keep: every distinct palindrome, each node's
palindrome and the suffix-link chain.  The split tree is rebuilt as
``split_cell`` once built it, each cell from ``chain_interval`` at its tau
image, so it checks the split step that carries the golden floors.  The
factor index of the kernels suite is rebuilt one slice per window and length,
and a Zeckendorf expansion by the greedy rule, one place at a time.
"""

from collections import defaultdict

from fibpal import kernels
from fibpal.chain import chain_interval, singular_end_pos
from fibpal.fibword import fib


def center_palindrome_spans(s: str):
    """Yield the span of every palindromic substring, by center expansion."""
    n = len(s)
    for c in range(n):  # odd lengths, center c
        r = 0
        while c - r - 1 >= 0 and c + r + 1 < n and s[c - r - 1] == s[c + r + 1]:
            r += 1
        for k in range(r + 1):
            yield (c - k, c + k)
    for c in range(n - 1):  # even lengths, center between c and c+1
        if s[c] != s[c + 1]:
            continue
        r = 0
        while c - r - 1 >= 0 and c + r + 2 < n and s[c - r - 1] == s[c + r + 2]:
            r += 1
        for k in range(r + 1):
            yield (c - k, c + k + 1)


def center_end_counts(s: str) -> list[int]:
    """Palindromic-substring occurrences ending at each 1-based position."""
    counts = [0] * (len(s) + 1)
    for _, j in center_palindrome_spans(s):
        counts[j + 1] += 1
    return counts[1:]


def naive_palindrome_set(s: str) -> set[str]:
    """Distinct palindromic substrings by checking every substring slice.

    Quadratic in len(s) with a first-letter/last-letter prefilter; meant for
    validating the other scanners, not for production sizes.
    """
    n = len(s)
    out = set()
    for i in range(n):
        ci = s[i]
        for j in range(i, n):
            if s[j] != ci:
                continue
            t = s[i: j + 1]
            if t == t[::-1]:
                out.add(t)
    return out


def factor_index(s: str, max_len: int, max_p: int):
    """``verify._factor_index`` by one pass of slices per length: every factor
    of length 1 .. max_len mapped to its first max_p 0-based starts."""
    for length in range(1, max_len + 1):
        index = defaultdict(list)  # factor -> its first max_p 0-based starts, in first-occurrence order
        for i in range(len(s) - length + 1):
            starts = index[s[i: i + length]]
            if len(starts) < max_p:
                starts.append(i)
        yield index


def fill(s: str):
    """``kernels.eertree_fill`` over a word over {a, b}."""
    return kernels.eertree_fill(bytes(map("ab".index, s)))


def palindromes(s: str, longest) -> set[str]:
    """Every distinct palindromic factor of s, from the length of the longest
    palindromic suffix at each position (a scan's ``max_suffix``)."""
    # every node was the longest palindromic suffix at its creation
    # position, so collecting those suffixes covers all distinct factors
    return {s[pos + 1 - k: pos + 1] for pos, k in enumerate(longest)}


def node_words(s: str, lens, node) -> dict[int, str]:
    """Each node's palindrome, read where it is first the longest palindromic suffix."""
    words = {}
    for pos, v in enumerate(node):
        words.setdefault(v, s[pos + 1 - lens[v]: pos + 1])
    return words


def suffix_lengths(lens, link, v) -> list[int]:
    """Lengths along the suffix-link chain from node v, longest first: at
    ``v = node[pos - 1]``, every palindromic suffix of the first pos letters."""
    out = []
    while lens[v] > 0:
        out.append(lens[v])
        v = link[v]
    return out


def split_children(m: int, p: int):
    """The children of cell (m, p), m >= 1: the chain intervals at the tau
    images (m - 2, end_b(p) + 1) and (m - 1, end_a(p) + 1)."""
    return chain_interval(m - 2, singular_end_pos(0, p) + 1), chain_interval(m - 1, singular_end_pos(-1, p) + 1)


def reduction(p: int):
    """The singleton cell (-1, end_a(p) + 1) that cell (0, p) reduces to."""
    return chain_interval(-1, singular_end_pos(-1, p) + 1)


def split_tree(m: int, p: int, depth=None, include_reduce=False) -> dict:
    """``expand_cell`` by recursion over split_children and reduction."""
    node = chain_interval(m, p)._asdict()
    if m >= 1 and (depth is None or depth > 0):
        node["children"] = [split_tree(c.m, c.p, None if depth is None else depth - 1, include_reduce)
                            for c in split_children(m, p)]
    elif m == 0 and include_reduce:
        node["reduces_to"] = reduction(p)._asdict()
    return node


def split_leaves(m: int, p: int) -> list:
    """``expand_leaves`` by recursion over split_children."""
    if m <= 0:
        return [chain_interval(m, p)]
    left, right = split_children(m, p)
    return split_leaves(left.m, left.p) + split_leaves(right.m, right.p)


def zeckendorf(x: int) -> list[int]:
    """The places of x's 1-digits, highest first, in the greedy Zeckendorf
    expansion over fib(0) = 1, fib(1) = 2, fib(2) = 3, ...: at each place from
    the top down, take fib(place) whenever it fits."""
    place, f, g = 0, 1, 1  # fib(place), fib(place - 1)
    while f + g <= x:
        place, f, g = place + 1, f + g, f
    out = []
    for k in range(place, -1, -1):
        if f <= x:
            out.append(k)
            x -= f
        f, g = g, f - g
    return out
