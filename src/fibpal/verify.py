"""Verification suites: every closed form against an independent check.

Each suite returns a VerifyResult with the first counterexample found (if
any), also where a closed form raises AssertionError on its own invariant;
the CLI exits 1 on a failure.  Bounds are caller supplied so the same suites
serve quick smoke checks and the full acceptance runs; the tau preimage
bound, the word lengths and the return-word factors are fixed.  The cylinder,
counts and richness suites check the tree pass they are handed, up to its n.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import NamedTuple

import numpy as np

from . import counting, cylinder, kernels, oracle, singular
from .chain import chain_interval, new_pal_at, pal_end_pos, pal_span, singular_end_pos
from .cylinder import PalCoord, coord_from_pal, pal_from_coord, pals_of_length
from .errors import DomainError, NotAFactorError, show_int
from .fibword import check_floor_identities, fib, fib_floor_index, floor_phi, prefix

TAU_PREIMAGE_MAX = 10**5  # verify_tau checks the preimages of every q up to this
# palindromes built (cylinder) and scanned (chain), and factors indexed (kernels), up to these lengths
CYLINDER_LEN, SPAN_LEN, KERNEL_LEN = 100, 60, 50
CHAIN_BLOCK = 256  # chain intervals verify_chain holds at once, whatever max_p is


class VerifyResult(NamedTuple):
    name: str
    ok: bool
    checked: int
    counterexample: dict | None = None
    seconds: float = 0.0


def _finish(name, ok, checked, t0, counterexample=None):
    return VerifyResult(name, ok, checked, counterexample, time.perf_counter() - t0)


def _require_prefix(prefix_n: int, max_len: int) -> None:
    """Refuse a prefix too short to hold every factor of length <= max_len.

    The kernel S(m) of a factor of length L has fib(m) <= L, and the first
    occurrence of the factor puts its kernel on S(m)'s first occurrence at
    fib(m+1) (singular.py), so every such factor ends within fib(M+1) + L
    letters, M = fib_floor_index(L).  The bound grows with L.
    """
    need = fib(fib_floor_index(max_len) + 1) + max_len
    if prefix_n < need:
        raise DomainError(f"a prefix of {show_int(prefix_n)} letters may miss factors of length {show_int(max_len)}; "
                          f"the prefix length (--max-n) must be >= {show_int(need)}")


def verify_floors(max_p: int = 10**6) -> VerifyResult:
    """The four golden-floor identities for every 1 <= p <= max_p, in one machine-width
    sweep guarded by exact spot checks; max_p past kernels.FAST_SCAN_MAX is refused."""
    if max_p > kernels.FAST_SCAN_MAX:
        raise DomainError(f"the floor sweep reaches p = {kernels.FAST_SCAN_MAX:,}; "
                          f"the bound (--max-n) must be <= that, got {show_int(max_p)}")
    t0 = time.perf_counter()
    for p in (q for q in (1, 2, 3, 7, 10, 10**6, max_p) if 1 <= q <= max_p):
        rep = check_floor_identities(p)
        if not all(rep.values()):
            return _finish("floors", False, p, t0, {"p": p, "identities": rep})
    bad = kernels.floor_identity_scan(1, max_p)
    if bad:
        return _finish("floors", False, max_p, t0, {"p": bad, "identities": check_floor_identities(bad)})
    return _finish("floors", True, max_p, t0)


def verify_cylinder(scan: oracle.PrefixScan) -> VerifyResult:
    """Coordinate enumeration vs. a tree pass over the first scan.n letters, plus classification.

    Each palindrome is built by ``pal_from_coord`` (the slice of S(m+3)), checked against the
    concatenation S(m+1)[i+1 ..] + S(m) + S(m+1)[.. fib(m+1)-i], and its kernel must be S(m).
    """
    _require_prefix(scan.n, CYLINDER_LEN)
    t0 = time.perf_counter()
    scanned = oracle.palindrome_set(prefix(scan.n), scan, CYLINDER_LEN)
    generated = {}
    n_checked = 0
    for n in range(1, CYLINDER_LEN + 1):
        for c in pals_of_length(n):
            w = pal_from_coord(c)
            s_next = singular.singular_word(c.m + 1)
            concatenated = s_next[c.i:] + singular.singular_word(c.m) + s_next[: fib(c.m + 1) - c.i]
            if w != concatenated:
                return _finish("cylinder", False, n_checked, t0,
                               {"coord": (c.m, c.i), "slice": w, "concatenation": concatenated})
            generated[w] = c
            n_checked += 1
            try:
                back = coord_from_pal(w)
            except AssertionError:
                return _finish("cylinder", False, n_checked, t0, {"coord": (c.m, c.i), "roundtrip": None})
            if back != c:
                return _finish("cylinder", False, n_checked, t0, {"coord": (c.m, c.i), "roundtrip": (back.m, back.i)})
            if (k := singular.kernel(w).m) != c.m:  # the kernel correspondence (Wen & Wen 1994)
                return _finish("cylinder", False, n_checked, t0, {"coord": (c.m, c.i), "kernel": k})
            tag = cylinder.cylinder_tag(c)
            mid = w[(len(w) - 1) // 2: len(w) // 2 + 1]
            want = "aa" if len(w) % 2 == 0 else mid
            if tag != want:
                return _finish("cylinder", False, n_checked, t0, {"word": w, "tag": tag, "expected": want})
    if set(generated) != scanned:
        missing = sorted(scanned - set(generated), key=lambda w: (len(w), w))[:3]
        extra = sorted(set(generated) - scanned, key=lambda w: (len(w), w))[:3]
        return _finish("cylinder", False, n_checked, t0, {"missing": missing, "extra": extra})
    return _finish("cylinder", True, n_checked, t0)


def verify_chain(max_n: int = 10**6, max_m: int = 8, max_p: int = 30) -> VerifyResult:
    """Chain tiling, position formulas vs. scans, and first-ending inversion up to min(max_n, 10**5).

    Each interval (m <= max_m, p <= max_p) is checked pointwise to be the
    p-th endings hi + 1 - i of the coordinates (m, i), in the order m, block
    of p, i, p: a block holds at most CHAIN_BLOCK intervals, so each
    coordinate is built once per block, each interval once, and memory stays
    bounded whatever max_p is."""
    t0 = time.perf_counter()
    reach = min(max_n, 10**5)
    checked = 0
    # the p=1 intervals tile [1, max_n]
    expect = 1
    m = -1
    while True:
        iv = chain_interval(m, 1)
        if iv.lo != expect:
            return _finish("chain", False, checked, t0, {"m": m, "lo": iv.lo, "expected": expect})
        if iv.size() != fib(m + 1):
            return _finish("chain", False, checked, t0, {"m": m, "size": iv.size()})
        expect = iv.hi + 1
        checked += 1
        if iv.hi >= max_n:
            break
        m += 1
    # ending-position formulas vs. literal scans
    s = prefix(reach)
    for n in range(1, SPAN_LEN + 1):
        for c in pals_of_length(n):
            w = pal_from_coord(c)
            for p, idx in enumerate(oracle.occurrence_starts(s, w), 1):
                sp = pal_span(c, p)
                if sp != (idx + 1, idx + n):
                    return _finish("chain", False, checked, t0, {"word": w, "p": p, "formula": tuple(sp), "scan": (idx + 1, idx + n)})
                checked += 1
    # i -> hi + 1 - i maps the coordinates of kernel index m onto the interval
    for m in range(-1, max_m + 1):
        size = fib(m + 1)
        for first in range(1, max_p + 1, CHAIN_BLOCK):
            block = range(first, min(first + CHAIN_BLOCK, max_p + 1))
            ivs = [chain_interval(m, p) for p in block]
            tops = [(p, iv.hi + 1) for p, iv in zip(block, ivs)]
            for i in range(1, size + 1):
                c = PalCoord(m, i)
                for p, top in tops:
                    if pal_end_pos(c, p) != top - i:
                        return _finish("chain", False, checked, t0, {"m": m, "p": p, "i": i})
            for p, iv in zip(block, ivs):
                if iv.size() != size:
                    return _finish("chain", False, checked, t0, {"m": m, "p": p, "size": iv.size()})
                checked += 1
    # first occurrences invert the chain position
    for n in range(1, reach + 1):
        try:
            c = new_pal_at(n)
        except AssertionError:
            return _finish("chain", False, checked, t0, {"n": n})
        if pal_end_pos(c, 1) != n:
            return _finish("chain", False, checked, t0, {"n": n})
        checked += 1
    return _finish("chain", True, checked, t0)


def verify_tau(max_m: int = 15, max_p: int = 500) -> VerifyResult:
    """The split step against the closed forms of the children (m - 2, end_b(p) + 1) and (m - 1, end_a(p) + 1)
    of each cell (m <= max_m, p <= max_p), their floors and the tiling of their intervals (index 0 has only
    the right one, its reduction, a singleton at the cell's hi); the preimage tiling up to TAU_PREIMAGE_MAX."""
    t0 = time.perf_counter()
    checked = 0
    for p in range(1, max_p + 1):
        # the cells as the step carries them, from the closed forms: p fixes each floor and the children's p
        q, after_a, after_b = floor_phi(p), singular_end_pos(-1, p) + 1, singular_end_pos(0, p) + 1
        q_a, q_b = floor_phi(after_a), floor_phi(after_b)
        for m in range(max_m + 1):
            parent = m, p, q, singular_end_pos(m, p)
            left, right = counting._split(*parent)
            # the intervals of the carried cells: the children's tile the parent's, index 0 reduces to its hi
            iv, right_iv = counting._interval(*parent), counting._interval(*right)
            tiled = counting._interval(*left)[2:] == (iv.lo, right_iv.lo - 1) if m else right_iv.lo == iv.hi
            if (right != (m - 1, after_a, q_a, singular_end_pos(m - 1, after_a)) or not tiled or right_iv.hi != iv.hi
                    or m and left != (m - 2, after_b, q_b, singular_end_pos(m - 2, after_b))):  # index 0: no left
                return _finish("tau", False, checked, t0, {"m": m, "p": p} if m else {"p": p})
            checked += 1
    # every q >= 2 is end_a(q') + 1 or end_b(q') + 1 for exactly one q',
    # walked in blocks of q' on work arrays made once; hits[-1] takes every q past the bound
    hits = np.zeros(TAU_PREIMAGE_MAX + 2, dtype=np.int64)
    steps = np.arange(kernels.SCAN_CHUNK, dtype=np.int64)
    rows = np.empty((5, kernels.SCAN_CHUNK), dtype=np.int64)
    for start in range(1, TAU_PREIMAGE_MAX + 1, kernels.SCAN_CHUNK):
        qs, after_a, after_b, *work = rows[:, :min(kernels.SCAN_CHUNK, TAU_PREIMAGE_MAX + 1 - start)]
        np.add(steps[:qs.size], start, out=qs)
        np.add(qs, kernels.floor_phi_block(qs, out=after_b, work=work), out=after_a)  # after_b: the floors, for now
        after_a += 1
        np.add(after_a, qs, out=after_b)
        for after in (after_a, after_b):
            np.add.at(hits, np.minimum(after, TAU_PREIMAGE_MAX + 1, out=after), 1)
    if not (hits[2:-1] == 1).all():
        q = int(np.nonzero(hits[2:-1] != 1)[0][0]) + 2
        return _finish("tau", False, checked, t0, {"q": q, "preimages": int(hits[q])})
    return _finish("tau", True, checked + TAU_PREIMAGE_MAX, t0)


def verify_counts(scan: oracle.PrefixScan) -> VerifyResult:
    """Closed-form per-position and cumulative counts vs. a tree pass over the first scan.n letters."""
    t0 = time.perf_counter()
    total = 0
    for n, want in enumerate(scan.end_counts.tolist(), 1):
        a = counting.end_count(n)
        if a != want:
            return _finish("counts", False, n, t0, {"n": n, "closed": a, "oracle": want})
        total += a
        try:
            closed_total = counting.occurrence_count(n)
        except AssertionError:  # a block total is not an integer
            return _finish("counts", False, n, t0, {"n": n})
        if closed_total != total:
            return _finish("counts", False, n, t0, {"n": n, "closed_total": closed_total, "oracle_total": total})
    return _finish("counts", True, scan.n, t0)


def verify_richness(scan: oracle.PrefixScan) -> VerifyResult:
    """Distinct palindromic factors of every prefix length n <= scan.n equal n, by a tree pass."""
    t0 = time.perf_counter()
    want = np.arange(1, scan.n + 1, dtype=scan.distinct.dtype)
    if not np.array_equal(scan.distinct, want):
        n = int(np.nonzero(scan.distinct != want)[0][0]) + 1
        return _finish("richness", False, scan.n, t0, {"n": n, "distinct": int(scan.distinct[n - 1])})
    return _finish("richness", True, scan.n, t0)


def verify_return_words(prefix_n: int = 10**4) -> VerifyResult:
    """Each factor has exactly two distinct return words (Vuillon 2001), and
    their sequence reduces to a prefix of the word itself.

    The p-th return word runs from the p-th occurrence up to the (p+1)-th; the
    reduced word writes the first one as a and any other as b.  Occurrences
    are streamed with ``str.find``, and each return word is one slice compared
    with the two kept, the first one and the first other one, so memory does
    not grow with the prefix; a third distinct one is reported at once.  A
    factor with fewer than 3 occurrences in the prefix is refused."""
    t0 = time.perf_counter()
    s = prefix(prefix_n)
    checked = 0
    for w in ("a", "b", "aa", "aba", "abaab", "ababa", singular.singular_word(3), singular.singular_word(4)):
        first = other = ""  # the first return word and the first other one, once read
        head = []  # the reduced word's first 40 letters, for a counterexample
        mismatch = False  # whether the reduced word leaves the prefix of s
        i, count = s.find(w), 0  # the latest occurrence; return words read so far
        while i >= 0 and (j := s.find(w, i + 1)) >= 0:
            ret = s[i:j]
            if ret == first:
                letter = "a"
            elif ret == other:
                letter = "b"
            elif not first:
                first, letter = ret, "a"
            elif not other:
                other, letter = ret, "b"
            else:
                return _finish("return-words", False, checked, t0, {"factor": w, "distinct": 3})
            if letter != s[count]:  # one letter per return word, so the reduced word is shorter than s
                mismatch = True
            if count < 40:
                head.append(letter)
            count += 1
            i = j
        if (occurs := count + (i >= 0)) < 3:
            raise DomainError(f"{w[:40]!r} occurs only {occurs} times in prefix({show_int(prefix_n)})")
        if not other:
            return _finish("return-words", False, checked, t0, {"factor": w, "distinct": 1})
        if mismatch:
            return _finish("return-words", False, checked, t0, {"factor": w, "reduced": "".join(head)})
        checked += 1
    return _finish("return-words", True, checked, t0)


def _factor_index(s: str, max_len: int, max_p: int):
    """Yield, for each length 1 .. max_len, every factor of s of that length
    mapped to its first max_p 0-based starts, in the order of first starts."""
    letters = sorted(set(s))
    index = {"": list(range(min(max_p, len(s))))}  # the empty factor starts everywhere
    for length in range(max_len):
        ends = len(s) - length  # the starts with a letter after a factor of this length
        grown = []
        for u, starts in index.items():
            for x in letters:
                kept = [i for i in starts if i < ends and s[i + length] == x]
                if len(starts) == max_p and len(kept) < max_p:
                    v, j = u + x, starts[-1]
                    while len(kept) < max_p and (j := s.find(v, j + 1)) >= 0:
                        kept.append(j)
                if kept:
                    grown.append((kept[0], u + x, kept))
        grown.sort()
        index = {v: kept for _, v, kept in grown}
        yield index


def verify_kernels(prefix_n: int = 10**4, max_p: int = 50) -> VerifyResult:
    """Kernel uniqueness and occurrence correspondence over all short factors.

    Each length's index (``_factor_index``) grows from the previous one: a
    kept start i of a factor u of length L starts u + x exactly when
    s[i + L] == x.  Fewer than max_p kept starts are every start of u, and so
    of its extensions; a full list may miss starts past its last one, so each
    extension resumes there with ``str.find`` until it also holds max_p.  At
    length L that is at most 2 (L + 1) max_p reads of a kept start, one per
    letter, for the L + 1 factors the check requires, plus the searches, and
    memory holds two lengths' lists: it is bounded by the bounds, not the
    prefix.  A factor whose kernel is as long as itself is the singular word
    S(m), and its starts are kept for every longer factor with kernel S(m),
    which a later length reaches.  For lengths up to 10 every word over
    {a, b} is also checked: ``is_factor`` must hold exactly on the factors
    scanned.
    """
    _require_prefix(prefix_n, KERNEL_LEN)
    t0 = time.perf_counter()
    s = prefix(prefix_n)
    kernel_starts = {}  # m -> the first max_p 0-based starts of S(m) in s
    checked = 0
    for length, index in enumerate(_factor_index(s, KERNEL_LEN, max_p), 1):
        for w, starts_w in index.items():
            try:
                ker = singular.kernel(w)
            except NotAFactorError:
                return _finish("kernels", False, checked, t0, {"factor": w, "is_factor": False})
            except AssertionError:  # the kernel occurs twice in w
                return _finish("kernels", False, checked, t0, {"factor": w, "kernel_unique": False})
            kw = singular.singular_word(ker.m)
            if w.count(kw) != 1:
                return _finish("kernels", False, checked, t0, {"factor": w, "kernel": kw})
            if len(kw) == length:
                kernel_starts[ker.m] = starts_w
            # the kernel inside the p-th occurrence of w is the p-th occurrence of the kernel
            if kernel_starts.get(ker.m, [])[:len(starts_w)] != [i + ker.offset - 1 for i in starts_w]:
                return _finish("kernels", False, checked, t0, {"factor": w})
            checked += 1
        if len(index) != length + 1:
            return _finish("kernels", False, checked, t0, {"length": length, "distinct": len(index)})
        if length <= 10:
            for letters in itertools.product("ab", repeat=length):
                w = "".join(letters)
                if singular.is_factor(w) != (w in index):
                    return _finish("kernels", False, checked, t0, {"word": w, "is_factor": w not in index})
                checked += 1
    return _finish("kernels", True, checked, t0)


SUITES = {  # each takes max_n, max_m, max_p and the getter of run_suites' one tree pass over max_n letters
    "floors": lambda max_n, max_m, max_p, tree_pass: verify_floors(max_p=max_n),
    "cylinder": lambda max_n, max_m, max_p, tree_pass: verify_cylinder(tree_pass()),
    "chain": lambda max_n, max_m, max_p, tree_pass: verify_chain(max_n=max_n, max_m=max_m, max_p=max_p),
    "tau": lambda max_n, max_m, max_p, tree_pass: verify_tau(max_m=max_m, max_p=max_p),
    "counts": lambda max_n, max_m, max_p, tree_pass: verify_counts(tree_pass()),
    "richness": lambda max_n, max_m, max_p, tree_pass: verify_richness(tree_pass()),
    "return-words": lambda max_n, max_m, max_p, tree_pass: verify_return_words(prefix_n=max_n),
    "kernels": lambda max_n, max_m, max_p, tree_pass: verify_kernels(prefix_n=max_n, max_p=max_p),
}


def run_suites(names: list[str], max_n: int, max_m: int, max_p: int) -> list[VerifyResult]:
    """Run the named suites at the given bounds, each of which must be >= 1.

    The suites that check a tree pass share one over max_n letters: the
    first of them to ask makes it, outside any suite's seconds, and it is
    kept until the call returns."""
    for flag, value in (("max_n", max_n), ("max_m", max_m), ("max_p", max_p)):
        if value < 1:
            raise DomainError(f"{flag} must be >= 1, got {show_int(value)}")
    tree_pass = functools.cache(lambda: oracle.scan_prefix(max_n))
    return [SUITES[name](max_n, max_m, max_p, tree_pass) for name in names]
