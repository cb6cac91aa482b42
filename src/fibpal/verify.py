"""Verification suites: every closed form against an independent check.

Each suite returns a VerifyResult with the first counterexample found (if
any), also where a closed form raises AssertionError on its own invariant;
the CLI exits 1 on a failure.  Bounds are caller supplied so the same suites
serve quick smoke checks and the full acceptance runs; the tau preimage
bound, the word lengths and the return-word factors are fixed.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from . import counting, cylinder, kernels, oracle, singular
from .chain import chain_interval, new_pal_at, pal_end_pos, pal_span
from .cylinder import PalCoord, coord_from_pal, pal_from_coord, pals_of_length
from .errors import DomainError, NotAFactorError, show_int
from .fibword import check_floor_identities, fib, fib_floor_index, prefix

TAU_PREIMAGE_MAX = 10**5  # verify_tau checks the preimages of every q up to this
# palindromes built (cylinder) and scanned (chain), and factors indexed (kernels), up to these lengths
CYLINDER_LEN, SPAN_LEN, KERNEL_LEN = 100, 60, 50


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
    """The four golden-floor identities for every 1 <= p <= max_p."""
    t0 = time.perf_counter()
    # exact scalar spot checks guard the machine-width sweep itself
    for p in [1, 2, 3, 7, 10, 10**6, max_p]:
        if p < 1 or p > max_p:
            continue
        rep = check_floor_identities(p)
        if not all(rep.values()):
            return _finish("floors", False, p, t0, {"p": p, "identities": rep})
    if max_p <= kernels.FAST_SCAN_MAX:
        bad = kernels.floor_identity_scan(1, max_p)
    else:
        bad = kernels.floor_identity_scan(1, kernels.FAST_SCAN_MAX)
        if bad == 0:  # escalate the remainder to exact big-int arithmetic
            for p in range(kernels.FAST_SCAN_MAX + 1, max_p + 1):
                if not all(check_floor_identities(p).values()):
                    bad = p
                    break
    if bad:
        return _finish("floors", False, max_p, t0, {"p": bad, "identities": check_floor_identities(bad)})
    return _finish("floors", True, max_p, t0)


def verify_cylinder(prefix_n: int = 10**4) -> VerifyResult:
    """Coordinate enumeration vs. naive palindrome scan, plus classification.

    Each palindrome is built by ``pal_from_coord`` (the slice of S(m+3)) and
    checked against the concatenation S(m+1)[i+1 ..] + S(m) + S(m+1)[.. fib(m+1)-i].
    """
    _require_prefix(prefix_n, CYLINDER_LEN)
    t0 = time.perf_counter()
    scanned = oracle.center_palindrome_set(prefix(prefix_n), CYLINDER_LEN)
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
            back = coord_from_pal(w)
            if back != c:
                return _finish("cylinder", False, n_checked, t0, {"coord": (c.m, c.i), "roundtrip": (back.m, back.i)})
            tag = cylinder.cylinder_tag(c)
            mid = w[(len(w) - 1) // 2: len(w) // 2 + 1]
            want = "aa" if len(w) % 2 == 0 else mid
            if tag != want:
                return _finish("cylinder", False, n_checked, t0, {"word": w, "tag": tag, "expected": want})
    if set(generated) != scanned:
        missing = sorted(scanned - set(generated), key=len)[:3]
        extra = sorted(set(generated) - scanned, key=len)[:3]
        return _finish("cylinder", False, n_checked, t0, {"missing": missing, "extra": extra})
    return _finish("cylinder", True, n_checked, t0)


def verify_chain(max_n: int = 10**6, max_m: int = 8, max_p: int = 30) -> VerifyResult:
    """Chain tiling, position formulas vs. scans, and first-ending inversion up to min(max_n, 10**5)."""
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
                if (sp.start, sp.end) != (idx + 1, idx + n):
                    return _finish("chain", False, checked, t0, {"word": w, "p": p, "formula": (sp.start, sp.end), "scan": (idx + 1, idx + n)})
                checked += 1
    # interval elements enumerate the ending positions bijectively
    for m in range(-1, max_m + 1):
        for p in range(1, max_p + 1):
            iv = chain_interval(m, p)
            ends = {pal_end_pos(PalCoord(m, i), p) for i in range(1, fib(m + 1) + 1)}
            if ends != set(iv.as_range()):
                return _finish("chain", False, checked, t0, {"m": m, "p": p})
            checked += 1
    # first occurrences invert the chain position
    for n in range(1, reach + 1):
        if pal_end_pos(new_pal_at(n), 1) != n:
            return _finish("chain", False, checked, t0, {"n": n})
        checked += 1
    return _finish("chain", True, checked, t0)


def verify_tau(max_m: int = 15, max_p: int = 500) -> VerifyResult:
    """Cell splitting/reduction invariants and the preimage tiling of p-values
    up to TAU_PREIMAGE_MAX."""
    t0 = time.perf_counter()
    checked = 0
    for m in range(1, max_m + 1):
        for p in range(1, max_p + 1):
            try:
                counting.split_cell(m, p)
            except AssertionError:
                return _finish("tau", False, checked, t0, {"m": m, "p": p})
            checked += 1
    for p in range(1, max_p + 1):
        try:
            child = counting.reduce_cell(p)
        except AssertionError:
            return _finish("tau", False, checked, t0, {"p": p})
        if child.size() != 1 or child.lo != chain_interval(0, p).hi:
            return _finish("tau", False, checked, t0, {"p": p})
        checked += 1
    # every q >= 2 is end_a(q') + 1 or end_b(q') + 1 for exactly one q'
    qs = np.arange(1, TAU_PREIMAGE_MAX + 1, dtype=np.int64)
    fq = kernels.floor_phi_block(qs)
    after_a = (qs + fq + 1)[qs + fq + 1 <= TAU_PREIMAGE_MAX]
    after_b = (2 * qs + fq + 1)[2 * qs + fq + 1 <= TAU_PREIMAGE_MAX]
    hits = np.zeros(TAU_PREIMAGE_MAX + 1, dtype=np.int64)
    np.add.at(hits, after_a, 1)
    np.add.at(hits, after_b, 1)
    if not (hits[2:] == 1).all():
        q = int(np.nonzero(hits[2:] != 1)[0][0]) + 2
        return _finish("tau", False, checked, t0, {"q": q, "preimages": int(hits[q])})
    return _finish("tau", True, checked + TAU_PREIMAGE_MAX, t0)


def verify_counts(max_n: int = 10**4) -> VerifyResult:
    """Closed-form per-position and cumulative counts vs. the tree oracle."""
    t0 = time.perf_counter()
    scan = oracle.scan_prefix(max_n)
    total = 0
    for n in range(1, max_n + 1):
        a = counting.end_count(n)
        if a != scan.end_count(n):
            return _finish("counts", False, n, t0, {"n": n, "closed": a, "oracle": scan.end_count(n)})
        total += a
        if counting.occurrence_count(n) != total:
            return _finish("counts", False, n, t0, {"n": n, "closed_total": counting.occurrence_count(n), "oracle_total": total})
    return _finish("counts", True, max_n, t0)


def verify_richness(max_n: int = 10**5) -> VerifyResult:
    """Distinct palindromic factors of every prefix length n equal n."""
    t0 = time.perf_counter()
    scan = oracle.scan_prefix(max_n)
    want = np.arange(1, max_n + 1, dtype=scan.distinct.dtype)
    if not np.array_equal(scan.distinct, want):
        n = int(np.nonzero(scan.distinct != want)[0][0]) + 1
        return _finish("richness", False, max_n, t0, {"n": n, "distinct": int(scan.distinct[n - 1])})
    return _finish("richness", True, max_n, t0)


def verify_return_words(prefix_n: int = 10**4) -> VerifyResult:
    """Each factor has exactly two distinct return words (Vuillon 2001), and
    their sequence reduces to a prefix of the word itself."""
    t0 = time.perf_counter()
    s = prefix(prefix_n)
    checked = 0
    for w in ("a", "b", "aa", "aba", "abaab", "ababa", singular.singular_word(3), singular.singular_word(4)):
        seq = oracle.return_words(w, prefix_n)
        if (distinct := len(set(seq.returns))) != 2:
            return _finish("return-words", False, checked, t0, {"factor": w, "distinct": distinct})
        # one letter per return word, so the reduced word is shorter than s
        if seq.reduced != s[:len(seq.reduced)]:
            return _finish("return-words", False, checked, t0, {"factor": w, "reduced": seq.reduced[:40]})
        checked += 1
    return _finish("return-words", True, checked, t0)


def verify_kernels(prefix_n: int = 10**4, max_p: int = 50) -> VerifyResult:
    """Kernel uniqueness and occurrence correspondence over all short factors.

    One pass per length indexes every factor's starts in the prefix; the
    starts of each kernel S(m) are scanned once and shared by every factor
    whose kernel it is.  For lengths up to 10 every word over {a, b} is
    also checked: ``is_factor`` must hold exactly on the factors scanned.
    """
    _require_prefix(prefix_n, KERNEL_LEN)
    t0 = time.perf_counter()
    s = prefix(prefix_n)
    kernel_starts = {}  # m -> 0-based starts of S(m) in s
    checked = 0
    for length in range(1, KERNEL_LEN + 1):
        index = defaultdict(list)  # factor -> its 0-based starts, in first-occurrence order
        for i in range(len(s) - length + 1):
            index[s[i: i + length]].append(i)
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
            if ker.m not in kernel_starts:
                kernel_starts[ker.m] = oracle.occurrence_starts(s, kw)
            if not oracle.starts_correspond(starts_w, kernel_starts[ker.m], ker.offset, min(max_p, len(starts_w))):
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


SUITES = {
    "floors": lambda max_n, max_m, max_p: verify_floors(max_p=max_n),
    "cylinder": lambda max_n, max_m, max_p: verify_cylinder(prefix_n=max_n),
    "chain": lambda max_n, max_m, max_p: verify_chain(max_n=max_n, max_m=max_m, max_p=max_p),
    "tau": lambda max_n, max_m, max_p: verify_tau(max_m=max_m, max_p=max_p),
    "counts": lambda max_n, max_m, max_p: verify_counts(max_n=max_n),
    "richness": lambda max_n, max_m, max_p: verify_richness(max_n=max_n),
    "return-words": lambda max_n, max_m, max_p: verify_return_words(prefix_n=max_n),
    "kernels": lambda max_n, max_m, max_p: verify_kernels(prefix_n=max_n, max_p=max_p),
}


def run_suites(names: list[str], max_n: int, max_m: int, max_p: int) -> list[VerifyResult]:
    """Run the named suites at the given bounds, each of which must be >= 1."""
    for flag, value in (("max_n", max_n), ("max_m", max_m), ("max_p", max_p)):
        if value < 1:
            raise DomainError(f"{flag} must be >= 1, got {show_int(value)}")
    return [SUITES[name](max_n, max_m, max_p) for name in names]
