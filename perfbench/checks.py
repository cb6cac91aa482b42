"""Answer checks, all made outside the timed region.

An answer is in canonical form: a JSON value, or {"error": name, "domain":
bool} when the call raised (``domain`` is whether it was a DomainError).
Each check returns one of

* "ok"     -- a correct value, or the typed error the input calls for;
* "failed" -- the call raised where a value was due;
* "wrong"  -- a value that does not hold up, or a value where an error was due.

Three sources of truth, by reach:

* tree_status: positions within one oracle.scan_prefix pass (the parent
  process runs that pass once per run);
* point_status: beyond it, O(log n) identities between API calls and the
  Zeckendorf letter of inputs.letter, which shares no code with fibpal;
* word_status: words are judged by slicing the morphism-built prefix of
  inputs.text.
"""

from __future__ import annotations

import inputs as I


def canon(op: str, r):
    """Canonical JSON form of an API result."""
    if op in ("occurrence_count", "end_count"):
        return int(r)
    if op in ("new_pal_at", "coord_from_pal"):
        return [r.m, r.i]
    if op == "pal_span":
        return [r.start, r.end]
    if op == "chain_interval":
        return [r.lo, r.hi]
    if op == "kernel":
        return [r.m, r.offset]
    if op == "is_factor":
        return bool(r)
    if op == "pals_of_length":
        return [[c.m, c.i] for c in r]
    return r  # letter_at, pal_from_coord: strings


def canon_record(op: str, rec: dict):
    """Canonical answer from a CLI JSON record."""
    if op == "occurrence_count":
        return rec["value"]
    if op == "letter_at":
        return rec["letter"]
    if op == "pal_span":
        return [rec["start"], rec["end"]]
    if op == "chain_interval":
        return [rec["lo"], rec["hi"]]
    if op == "kernel":
        return [rec["m"], rec["offset"]]
    if op == "pals_of_length":
        return [[p["m"], p["i"]] for p in rec["palindromes"]]
    return [rec["m"], rec["i"]]  # new_pal_at, coord_from_pal


def error_answer(exc: BaseException, domain_error: type) -> dict:
    return {"error": type(exc).__name__, "domain": isinstance(exc, domain_error)}


def is_error(ans) -> bool:
    return isinstance(ans, dict)


def _verdict(ok: bool) -> str:
    return "ok" if ok else "wrong"


# --- identities (any magnitude) ---------------------------------------------


def _end_count_identity(fp, n: int, v: int) -> bool:
    """end_count(n) against occurrence_count differences; where those cannot
    be computed, against one step of the block recursion."""
    try:
        return fp.occurrence_count(n) - fp.occurrence_count(n - 1) == v
    except Exception:
        if n <= 3:
            return False
        m = I.block_index(n + 1)
        return v == fp.end_count(n - I.fib(m - 1)) + 1


def point_status(fp, op: str, args: list, ans) -> str:
    """Check a closed-form answer by identities; fp is the fibpal package."""
    if is_error(ans):
        return "failed"
    try:
        if op == "occurrence_count":
            (n,) = args
            ok = ans - fp.occurrence_count(n - 1) == fp.end_count(n)
            m = I.block_index(n)
            return _verdict(ok and (m < 2 or fp.occurrence_count(I.fib(m)) == fp.fib_prefix_total(m)))
        if op == "end_count":
            return _verdict(ans >= 1 and _end_count_identity(fp, args[0], ans))
        if op == "new_pal_at":
            (n,), (m, i) = args, ans
            ok = 1 <= i <= I.fib(m + 1) and I.fib(m + 2) - 1 <= n <= I.fib(m + 3) - 2
            return _verdict(ok and fp.pal_end_pos(fp.PalCoord(m, i), 1) == n)
        if op == "letter_at":
            return _verdict(ans == I.letter(args[0]))
        if op == "pal_span":
            (m, i, p), (start, end) = args, ans
            ok = end - start + 1 == I.fib(m + 3) - 2 * i
            ok = ok and end == fp.chain_interval(m, p).lo + I.fib(m + 1) - i
            return _verdict(ok and I.letter(start) == I.letter(end))
        if op == "chain_interval":
            (m, p), (lo, hi) = args, ans
            ok = hi - lo + 1 == I.fib(m + 1) and I.letter(lo) == I.singular_first_letter(m)
            if ok and m >= 1:  # the cell splits exactly into its two children
                left = fp.chain_interval(m - 2, fp.singular_end_pos(0, p) + 1)
                right = fp.chain_interval(m - 1, fp.singular_end_pos(-1, p) + 1)
                ok = left.lo == lo and right.hi == hi and left.hi + 1 == right.lo
            return _verdict(ok)
    except Exception:
        return "wrong"  # an answer the identities cannot even be evaluated on
    raise ValueError(f"unknown point op {op!r}")


# --- words, judged by slicing ------------------------------------------------


def word_status(op: str, args: list, ans, txt: str) -> str:
    """Check a word-query answer against slices of the prefix txt."""
    if op == "pal_from_coord":
        return "failed" if is_error(ans) else _verdict(ans == I.palindrome(*args, txt))
    if op == "pals_of_length":
        return "failed" if is_error(ans) else _verdict(_pals_ok(args[0], ans, txt))
    (w,) = args
    if op == "is_factor":
        return "failed" if is_error(ans) else _verdict(ans is (w in txt))
    valid = w in txt and (op == "kernel" or w == w[::-1])
    if is_error(ans):
        return "ok" if not valid and ans["domain"] else "failed"
    if not valid:
        return "wrong"
    m, k = ans
    if not -1 <= m <= 30:
        return "wrong"
    if op == "kernel":
        s = I.singular(m, txt)
        ok = w[k - 1: k - 1 + len(s)] == s and w.find(s, k) < 0
        ok = ok and all(I.singular(j, txt) not in w for j in range(m + 1, I.block_index(len(w)) + 1))
        return _verdict(ok)
    return _verdict(1 <= k <= I.fib(m + 1) and I.palindrome(m, k, txt) == w)


def _pals_ok(n: int, ans: list, txt: str) -> bool:
    """Sturmian words have one palindrome of each even length and two of
    each odd length; each coordinate must name a distinct one of length n."""
    if len(ans) != (2 if n % 2 else 1):
        return False
    words = set()
    for m, i in ans:
        if not (-1 <= m <= 30 and 1 <= i <= I.fib(m + 1)):
            return False
        w = I.palindrome(m, i, txt)
        if len(w) != n or w != w[::-1] or w not in txt:
            return False
        words.add(w)
    return len(words) == len(ans)


# --- tree-backed ground truth ---------------------------------------------------


def reach(op: str, args: list) -> int:
    """Last position a point query's answer can refer to."""
    if op in ("pal_span", "chain_interval"):
        m, p = args[0], args[-1]
        return (p + 1) * I.fib(m + 2) + I.fib(m + 3)
    return args[0]


def tree_status(op: str, args: list, ans, ref) -> str:
    """Check a point answer against one tree pass.

    ref holds the prefix text and, per position, the palindromes ending there
    (end_counts), their running total (totals) and the longest one
    (max_suffix).  Singular words never overlap themselves (they are
    positively separated), so str.count finds every occurrence of one."""
    if is_error(ans):
        return "failed"
    txt = ref.text
    if op in ("occurrence_count", "end_count", "new_pal_at", "letter_at"):
        n = args[0]
        if op == "occurrence_count":
            return _verdict(ans == int(ref.totals[n - 1]))
        if op == "end_count":
            return _verdict(ans == int(ref.end_counts[n - 1]))
        if op == "letter_at":
            return _verdict(ans == txt[n - 1])
        m, i = ans  # the new palindrome at n is the longest palindromic suffix there
        return _verdict(-1 <= m <= 60 and I.fib(m + 3) - 2 * i == int(ref.max_suffix[n - 1]))
    if op == "chain_interval":
        (m, p), (lo, hi) = args, ans
        s = I.singular(m, txt)
        ok = hi - lo + 1 == I.fib(m + 1) and txt[lo - len(s): lo] == s
        return _verdict(ok and txt.count(s, 0, lo) == p)
    (m, i, p), (start, end) = args, ans
    s = I.singular(m, txt)
    kernel_end = start - 1 + I.fib(m + 1) - i + len(s)
    ok = txt[start - 1: end] == I.palindrome(m, i, txt)
    return _verdict(ok and txt.count(s, 0, kernel_end) == p)
