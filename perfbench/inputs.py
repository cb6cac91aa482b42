"""Seeded workload inputs and an independent model of the Fibonacci word.

Nothing here imports fibpal.  Inputs and the ground truth for word queries
come from the word's definition (the fixed point of a -> ab, b -> a), so a
fault in the package cannot leak into what it is checked against.

Inputs are cut into chunks: chunk k of a workload is what the k-th worker
process of a run answers.  A chunk depends only on (workload, seed, chunk),
never on timing, so one seed always yields the same inputs.
"""

from __future__ import annotations

import random
from bisect import bisect_right

WORKLOADS = ("point-queries", "word-queries", "oracle-sweep", "cli-spawn")

# Magnitude classes of the point queries: n is drawn from [10^e, 1.1 * 10^e).
CLASSES = (("1e6", 6), ("1e18", 18), ("1e100", 100), ("1e1000", 1000))
POINT_OPS = ("occurrence_count", "end_count", "new_pal_at", "letter_at", "pal_span", "chain_interval")
WORD_OPS = ("kernel", "is_factor", "coord_from_pal", "pal_from_coord", "pals_of_length")

# Queries per worker process.  A chunk bounds what one process accumulates
# (the counting memo grows with every distinct query), so peak RSS does not
# depend on how many queries a fast build gets through in a run.
POINT_CHUNK = 24 * 200
WORD_CHUNK = 5 * 6000
CLI_CHUNK = 24

# The work of a run is fixed by --seconds, not timed: a run attempts about
# RATE operations per second of --seconds, in whole blocks (one block holds
# every kind of operation once).  So a seed always yields the same operations,
# and the counts a run reports, failures included, repeat exactly, however
# busy the host.  The rates make a run last about --seconds on a 2.1 GHz
# Xeon VM with 2 vCPUs; a faster build finishes sooner.
RATE = {"point-queries": 900, "word-queries": 11000, "oracle-sweep": 1.0, "cli-spawn": 4.4}
BLOCK = {"point-queries": len(POINT_OPS) * len(CLASSES), "word-queries": len(WORD_OPS),
         "oracle-sweep": 1, "cli-spawn": 8}
CHUNK = {"point-queries": POINT_CHUNK, "word-queries": WORD_CHUNK, "oracle-sweep": 1, "cli-spawn": CLI_CHUNK}


def plan(workload: str, seconds: float) -> list[int]:
    """Operations per worker process of one run: whole chunks, then the rest."""
    total = max(1, round(seconds * RATE[workload] / BLOCK[workload])) * BLOCK[workload]
    chunk = CHUNK[workload]
    return [chunk] * (total // chunk) + ([total % chunk] if total % chunk else [])

# Every factor of length <= WORD_MAX occurs in this prefix: the Fibonacci
# word is linearly recurrent (each length-L factor recurs within ~3.6 L
# letters), and the text is over 100 times longer than WORD_MAX.
WORD_MAX = 1000
WORD_TEXT = 2**17

# oracle-sweep: one tree pass over a seeded prefix length in this range,
# then every verification suite at the fixed bounds (max_n, max_m, max_p).
# A round is short, so that a run holds a few dozen of them.
SWEEP_N = (2**15, 2**15 + 2**10)
SUITE_BOUNDS = {
    "floors": (2 * 10**5, 10, 50),
    "cylinder": (5000, 10, 50),
    "chain": (2500, 10, 50),
    "tau": (5000, 15, 100),
    "counts": (5000, 10, 50),
    "richness": (5000, 10, 50),
    "return-words": (5000, 10, 50),
    "kernels": (1000, 10, 50),
}
DEFAULT_SUITE_BOUNDS = (1000, 10, 50)

# cli-spawn magnitudes: small, so that spawn and import dominate.
CLI_N_MAX = 10**5
CLI_WORD_MAX = 60

_FIBS = [1, 1]


def fib(m: int) -> int:
    """fib(-1) = fib(0) = 1, fib(m + 1) = fib(m) + fib(m - 1)."""
    while len(_FIBS) <= m + 1:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[m + 1]


def block_index(x: int) -> int:
    """Largest m with fib(m) <= x, for x >= 1."""
    while _FIBS[-1] <= x:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return bisect_right(_FIBS, x) - 2


def word_prefix(n: int) -> str:
    """The length-n prefix, by iterating the morphism."""
    table = str.maketrans({"a": "ab", "b": "a"})
    w = "a"
    while len(w) < n:
        w = w.translate(table)
    return w[:n]


_TEXT: list[str] = []


def text() -> str:
    """The shared ground-truth prefix of WORD_TEXT letters."""
    if not _TEXT:
        _TEXT.append(word_prefix(WORD_TEXT))
    return _TEXT[0]


def singular(m: int, txt: str) -> str:
    """The m-th singular word: the last letter of iterate m+1, then iterate m
    without its last letter.  txt must hold at least fib(m) letters."""
    if m == -1:
        return "a"
    if m == 0:
        return "b"
    return ("a" if (m + 1) % 2 == 0 else "b") + txt[: fib(m) - 1]


def singular_first_letter(m: int) -> str:
    return "a" if m == -1 else "b" if m == 0 else ("a" if (m + 1) % 2 == 0 else "b")


def palindrome(m: int, i: int, txt: str) -> str:
    """The palindrome with coordinate (m, i): S(m+3)[i : fib(m+3) - i]."""
    return singular(m + 3, txt)[i: fib(m + 3) - i]


def letter(n: int) -> str:
    """Letter at 1-based position n from the Zeckendorf representation of n-1:
    it is b exactly when the representation uses the smallest term, 1."""
    k = n - 1
    j = block_index(k) + 1 if k else 0  # fibs[j] == fib(j - 1) is the largest term <= k
    fibs = _FIBS
    last = None
    while k:
        j = bisect_right(fibs, k, 1, j + 1) - 1
        k -= fibs[j]
        last = j
        j -= 2
    return "b" if last == 1 else "a"


def _rng(workload: str, seed: int, chunk: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{chunk}")


def _in_class(rng: random.Random, e: int) -> int:
    return rng.randrange(10**e, 10**e + 10 ** (e - 1))


def _chain_args(rng: random.Random, e: int) -> tuple[int, int]:
    """(m, p) whose ending positions lie near a class-e position.

    m is capped so that fib(m + 2) <= 10^e / 100, which keeps p >= ~100 and
    the interval inside [10^e, 1.12 * 10^e)."""
    n = _in_class(rng, e)
    top = block_index(10**e // 100) - 2
    m = rng.randint(-1, top)
    return m, n // fib(m + 2) + 1


def _point_query(rng: random.Random, op: str, cls: str, e: int) -> dict:
    if op in ("pal_span", "chain_interval"):
        m, p = _chain_args(rng, e)
        args = [m, rng.randint(1, fib(m + 1)), p] if op == "pal_span" else [m, p]
    else:
        args = [_in_class(rng, e)]
    return {"op": op, "cls": cls, "args": args}


def point_inputs(seed: int, chunk: int, size: int = POINT_CHUNK) -> list[dict]:
    """Independent closed-form queries, every (op, class) pair once per block
    of 24 in seeded order, so each chunk holds the same mix."""
    rng = _rng("point-queries", seed, chunk)
    out: list[dict] = []
    while len(out) < size:
        block = [(op, cls) for op in POINT_OPS for cls in CLASSES]
        rng.shuffle(block)
        out.extend(_point_query(rng, op, cname, e) for op, (cname, e) in block)
    return out[:size]


def _factor(rng: random.Random, txt: str, length: int) -> str:
    start = rng.randrange(len(txt) - length)
    return txt[start: start + length]


def _mutant(rng: random.Random, txt: str, length: int) -> str:
    """A factor with one letter flipped; usually not a factor any more."""
    w = list(_factor(rng, txt, max(length, 2)))
    k = rng.randrange(len(w))
    w[k] = "a" if w[k] == "b" else "b"
    return "".join(w)


def _pal_factor(rng: random.Random, txt: str, max_len: int) -> str:
    """A palindromic factor sliced around a random centre of the text."""
    while True:
        c = rng.randrange(max_len, len(txt) - max_len)
        odd = rng.random() < 0.5
        lo, hi = (c, c) if odd else (c, c + 1)
        if txt[lo] != txt[hi]:
            continue
        while hi - lo + 3 <= max_len and txt[lo - 1] == txt[hi + 1]:
            lo, hi = lo - 1, hi + 1
        r = rng.randint(0, (hi - lo) // 2)
        return txt[lo + r: hi - r + 1]


def _word_query(rng: random.Random, op: str, txt: str) -> dict:
    length = rng.randint(1, WORD_MAX)
    roll = rng.random()
    if op == "kernel":
        arg = _factor(rng, txt, length) if roll < 0.8 else _mutant(rng, txt, length)
    elif op == "is_factor":
        arg = _factor(rng, txt, length) if roll < 0.5 else _mutant(rng, txt, length)
    elif op == "coord_from_pal":
        if roll < 0.8:
            arg = _pal_factor(rng, txt, WORD_MAX)
        elif roll < 0.9:
            arg = _factor(rng, txt, max(length, 2))
        else:  # a palindrome, but flipping its centre usually leaves the word
            w = list(_pal_factor(rng, txt, WORD_MAX))
            mid = (len(w) - 1) // 2
            for k in {mid, len(w) - 1 - mid}:
                w[k] = "a" if w[k] == "b" else "b"
            arg = "".join(w)
        return {"op": op, "args": [arg]}
    elif op == "pal_from_coord":
        m = rng.randint(-1, 11)
        return {"op": op, "args": [m, rng.randint(1, fib(m + 1))]}
    else:
        return {"op": op, "args": [length]}
    return {"op": op, "args": [arg]}


def word_inputs(seed: int, chunk: int, size: int = WORD_CHUNK) -> list[dict]:
    """Word queries of length <= WORD_MAX, all five ops once per block."""
    rng = _rng("word-queries", seed, chunk)
    txt = text()
    out: list[dict] = []
    while len(out) < size:
        block = list(WORD_OPS)
        rng.shuffle(block)
        out.extend(_word_query(rng, op, txt) for op in block)
    return out[:size]


def sweep_inputs(seed: int, chunk: int) -> dict:
    """One tree-pass length; the suite bounds are fixed."""
    rng = _rng("oracle-sweep", seed, chunk)
    return {"n": rng.randrange(*SWEEP_N), "suites": SUITE_BOUNDS}


def cli_inputs(seed: int, chunk: int, size: int = CLI_CHUNK) -> list[dict]:
    """CLI invocations at small magnitudes, each with the query it answers."""
    rng = _rng("cli-spawn", seed, chunk)
    txt = text()
    kinds = ("count", "letters", "pal at", "chain", "pos pal", "kernel", "pal coord", "pal list")
    out: list[dict] = []
    while len(out) < size:
        block = list(kinds)
        rng.shuffle(block)
        for kind in block:
            n = rng.randint(1, CLI_N_MAX)
            m = rng.randint(-1, 8)
            p = rng.randint(1, CLI_N_MAX // fib(m + 2))
            i = rng.randint(1, fib(m + 1))
            if kind == "count":
                q = {"op": "occurrence_count", "args": [n], "argv": ["count", "--occurrences", "-n", str(n)]}
            elif kind == "letters":
                q = {"op": "letter_at", "args": [n], "argv": ["letters", "-n", str(n)]}
            elif kind == "pal at":
                q = {"op": "new_pal_at", "args": [n], "argv": ["pal", "at", "-n", str(n)]}
            elif kind == "chain":
                q = {"op": "chain_interval", "args": [m, p], "argv": ["chain", "-m", str(m), "-p", str(p)]}
            elif kind == "pos pal":
                q = {"op": "pal_span", "args": [m, i, p],
                     "argv": ["pos", "pal", "-m", str(m), "-i", str(i), "-p", str(p)]}
            elif kind == "kernel":
                w = _factor(rng, txt, rng.randint(1, CLI_WORD_MAX))
                q = {"op": "kernel", "args": [w], "argv": ["kernel", "-w", w]}
            elif kind == "pal coord":
                w = _pal_factor(rng, txt, CLI_WORD_MAX)
                q = {"op": "coord_from_pal", "args": [w], "argv": ["pal", "coord", "-w", w]}
            else:
                length = rng.randint(1, CLI_WORD_MAX)
                q = {"op": "pals_of_length", "args": [length], "argv": ["pal", "list", "--length", str(length)]}
            out.append(q)
    return out[:size]


def chunk_inputs(workload: str, seed: int, chunk: int):
    """The inputs of one worker process."""
    if workload == "point-queries":
        return point_inputs(seed, chunk)
    if workload == "word-queries":
        return word_inputs(seed, chunk)
    if workload == "oracle-sweep":
        return sweep_inputs(seed, chunk)
    if workload == "cli-spawn":
        return cli_inputs(seed, chunk)
    raise ValueError(f"unknown workload {workload!r}")
