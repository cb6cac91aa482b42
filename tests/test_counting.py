import json
import os
import subprocess
import sys
import tracemalloc
from array import array
from itertools import accumulate
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from fibpal import (
    DomainError,
    ResourceError,
    block_prefix_total,
    block_sum,
    chain_interval,
    convolution_identity_holds,
    end_count,
    end_count_block,
    end_count_near_fib,
    expand_cell,
    expand_leaves,
    fib,
    fib_prefix_total,
    kernel,
    occurrence_count,
    occurrence_count_trace,
    prefix,
    reduce_cell,
    split_cell,
    tail_sum,
)
from fibpal import counting, fibword
from fibpal.chain import singular_end_pos
from fibpal.fibword import fib_floor_index, floor_phi
from naive import (center_end_counts, fill, reduction, split_children, split_leaves, split_tree, suffix_lengths,
                   zeckendorf)

# end-count vectors over the first six blocks
BLOCK_VECTORS = {
    1: [1],
    2: [1, 2],
    3: [2, 2, 3],
    4: [2, 3, 3, 3, 4],
    5: [3, 3, 4, 3, 4, 4, 4, 5],
    6: [3, 4, 4, 4, 5, 4, 4, 5, 4, 5, 5, 5, 6],
}


def test_end_count_examples():
    assert end_count(1) == 1
    assert end_count(6) == 3
    assert end_count(32) == 6
    with pytest.raises(DomainError):
        end_count(0)


def test_end_count_blocks_match_known_vectors():
    assert end_count_block(4) == BLOCK_VECTORS[4]
    assert end_count_block(5) == BLOCK_VECTORS[5]
    assert end_count_block(6) == BLOCK_VECTORS[6]
    with pytest.raises(DomainError):
        end_count_block(2)


def test_block_consistency():
    for m in range(3, 21):
        block = end_count_block(m)
        assert len(block) == fib(m - 1)
        start = fib(m) - 1
        assert all(end_count(start + j) == v for j, v in enumerate(block))


def test_end_count_matches_naive_scan(prefix_2k):
    naive = center_end_counts(prefix_2k)
    total = 0
    for n in range(1, 2001):
        a = end_count(n)
        assert a == naive[n - 1]
        total += a
        assert occurrence_count(n) == total


def test_tail_sum_examples():
    assert tail_sum(29) == 42
    assert tail_sum(8) == 5
    assert tail_sum(16) == 17


def test_tail_sum_matches_direct():
    for n in range(1, 2000):
        m = fib_floor_index(n + 1)  # block of n: fib(m) - 1 <= n <= fib(m+1) - 2
        assert tail_sum(n) == sum(end_count(i) for i in range(fib(m) - 1, n + 1))


def test_occurrence_count_examples():
    assert occurrence_count(0) == 0
    assert occurrence_count(13) == 32
    assert occurrence_count(19) == 56
    assert occurrence_count(29) == 98
    with pytest.raises(DomainError):
        occurrence_count(-1)


def test_occurrence_count_trace():
    value, trace = occurrence_count_trace(29)
    assert value == 98
    assert trace["before_block"] == 56
    assert trace["tail"] == 42
    assert trace["m"] == 6
    assert [s["n"] for s in trace["tail_steps"]] == [29, 16, 8, 3]
    assert trace["tail_steps"][-1]["case"] == "table"
    # below 4 the count is read from a table; 4 is the first n that walks
    for n, value in enumerate((0, 1, 2, 4)):
        assert occurrence_count(n) == value
        assert occurrence_count_trace(n) == (value, {"base_table": True, "value": value})
    value, trace = occurrence_count_trace(4)
    assert value == occurrence_count(4) and "base_table" not in trace and trace["tail_steps"]
    with pytest.raises(DomainError):
        occurrence_count_trace(-1)


def reference_walk(n):
    """The n -> n - fib(m-1) walk with a big-int part per step: (end count, tail, block, trace steps)."""
    base = (1, 1, 2, 2, 2, 3)  # end_count(1) .. end_count(6)
    m0 = m = fib_floor_index(n + 1)
    fm, f1 = fib(m), fib(m - 1)
    hops, parts = 0, []
    while n > 6:
        if n + 1 < 2 * f1:
            parts.append((n, m, "copy", n - fm + 2))
        else:  # 2*f1 - fm is fib(m-3)
            head = (m - 11) * f1 + (m + 1) * (2 * f1 - fm)
            assert head % 5 == 0
            parts.append((n, m, "head+tail", n + head // 5 + 2))
        n -= f1
        hops += 1
        if n >= f1 - 1:  # n now lies in block m-1, else in block m-2
            m, fm, f1 = m - 1, f1, fm - f1
        else:
            m, fm, f1 = m - 2, fm - f1, 2 * f1 - fm
    parts.append((n, m, "table", sum(base[fm - 2:n])))
    tail = sum(part for *_, part in parts)
    steps, done = [], 0
    for k, mk, case, part in parts:
        steps.append({"n": k, "m": mk, "case": case, "value": tail - done})
        done += part
    return base[n - 1] + hops, tail, m0, steps


def test_walk_matches_reference_walk():
    rng = Random(1972)
    ns = list(range(1, 20001))
    for k in (6, 18, 100, 1000):
        ns += [rng.randrange(10**k, 10 ** (k + 1)) for _ in range(30)]
    for n in ns:
        end, tail, m, steps = reference_walk(n)
        assert end_count(n) == end and tail_sum(n) == tail, n
        if n > 3:  # below 4 the count comes from a table, without a walk
            value, trace = occurrence_count_trace(n)
            assert trace == {"m": m, "before_block": block_prefix_total(m), "tail": tail, "tail_steps": steps}, n
            assert occurrence_count(n) == value == block_prefix_total(m) + tail, n


def test_walk_matches_reference_walk_past_the_table():
    # past fib(FIB_TABLE_MAX) the peel's places and the trace each move their own
    # Fibonacci pair down from the block
    rng = Random(4790)
    top = fibword.FIB_TABLE_MAX
    ns = [fib(top) - 2, fib(top), fib(top + 1) - 2, fib(top + 1) - 1, fib(top + 3) + 5]
    ns += [rng.randrange(fib(top), 10**1200) for _ in range(3)]
    for n in ns:
        end, tail, m, steps = reference_walk(n)
        value, trace = occurrence_count_trace(n)
        assert end_count(n) == end and tail_sum(n) == tail, n
        assert trace == {"m": m, "before_block": block_prefix_total(m), "tail": tail, "tail_steps": steps}, n
        assert value == occurrence_count(n) == block_prefix_total(m) + tail, n
    assert len(fibword._fibs) <= top + 2


def test_counts_match_the_reference_walk_at_chunk_edges():
    # blocks within 2 of m = 2 + 19 j, where the number of aligned chunks a count peels changes
    rng = Random(1007)
    w = counting._PEEL_W
    blocks = sorted({2 + j * w + d for j in range(4) for d in range(-2, 3)} - {0, 1} | set(range(3, 9)))
    for m in blocks:
        lo, hi = fib(m) - 1, fib(m + 1) - 2
        ns = {lo, lo + 1, hi - 1, hi, lo + fib(m - 2), lo + fib(m - 3) - 1} | {rng.randint(lo, hi) for _ in range(20)}
        for n in sorted(ns):
            end, tail, mm, steps = reference_walk(n)
            assert mm == m and end_count(n) == end and tail_sum(n) == tail, n
            assert occurrence_count(n) == block_prefix_total(m) + tail, n
            if n > 3:  # below 4 the count comes from a table, without a walk
                value, trace = occurrence_count_trace(n)
                assert trace == {"m": m, "before_block": block_prefix_total(m), "tail": tail, "tail_steps": steps}, n
                assert value == occurrence_count(n), n


def test_count_peak_memory_at_1e1000():
    # a warm count's peak is a few small ints, a slice of the held places and one big sum: under 16 KiB
    n = 10**1000 + 12345
    occurrence_count(n)
    tracemalloc.start()
    try:
        occurrence_count(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**10, peak


def test_floor_phi_shifts_the_zeckendorf_expansion():
    # B(a) = floor_phi(a + 1) is a's expansion one place down: sum of fib(p - 1), fib(-1) = 1
    for a in range(20000):
        assert floor_phi(a + 1) == sum(fib(p - 1) for p in zeckendorf(a)), a


def test_end_count_is_the_block_less_the_zeckendorf_ones():
    # measured from the end of its block m, n is X = fib(m+1) - 2 - n, and the walk is
    # X's greedy expansion: hops are blocks less the ones met, and the base table adds
    # 3 less the ones at places 0 .. 2, so end_count(n) = m - z(X)
    for n in range(1, 20000):
        m = fib_floor_index(n + 1)
        ones = zeckendorf(fib(m + 1) - 2 - n)
        base = end_count(n) - (m - 3) + sum(p >= 3 for p in ones)
        assert base == 3 - sum(p < 3 for p in ones), n
        assert end_count(n) == m - len(ones), n


def test_tail_sum_is_a_zeckendorf_prefix_sum():
    # tail_sum(n) = block_sum(m) - m X + sum_{x<X} z(x), with the prefix sums in
    # closed form at the Fibonacci numbers: 5 sum_{x<fib(k)} z(x) = (2k+2) fib(k) - (k+2) fib(k-1)
    ones_below = list(accumulate((len(zeckendorf(x)) for x in range(fib(16))), initial=0))
    for k in range(16):
        assert 5 * ones_below[fib(k)] == (2 * k + 2) * fib(k) - (k + 2) * fib(k - 1), k
    for n in range(1, 3000):
        m = fib_floor_index(n + 1)
        x = fib(m + 1) - 2 - n
        assert tail_sum(n) == block_sum(m) - m * x + ones_below[x], n


def test_peel_tables_match_their_definitions():
    pop, b, t1 = counting._tables()
    w = counting._PEEL_W
    assert len(pop) == len(t1) == fib(w) and len(b) == fib(w) + 1 and b[-1] == fib(w - 1)
    assert list(t1) == [5 * v for v in accumulate(pop[:-1], initial=0)]  # 5 times the ones below a
    for a in range(fib(w)):
        ones = zeckendorf(a)
        assert pop[a] == len(ones) and b[a] == floor_phi(a + 1), a
        assert t1[a] == sum(5 * rho * fib(j) + (2 * j + 2) * fib(j) - (j + 2) * fib(j - 1)
                            for rho, j in enumerate(ones)), a
        # T2's defining sum, T1's one place down, is read as T1 at B(a)
        t2 = sum(5 * rho * fib(j - 1) + (2 * j + 2) * fib(j - 1) - (j + 2) * (fib(j - 2) if j else 0)
                 for rho, j in enumerate(ones))
        assert t1[b[a]] + 3 * b[a] - a == t2, a


class _Reads:
    """A view of the B table that records the indices read through it."""

    def __init__(self, b):
        self.b, self.read = b, []

    def __getitem__(self, i):
        self.read.append(i)
        return self.b[i]


def test_chunk_corrects_its_estimate_by_one_step():
    # both ends of every pattern's range, H_s(a) and H_s(a+1) - 1, at places W and 2W,
    # the only places _chunk runs at (the wide steps split their patterns by its rule inline,
    # with place W's fields as module constants, equal to the ladder's), each place as the
    # counts get it from the ladder, with the exact L_s as its divisor: the estimate (the
    # first index read) is monotone in x, so between them it is within one of a, and it
    # never undershoots a pattern that B rises into
    _, b, _ = counting._tables()
    w = counting._PEEL_W
    top = fib(w)
    end_count(fib(2 * w + 2))  # block 2W + 2, whose top place is 2W
    for s, place in zip((w, 2 * w), counting._ladder):
        f1, f2 = fib(s - 1), fib(s - 2)
        assert place == (s, fib(s), f1, f2, 0, 2 * f1 - f2), s
        assert s == 2 * w or place[1:] == (counting._F0, counting._F1, counting._F2, 0, counting._LW)
        assert place[3] is f2, s  # a ladder place shares the table's ints
        view = _Reads(b)
        edges = [f1 * a + f2 * b[a] for a in range(top + 1)]  # H_s(a), up to H_s(fib(W)) = fib(s + W)
        assert edges[top] == fib(s + w), s
        for a in range(top):
            for x in (edges[a], edges[a + 1] - 1):
                view.read.clear()
                assert counting._chunk(x, place, view) == (a, b[a], x - edges[a]), (s, a, x)
                guess = view.read[0]
                assert abs(guess - a) <= 1, (s, a, x, guess)
                assert guess >= a or b[a] == b[a - 1], (s, a, x)  # an undershoot steps up by fib(s-1)
                assert guess <= a or b[a + 1] > b[a] or a + 1 == top, (s, a, x)  # B is flat down only from fib(W)


def test_places_past_the_table_move_their_pair_down():
    # past the Fibonacci table a count's wide steps come from its pair (fib(m), fib(m-1)),
    # moved down the 2 .. 39 indices to its top wide step's place W j, j the largest odd
    # index up to top, then 2W indices per step by one Cassini step with the table's
    # fib(2W-1), fib(2W-2), fib(2W-3); for blocks from the first whose top place is past
    # the table (top 264, whose top wide step, at 4,997, is the ladder's) to the index
    # limit, every step equals the one built from a pair read by fib() at m and moved down
    # by the recurrence alone, with fib() itself checked at the top wide step, at the
    # lowest past the table (5,035) and at one seeded step between; the steps below the
    # table are the whole ladder's own, and _runs keeps none of these counts
    rng = Random(5000)
    w = counting._PEEL_W
    past, limit = fibword.FIB_TABLE_MAX // w + 1, fibword.FIB_INDEX_MAX
    for m in (w * past + 2, w * past + 20, w * past + 21, w * past + 2 * w + 20, w * past + 4 * w + 11,
              limit - 1, limit - 2, *(rng.randint(w * past + 2, limit - 1) for _ in range(4))):
        top = (m - 2) // w
        j = top - 1 | 1
        assert top >= past and 2 <= m - w * j <= 2 * w + 1, m
        steps = iter(counting._steps(top, m, fib(m), fib(m - 1)))
        f0, f1, k = fib(m), fib(m - 1), m
        checked = {w * j, w * (past + 1), w * (rng.randint(past, top) - 1 | 1)}
        for s in range(w * j, fibword.FIB_TABLE_MAX, -2 * w):
            while k > s:
                f0, f1, k = f1, f0 - f1, k - 1
            step = next(steps)
            assert step == counting._place(s, f0, f1, f0 - f1), (m, s)
            assert s not in checked or step[1:4] == (fib(s), fib(s - 1), fib(s - 2)), (m, s)
        rest = list(steps)
        assert len(rest) == len(counting._ladder) == (past + 2) // 2, m
        assert all(step is held for step, held in zip(rest, reversed(counting._ladder))), m
    assert max(counting._runs) < past
    assert len(fibword._fibs) == fibword.FIB_TABLE_MAX + 2


def test_wide_tables_match_their_definitions():
    # P[hi] is hi's chunk term at local place W with no ones above it, and P2[hi] that term one
    # place down: T1's and T2's sums over hi's ones at local places W + j
    w = counting._PEEL_W
    end_count(10**18)  # its count takes a wide step
    p1, p2 = counting._wide_tables
    assert p1.typecode == p2.typecode == "q" and len(p1) == len(p2) == fib(w)
    for hi in range(fib(w)):
        ones = [w + j for j in zeckendorf(hi)]
        assert p1[hi] == sum(5 * rho * fib(j) + (2 * j + 2) * fib(j) - (j + 2) * fib(j - 1)
                             for rho, j in enumerate(ones)), hi
        assert p2[hi] == sum(5 * rho * fib(j - 1) + (2 * j + 2) * fib(j - 1) - (j + 2) * fib(j - 2)
                             for rho, j in enumerate(ones)), hi


def test_wide_fixed_point_floor_is_exact():
    # B(a) = floor_phi(a + 1) = (a + 1) _R >> 64 for every a <= fib(38): each p = a + 1
    # against kernels.floor_phi_block, in blocks, with p _R split at 32 bits so that each
    # part fits an int64: (p (_R >> 32) + (p (_R & 0xFFFFFFFF) >> 32)) >> 32
    import numpy as np
    from fibpal.kernels import floor_phi_block

    top = fib(2 * counting._PEEL_W) + 1
    hi, lo = counting._R >> 32, counting._R & 0xFFFFFFFF
    size = 1 << 16
    steps = np.arange(size, dtype=np.int64)
    p, fixed, low, floors, *work = np.empty((6, size), dtype=np.int64)
    for start in range(1, top + 1, size):
        k = min(size, top + 1 - start)
        np.add(steps[:k], start, out=p[:k])
        np.multiply(p[:k], lo, out=low[:k])
        low >>= 32
        np.multiply(p[:k], hi, out=fixed[:k])
        fixed += low
        fixed >>= 32
        floor_phi_block(p[:k], out=floors[:k], work=[row[:k] for row in work])
        bad = np.flatnonzero(fixed[:k] != floors[:k])
        assert not bad.size, int(p[bad[0]])
    assert start + k - 1 == top and (top * counting._R) >> 64 == floor_phi(top)


@pytest.mark.parametrize("s", [57, 95, 4997, 5035])
def test_wide_step_corrects_its_estimate_by_one_step(s):
    # a count in block s + 39, whose top place s + 19 has an even index, and one in block s + 20,
    # whose top place s has an odd one, take the wide step at place s first, with a < fib(2W)
    # and a < fib(W); at both ends of the range of each of the first and last four such patterns
    # a, every 2,000,003rd, and fib(j) + {-1, 0, 1}, where a / phi is nearest an integer: the
    # estimate from the step's shift and divisor is within one of a, undershoots only where
    # B(a) = B(a-1) and overshoots only where B rises; at s = 57 and 95, where a hop walk is
    # cheap, occurrence_count matches occurrence_count_trace's walk and end_count the reference
    # walk's, neither of which estimates or splits a pattern, so a wrong estimate, correction or
    # split at place W in either count fails here
    w = counting._PEEL_W
    for m in (s + 2 * w + 1, s + w + 1):
        top, top_a = (m - 2) // w, fib(m - 1 - s)
        step = next(iter(counting._steps(top, m, fib(m), fib(m - 1))))
        _, f0, f1, f2, sh, d = step
        assert step == counting._place(s, fib(s), fib(s - 1), fib(s - 2)) and s > 2 * w, m
        patterns = sorted({*range(4), *range(0, top_a, 2000003), *range(top_a - 4, top_a),
                           *(fib(j) + e for j in range(2 * w) for e in (-1, 0, 1) if 0 <= fib(j) + e < top_a)})

        def h(a):
            return f1 * a + f2 * floor_phi(a + 1)

        for a in patterns:
            for x in (h(a), h(a + 1) - 1):
                guess = (x >> sh) // d
                assert abs(guess - a) <= 1, (s, a, x, guess)
                assert guess >= a or floor_phi(a + 1) == floor_phi(a), (s, a)
                assert guess <= a or floor_phi(a + 2) > floor_phi(a + 1), (s, a)
                n = fib(m + 1) - 2 - x
                value = occurrence_count(n)
                if s < 100:
                    assert value == occurrence_count_trace(n)[0] and end_count(n) == reference_walk(n)[0], (m, a, x)
                assert value - occurrence_count(n - 1) == end_count(n), (m, a, x)


@pytest.mark.parametrize("n, step", [(fib(39) - 1, "down, B flat"), (267903349, "down, B rises"),
                                     (267896583, "up")])
def test_count_command_takes_each_chunk_step(n, step, monkeypatch, capsys):
    # through the command's entry point, the one chunk of each n, at place 19,
    # takes the step named: fib(39) - 1 steps down from the extra pattern fib(19)
    from fibpal.cli import main

    chunk, steps = counting._chunk, []

    def recorded(x, place, b):
        view = _Reads(b)
        a, ba, rest = chunk(x, place, view)
        guess = view.read[0]
        steps.append((place[0], "none" if guess == a else "up" if guess < a
                      else "down, B rises" if b[a + 1] > ba else "down, B flat"))
        return a, ba, rest

    monkeypatch.setattr(counting, "_chunk", recorded)
    assert main(["count", "--occurrences", "-n", str(n)]) == 0
    assert steps == [(19, step)]
    _, tail, m, _ = reference_walk(n)
    assert json.loads(capsys.readouterr().out)["value"] == block_prefix_total(m) + tail


def test_peel_matches_the_reference_walk_at_its_edges():
    # where a walk's number of aligned chunks changes, m = 2 + 19 j, at fib(k) + d, up to the table's end,
    # and where 1 .. 4 of occurrence_count's wide steps are above counting._CARRIED (j = 107 .. 114)
    w = counting._PEEL_W
    ks = {2 + j * w + e for j in [*range(12), 50, 107, 109, 111, 113, 150, 262] for e in range(-2, 3)}
    rng = Random(90)
    ns = [fib(k) + d for k in sorted(ks) for d in range(-3, 4) if fib(k) + d >= 2]  # block 1 has no prefix total
    ns += [rng.randint(fib(k) - 1, fib(k + 1) - 2) for k in range(2, 8 * w) for _ in range(3)]
    for n in ns:
        end, tail, m, _ = reference_walk(n)
        assert end_count(n) == end and tail_sum(n) == tail, n
        assert occurrence_count(n) == block_prefix_total(m) + tail, n


def test_peel_tables_are_lazy_small_and_quick():
    # a fresh process: import builds no table, the first count of any n builds
    # them once; a build is timed by the least of three, so that a busy host
    # does not fail it; the ladder's steps are built up to the top one a count
    # takes, none up to n = 28,655 (block 20), three up to 10**18 (top place 76)
    code = """if True:
        import sys, time, tracemalloc
        from fibpal import counting
        assert counting._peel_tables is None
        counting.end_count(1)
        tables = counting._peel_tables
        assert tables is not None
        counting.end_count(28655)
        assert counting._ladder == []
        counting.end_count(10**18)
        assert [step[0] for step in counting._ladder] == [19, 38, 57]
        for n in (1, 2, 7, 10**6, 10**18, 10**1000 + 12345, 10**1100):
            counting.end_count(n), counting.occurrence_count(n), counting.tail_sum(n)
        assert counting._peel_tables is tables
        times = []
        for _ in range(3):
            counting._peel_tables = None
            start = time.perf_counter()
            counting._tables()
            times.append(time.perf_counter() - start)
        assert min(times) <= 0.010, times
        counting._peel_tables = None
        tracemalloc.start()
        counting._tables()
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert held <= 128 * 2**10 and peak <= 2**20, (held, peak)
        assert "numpy" not in sys.modules
        print("ok")
    """
    proc = _run(code)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def test_wide_tables_are_lazy_small_and_quick():
    # a fresh process: no count below block 59, the first whose top place, 57, is a wide
    # step's, builds P and P2; the first count there builds them once, as the ladder first
    # reaches place 3W, in two words per pattern; its work is bounded by count, not by a
    # wall clock that a loaded host can stretch: one pass of ceil(fib(W) / 1,024) blocks of
    # at most 1,024 patterns, each packing its four columns once
    code = """if True:
        import struct, sys, tracemalloc
        from fibpal import counting
        from fibpal.fibword import fib
        for n in (1, 2, 7, 10**6, 10**12, fib(58) - 1, fib(59) - 2):
            counting.end_count(n), counting.occurrence_count(n), counting.tail_sum(n)
        assert counting._wide_tables is None and len(counting._ladder) == 2 and max(counting._runs) == 2
        counting.end_count(fib(59) - 1)
        tables = counting._wide_tables
        assert tables is not None and len(counting._ladder) == len(counting._runs[3]) == 3
        for n in (10**18, 10**100, 10**1000 + 12345, 10**1100):
            counting.end_count(n), counting.occurrence_count(n), counting.tail_sum(n)
        assert counting._wide_tables is tables

        def build():
            counting._wide_tables = None
            del counting._ladder[2:]
            counting._steps(3, 59, fib(59), fib(58))

        packed = []

        class Packs:
            def pack(fmt, *values):
                packed.append(len(values))
                return struct.pack(fmt, *values)

        counting.struct = Packs
        build()
        counting.struct = struct
        blocks = -(-fib(19) // 1024)
        assert len(packed) == 4 * blocks and sum(packed) == 4 * fib(19) and max(packed) == 1024, packed
        assert counting._wide_tables == tables
        tracemalloc.start()
        build()
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert held <= 3 * 8 * fib(19) and peak <= 2**19, (held, peak)
        assert "numpy" not in sys.modules
        print("ok")
    """
    proc = _run(code)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def test_step_caches_do_not_grow_with_query_history():
    # a fresh process counts one n in each top place inside the Fibonacci table: the
    # ladder, the runs and P and P2 hold at most 0.5 MB (each top's own list of wide
    # steps held 3.07 MB), and every run is the ladder's steps down from its top one
    code = """if True:
        import tracemalloc
        from fibpal import counting
        from fibpal.fibword import FIB_TABLE_MAX, fib
        w, tops = counting._PEEL_W, range(FIB_TABLE_MAX // counting._PEEL_W + 1)
        counting._tables(), fib(FIB_TABLE_MAX)
        tracemalloc.start()
        for top in tops:
            counting.end_count(fib(w * top + 2))  # block W top + 2, whose top place is W top
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert held <= 2**19, held
        ladder = counting._ladder
        assert set(counting._runs) == set(tops) and len(ladder) == (len(tops) + 3) // 2
        for top, run in counting._runs.items():
            assert len(run) == min(top, (top + 3) // 2), top
            assert all(step is held for step, held in zip(run, reversed(ladder[:len(run)]))), top
        print("ok")
    """
    proc = _run(code)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def test_first_peels_from_eight_threads(monkeypatch):
    # the tables and the ladder are built by the first walks that peel, each of which
    # takes wide steps: let eight threads race for them
    from concurrent.futures import ThreadPoolExecutor

    rng = Random(8)
    ns = [rng.randrange(10**k, 10 ** (k + 1)) for k in (19, 30, 100, 1000) for _ in range(4)]
    expected = {}
    for n in ns:
        end, tail, m, _ = reference_walk(n)
        expected[n] = (block_prefix_total(m) + tail, end)
    monkeypatch.setattr(counting, "_peel_tables", None)
    monkeypatch.setattr(counting, "_wide_tables", None)
    monkeypatch.setattr(counting, "_ladder", [])
    monkeypatch.setattr(counting, "_runs", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda n: (n, (occurrence_count(n), end_count(n))), ns, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == len(ns) and all(expected[n] == v for n, v in results)
    w = counting._PEEL_W
    top = (fib_floor_index(max(ns) + 1) - 2) // w
    places = [w, 2 * w, *range(3 * w, top * w + 1, 2 * w)]
    assert counting._ladder == [counting._place(s, fib(s), fib(s - 1), fib(s - 2)) for s in places]
    tops = {(fib_floor_index(n + 1) - 2) // w for n in ns}
    assert set(counting._runs) == tops and min(tops) >= 4
    for top, run in counting._runs.items():
        js = [*range(top - 1 | 1, 2, -2), 2, 1]
        assert [step[0] for step in run] == [w * j for j in js], top
        assert all(step is held for step, held in zip(run, reversed(counting._ladder[:len(run)]))), top


def chain_counts(n):
    """(end_count(n), occurrence_count(n)) from the chain intervals alone.

    With lo(m, p) = singular_end_pos(m, p), the intervals K(m, p) = [lo(m, p),
    lo(m, p) + fib(m+1) - 1] are disjoint in p, and each palindrome occurrence
    ending at n is one (m, p) with n in K(m, p).  So with P the largest p with
    lo(m, P) <= n, only K(m, P) can hold n, and K(m, 1) .. K(m, P) are the
    intervals of m that reach into the length-n prefix.
    """
    scale = 1 << n.bit_length()
    end = total = 0
    m, f, f1 = -1, 1, 1  # f = fib(m), f1 = fib(m+1)
    while f + f1 - 1 <= n:  # lo(m, 1) = fib(m+2) - 1
        # pD - 1 < lo(m, p) <= pD + f - 1 with D = f1 + f (sqrt 5 - 1)/2; the
        # denominator below exceeds scale * D, so p starts at most two below P
        p = max(1, (n + 1 - f) * scale // (f1 * scale + floor_phi(f * scale) + 1))
        while singular_end_pos(m, p + 1) <= n:
            p += 1
        lo = singular_end_pos(m, p)
        end += n <= lo + f1 - 1
        total += (p - 1) * f1 + min(f1, n - lo + 1)
        m, f, f1 = m + 1, f1, f + f1
    return end, total


def test_counts_match_chain_interval_derivation():
    rng = Random(2016)
    ns = list(range(1, 3000))
    for k in (6, 18, 100):
        ns += [rng.randrange(10**k, 10 ** (k + 1)) for _ in range(5)]
    ns.append(rng.randrange(10**1000, 10**1001))
    for n in ns:
        assert chain_counts(n) == (end_count(n), occurrence_count(n)), n


def test_counting_memory_stays_bounded():
    # a fresh process, so that no earlier query has filled the table
    code = """if True:
        import tracemalloc
        from random import Random
        from fibpal import counting, fibword
        from fibpal.chain import new_pal_at
        from fibpal.counting import end_count, fib_prefix_total, occurrence_count
        from fibpal.cylinder import pals_of_length
        from fibpal.fibword import fib

        tracemalloc.start()
        end_count(10**20000)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 20 * 2**20, peak
        occurrence_count(10**10000 + 7)
        new_pal_at(10**10000)
        assert pals_of_length(10**10000)
        top = fibword.FIB_TABLE_MAX
        assert len(fibword._fibs) <= top + 2, len(fibword._fibs)
        rng = Random(5002)
        for _ in range(4):
            n = rng.randrange(fib(top), 10**1500)
            assert occurrence_count(n) - occurrence_count(n - 1) == end_count(n), n
        for m in [top + 1, top + 2] + rng.sample(range(top + 3, 7000), 3):
            assert occurrence_count(fib(m)) == fib_prefix_total(m), m
        assert len(fibword._fibs) <= top + 2, len(fibword._fibs)
        print("ok")
    """
    proc = _run(code)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=60)
def test_occurrence_count_additivity(n):
    assert occurrence_count(n) - occurrence_count(n - 1) == end_count(n)


def test_identities_past_the_oracle():
    # exact O(log n) self-consistency where no tree pass can reach
    rng = Random(1601)
    for digits in (30, 150, 200, 1000):
        for _ in range(8):
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            assert occurrence_count(n) - occurrence_count(n - 1) == end_count(n)
    for m in [4700] + rng.sample(range(2, 4700), 30):  # fib(4700) ~ 1e982
        f = fib(m)
        assert occurrence_count(f) == fib_prefix_total(m)
        assert end_count(f - 1) + end_count(f) == m + 1


def test_block_sum_examples():
    assert block_sum(1) == 1
    assert block_sum(4) == 15
    assert block_sum(5) == 30  # sum of the m=5 vector
    assert block_sum(5) == sum(BLOCK_VECTORS[5])


def test_block_sum_matches_brute_force():
    assert block_sum(1) == sum(BLOCK_VECTORS[1])
    assert block_sum(2) == sum(BLOCK_VECTORS[2])
    for m in range(3, 26):
        assert block_sum(m) == sum(end_count_block(m))


def test_block_sum_recursion():
    for m in range(3, 60):
        assert block_sum(m) == block_sum(m - 1) + block_sum(m - 2) + fib(m - 1)


def test_block_prefix_total_examples():
    assert block_prefix_total(2) == 1  # total through position 1
    assert block_prefix_total(3) == 4
    assert block_prefix_total(6) == 56
    with pytest.raises(DomainError):
        block_prefix_total(1)


def test_block_prefix_total_matches_brute_force():
    running = 0
    blocks = {1: BLOCK_VECTORS[1], 2: BLOCK_VECTORS[2]}
    for m in range(2, 26):
        running += sum(blocks.get(m - 1) or end_count_block(m - 1))
        assert block_prefix_total(m) == running


def test_fib_prefix_total_examples():
    assert fib_prefix_total(2) == 4
    assert fib_prefix_total(5) == 32
    assert fib_prefix_total(6) == 63


def test_fib_prefix_total_matches_brute_force():
    for m in range(2, 26):
        assert fib_prefix_total(m) == occurrence_count(fib(m))
        assert fib_prefix_total(m) == block_prefix_total(m) + end_count(fib(m) - 1) + end_count(fib(m))


def test_end_count_near_fib():
    assert end_count_near_fib(2) == (1, 1, 2)
    assert end_count_near_fib(5) == (4, 3, 3)
    assert end_count_near_fib(6) == (5, 3, 4)
    for m in range(2, 26):
        e2, e1, e0 = end_count_near_fib(m)
        assert e2 == end_count(fib(m) - 2)
        assert e1 == end_count(fib(m) - 1)
        assert e0 == end_count(fib(m))
        assert e1 + e0 == m + 1


def test_telescoping():
    for m in range(2, 101):
        assert block_prefix_total(m + 1) - block_prefix_total(m) == block_sum(m)


def test_convolution_identity():
    assert convolution_identity_holds(1)
    assert convolution_identity_holds(2)
    assert convolution_identity_holds(20)
    for m in range(1, 26):
        assert convolution_identity_holds(m)


def _run(code, *flags):
    src = str(Path(counting.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env)


def _run_optimized(code):
    return _run(code, "-O")


def test_invariant_checks_survive_optimize_flag():
    proc = _run_optimized("from fibpal import counting; print(counting._div5(7))")
    assert proc.returncode != 0 and "AssertionError" in proc.stderr


def _last_pattern(n):
    """The pattern of n's last chunk: X's digits at places 0 .. 18, X = fib(m+1) - 2 - n."""
    m = fib_floor_index(n + 1)
    return sum(fib(p) for p in zeckendorf(fib(m + 1) - 2 - n) if p < counting._PEEL_W)


@pytest.mark.parametrize("n", [10**1000 + 12345, 10**5000 + 12345], ids=["1e1000", "1e5000"])
def test_head_exactness_check_catches_faults(monkeypatch, n):
    # T1 one too large at the pattern of n's last chunk: 5 times the count comes out one too large;
    # at 1e5000 the sum is past str()'s digit limit, and the message still names it
    pop, b, t1 = counting._tables()
    t1 = array("i", t1)
    t1[_last_pattern(n)] += 1
    with monkeypatch.context() as mp:
        mp.setattr(counting, "_peel_tables", (pop, b, t1))
        with pytest.raises(AssertionError, match="not divisible by 5"):
            occurrence_count(n)
    assert occurrence_count(n) - occurrence_count(n - 1) == end_count(n)


def test_head_exactness_check_survives_optimize_flag():
    n = 10**1000 + 12345
    proc = _run_optimized(
        "from array import array; from fibpal import counting; pop, b, t1 = counting._tables(); "
        f"t1 = array('i', t1); t1[{_last_pattern(n)}] += 1; counting._peel_tables = pop, b, t1; "
        f"counting.occurrence_count({n})"
    )
    assert proc.returncode != 0 and "not divisible by 5" in proc.stderr


def test_divisibility_assertions_pass_at_scale():
    for m in range(2, 501):
        block_sum(m)
        block_prefix_total(m)
        fib_prefix_total(m)
        counting._div5((m - 11) * fib(m - 1) + (m + 1) * fib(m - 3))


def test_split_cell_examples():
    step = split_cell(4, 1)
    assert (step.left.m, step.left.p) == (2, 3)
    assert (step.right.m, step.right.p) == (3, 2)
    assert (step.left.lo, step.left.hi) == (20, 24)
    assert (step.right.lo, step.right.hi) == (25, 32)
    step = split_cell(1, 1)
    assert (step.left.m, step.left.p, step.left.lo, step.left.hi) == (-1, 3, 4, 4)
    assert (step.right.m, step.right.p, step.right.lo, step.right.hi) == (0, 2, 5, 6)
    step = split_cell(2, 1)
    assert (step.left.m, step.left.p) == (0, 3)
    assert (step.right.m, step.right.p) == (1, 2)
    with pytest.raises(DomainError):
        split_cell(0, 1)


def test_split_cell_partitions():
    for m in range(1, 13):
        for p in range(1, 101):
            parent, left, right = split_cell(m, p)
            assert (left.lo, left.hi + 1, right.hi) == (parent.lo, right.lo, parent.hi)


# p from 1 up to 10**1000, where the carried floors reach ~1,000 digits
SPLIT_PS = [1, 2, 3, 7, 10, 199, 10**9 + 7, 10**18, 10**18 + 7, 10**100 + 3, 10**1000, 10**1000 + 1]
SPLIT_PS += [Random(26).randrange(10**k, 10**(k + 1)) for k in (12, 60, 300, 1000)]


def test_split_and_reduce_match_the_tau_images():
    for p in SPLIT_PS:
        for m in range(1, 16):
            assert split_cell(m, p) == (chain_interval(m, p), *split_children(m, p))
        assert reduce_cell(p) == reduction(p)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 10])
def test_expansions_match_the_tau_images(m):
    for p in SPLIT_PS:
        assert expand_leaves(m, p) == split_leaves(m, p)
        for depth in (None, 0, 1, 3):
            assert expand_cell(m, p, depth, include_reduce=True) == split_tree(m, p, depth, include_reduce=True)
    assert expand_cell(200, 10**50, 4, include_reduce=True) == split_tree(200, 10**50, 4, include_reduce=True)


def leaf_off_its_cell(m: int, p: int):
    """The first leaf of expand_leaves(m, p) that is not chain_interval at its own (m, p), or None."""
    return next((leaf for leaf in expand_leaves(m, p) if leaf != chain_interval(leaf.m, leaf.p)), None)


@pytest.mark.parametrize("m, p", [(14, 10**18), (12, 10**100), (10, 10**1000)]
                         + [(12, Random(7).randrange(10**k, 10**(k + 1))) for k in (20, 50, 200, 999)])
def test_carried_floors_at_big_p(m, p):
    # every leaf's position comes from floors carried down from the root's one
    # floor_phi; chain_interval takes a floor_phi of its own p, ~p wide
    assert leaf_off_its_cell(m, p) is None


def carry_a_wrong_floor(monkeypatch, at: int):
    """Make the split step carry the left child's floor off by one out of every cell with p = at."""
    real = counting._split

    def split(m, p, q, lo):
        (lm, lp, lq, llo), right = real(m, p, q, lo)
        return (lm, lp, lq + (p == at), llo), right

    monkeypatch.setattr(counting, "_split", split)


def test_a_wrong_carried_floor_is_caught(monkeypatch):
    from fibpal import verify

    carry_a_wrong_floor(monkeypatch, 10**1000)
    # the children of the root still start where they should; their own splits do not
    assert split_cell(10, 10**1000) == (chain_interval(10, 10**1000), *split_children(10, 10**1000))
    assert leaf_off_its_cell(10, 10**1000) is not None
    monkeypatch.undo()
    carry_a_wrong_floor(monkeypatch, 7)
    res = verify.verify_tau(max_m=5, max_p=20)
    assert not res.ok and res.counterexample == {"m": 1, "p": 7}


def test_reduce_cell_examples():
    child = reduce_cell(1)
    assert (child.m, child.p, child.lo) == (-1, 2, 3)
    child = reduce_cell(2)
    assert (child.m, child.p, child.lo) == (-1, 4, 6)
    child = reduce_cell(5)
    assert (child.m, child.p, child.lo, child.hi) == (-1, 9, 14, 14)
    for p in range(1, 200):
        assert reduce_cell(p).lo == chain_interval(0, p).hi


def test_expand_leaves_tile_the_cell():
    for m in range(1, 10):
        iv = chain_interval(m, 1)
        expect = iv.lo
        leaves = expand_leaves(m, 1)
        assert len(leaves) == fib(m)
        for leaf in leaves:
            assert leaf.m in (-1, 0)
            assert leaf.lo == expect
            expect = leaf.hi + 1
        assert expect == iv.hi + 1


@pytest.mark.parametrize("e", [1000, 2000, 4000])
def test_trace_peak_stays_under_its_charge(e, monkeypatch):
    # before it walks, the trace charges the cap once for its m steps, each at
    # _STEP_BYTES and two ints of n's width; its tracemalloc peak stays under that
    n = 10**e + 12345
    check, charged = counting.check_cap, []
    monkeypatch.setattr(counting, "check_cap", lambda k, what, unit=1: (charged.append(k * unit), check(k, what, unit)))
    occurrence_count_trace(10**6)
    charged.clear()
    tracemalloc.start()
    try:
        occurrence_count_trace(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = fib_floor_index(n + 1)
    assert charged == [m * (counting._STEP_BYTES + 2 * (n.bit_length() // 8))]
    assert peak <= charged[0], (peak, charged)


def test_trace_refuses_past_the_cap(monkeypatch, capsys):
    # at a 10**6-byte cap the trace at 10**2000 + 1 (9,569 steps) is refused before it
    # walks, through the API and through the command (exit 2); 10**200 is still traced
    from fibpal.cli import main

    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", str(10**6))
    assert occurrence_count_trace(10**200)[0] == occurrence_count(10**200)
    with pytest.raises(ResourceError, match="^count trace of 9569 items of 1980 bytes exceeds"):
        occurrence_count_trace(10**2000 + 1)
    assert main(["count", "--occurrences", "-n", str(10**2000 + 1), "--trace"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "count trace of 9569 items" in captured.err


def test_expansion_respects_materialize_cap(monkeypatch):
    # a leaf is charged the bytes it holds: ~200 in expand_leaves, ~850 in
    # expand_cell, more when its positions are wide
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", str(1000 * 850))
    with pytest.raises(ResourceError):
        expand_leaves(20, 1)  # fib(20) = 17,711 leaves
    with pytest.raises(ResourceError):
        expand_cell(20, 1, depth=None)
    with pytest.raises(ResourceError):
        expand_cell(20, 1, depth=10)  # 2**10 leaves
    assert expand_cell(20, 1, depth=9)["m"] == 20
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", str(1000 * 200))
    assert len(expand_leaves(14, 1)) == fib(14) == 987
    with pytest.raises(ResourceError, match="^cell expansion of 1597 items of"):
        expand_leaves(15, 1)
    with pytest.raises(ResourceError):
        expand_leaves(14, 10**1000)  # ~1,000-digit positions


def test_count_past_fib_table_limit():
    # 10**100000 has block index ~478,500, past fibword.FIB_INDEX_MAX; the
    # refusal comes before the Fibonacci table grows
    size = len(fibword._fibs)
    with pytest.raises(ResourceError):
        occurrence_count(10**100000)
    with pytest.raises(ResourceError):
        fib_floor_index(10**100000)
    assert len(fibword._fibs) == size
    m = fib_floor_index(10**10000)  # still inside the limit
    assert fib(m) <= 10**10000 < fib(m + 1)


def test_expand_cell_tree_shape():
    tree = expand_cell(4, 1, depth=1)
    assert [c["m"] for c in tree["children"]] == [2, 3]
    assert "children" not in expand_cell(4, 1, depth=0)
    with pytest.raises(DomainError):
        expand_cell(4, 1, depth=-1)
    full = expand_cell(4, 1, depth=None, include_reduce=True)

    def collect(node, leaves, reduced):
        if "children" in node:
            for ch in node["children"]:
                collect(ch, leaves, reduced)
        else:
            leaves.append((node["m"], node["p"]))
            if "reduces_to" in node:
                reduced.append(node["reduces_to"]["p"])

    leaves, reduced = [], []
    collect(full, leaves, reduced)
    assert leaves == [(0, 8), (-1, 14), (0, 9), (-1, 16), (0, 10), (0, 11), (-1, 19), (0, 12)]
    assert sorted(reduced + [p for m, p in leaves if m == -1]) == list(range(13, 21))


def test_concurrent_counting_queries(monkeypatch):
    # the walk reads the shared Fibonacci table without a lock: start from a
    # fresh table so that some threads walk on it while another grows it
    from concurrent.futures import ThreadPoolExecutor

    rng = Random(3)
    ns = list(range(1, 400)) + [10**9 + k for k in range(50)]
    ns += [rng.randrange(10**1000, 10**1001) for _ in range(12)] + [rng.randrange(10**4000, 10**4001) for _ in range(3)]
    rng.shuffle(ns)
    expected = {n: (occurrence_count(n), end_count(n)) for n in ns}
    monkeypatch.setattr(fibword, "_fibs", [1, 1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda n: (n, (occurrence_count(n), end_count(n))), ns, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == len(ns) and all(expected[n] == v for n, v in results)


def test_suffix_palindromes_repeat_across_cells():
    # palindromic suffixes with kernel index <= m agree between the i-th
    # element of cell (m, p) and the i-th element of cell (m, 1)
    text = prefix(1100)
    _, lens, link, _, node = fill(text)

    def kernel_bounded_suffixes(pos, m):
        out = set()
        for length in suffix_lengths(lens, link, node[pos - 1]):
            w = text[pos - length: pos]
            if kernel(w).m <= m:
                out.add(w)
        return out

    for m in range(-1, 7):
        for p in range(1, 21):
            lo = chain_interval(m, p).lo
            lo1 = chain_interval(m, 1).lo
            for i in range(1, fib(m + 1) + 1):
                pos_p = lo + i - 1
                pos_1 = lo1 + i - 1
                if pos_p > len(text) or pos_1 > len(text):
                    continue
                assert kernel_bounded_suffixes(pos_p, m) == kernel_bounded_suffixes(pos_1, m)
