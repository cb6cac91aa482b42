import random
import tracemalloc

import numpy as np
import pytest

from fibpal import floor_phi
from fibpal import kernels, verify
from naive import center_end_counts, center_palindrome_spans, fill, naive_palindrome_set, node_words


def test_backend_reported():
    assert kernels.active_backend() == "python"


def test_floor_phi_block_matches_scalar():
    rng = np.random.default_rng(7)
    ps = rng.integers(0, kernels.FAST_FLOOR_MAX, size=2000, dtype=np.int64)
    ps[:3] = (0, 1, kernels.FAST_FLOOR_MAX)
    block = kernels.floor_phi_block(ps)
    for p, v in zip(ps.tolist(), block.tolist()):
        assert v == floor_phi(p)


def test_floor_phi_block_corrects_a_high_seed():
    # every p <= 2 fib(38) whose float64 root of 5p**2 truncates one too high,
    # fib(38) first; no p <= 3e8 has a seed one too low
    ps = np.array([102_334_155, 133_957_148, 173_045_317, 204_668_310], dtype=np.int64)
    n = 5 * ps * ps
    assert (np.sqrt(n).astype(np.int64) ** 2 > n).all()
    assert kernels.floor_phi_block(ps).tolist() == [floor_phi(p) for p in ps.tolist()]


def test_floor_phi_block_leaves_its_input_unchanged():
    # a read-only array, which any write into the input would trip
    ps = np.arange(kernels.FAST_FLOOR_MAX - 3000, kernels.FAST_FLOOR_MAX + 1, dtype=np.int64)
    ps.flags.writeable = False
    before = ps.copy()
    block = kernels.floor_phi_block(ps)
    assert np.array_equal(ps, before)
    assert block[-1] == floor_phi(kernels.FAST_FLOOR_MAX)


def test_floor_phi_block_overflow_guard():
    with pytest.raises(OverflowError):
        kernels.floor_phi_block(np.array([kernels.FAST_FLOOR_MAX + 1], dtype=np.int64))


def test_floor_identity_scan_clean():
    assert kernels.floor_identity_scan(1, 3000) == 0
    # two blocks, the second partial, and near the sweep's machine-width bound
    assert kernels.floor_identity_scan(1, kernels.SCAN_CHUNK + 3000) == 0
    hi = kernels.FAST_SCAN_MAX
    assert kernels.floor_identity_scan(hi - 200, hi) == 0


def test_floor_identity_scan_catches_a_wrong_floor(monkeypatch):
    # floor(phi*x) made one too large at x = bad; the arguments p+q, 2p+q,
    # p+q+1 and 2p+q+1 of a smaller p can reach bad first, so the expected
    # answer is the first p failing under the same fault, scalar-wise.  Only a
    # p with some argument equal to bad can fail: p = bad, or p near bad/phi**2
    # or bad/phi.
    chunk = kernels.SCAN_CHUNK
    bad = 3 * chunk + 1234  # past phi**2 blocks, so that no failure falls in the first block
    true_block = kernels.floor_phi_block

    def wrong(x):
        return floor_phi(x) + (x == bad)

    def holds(p):
        q = wrong(p)
        return (wrong(p + q) == p - 1 and wrong(2 * p + q) == p + q
                and wrong(p + q + 1) == p and wrong(2 * p + q + 1) == p + q)

    near = (bad - floor_phi(bad), floor_phi(bad), bad)  # bad/phi**2, bad/phi and bad, floored
    first = min(p for c in near for p in range(c - 3, c + 4) if not holds(p))
    # the first failure sits in the second block of a sweep from 1
    assert chunk < first <= bad
    monkeypatch.setattr(kernels, "floor_phi_block", lambda x, **bufs: true_block(x, **bufs) + (x == bad))
    assert kernels.floor_identity_scan(1, bad + 3000) == first
    # from past every smaller failure, the fault shows in the second block
    lo = near[1] + 4
    assert bad - lo >= chunk
    assert kernels.floor_identity_scan(lo, bad + 3000) == bad
    assert kernels.floor_identity_scan(bad, bad + 3000) == bad
    r = verify.verify_floors(bad + 3000)
    assert not r.ok and r.counterexample["p"] == first


@pytest.mark.parametrize("offset", [-1, 0])
def test_floor_identity_scan_wrong_floor_at_a_block_edge(monkeypatch, offset):
    # a sweep from lo puts bad last in its first block (offset -1) or first in
    # its second (offset 0); every other p failing under the fault lies near
    # bad/phi**2 or bad/phi (see above), below lo
    chunk = kernels.SCAN_CHUNK
    lo = 3 * chunk + 1
    bad = lo + chunk + offset
    assert floor_phi(bad) + 4 < lo
    true_block = kernels.floor_phi_block
    monkeypatch.setattr(kernels, "floor_phi_block", lambda x, **bufs: true_block(x, **bufs) + (x == bad))
    assert kernels.floor_identity_scan(lo, bad + 3000) == bad
    assert kernels.floor_identity_scan(lo, bad) == bad


def test_floor_identity_scan_memory():
    # blocks of SCAN_CHUNK values; at 2**19 values a block peaked at 30.4 MB here
    kernels.floor_identity_scan(1, 100)
    tracemalloc.start()
    try:
        bad = kernels.floor_identity_scan(1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bad == 0 and peak < 4 * 2**20


def _fill_words():
    # the kernel is not Fibonacci-specific, and the Fibonacci prefix almost
    # never follows a suffix link: these words reach both walks and the
    # sentinel before the text
    yield from ("", "a", "b", "ab", "ba", "aab", "abb", "aabbabaabbb")
    for k in (2, 3, 7, 60):
        yield from ("a" * k, "b" * k, "ab" * k, "ba" * k + "b", "a" * k + "b" + "a" * k, "aab" * k)
    rng = random.Random(22)
    for _ in range(300):
        yield "".join(rng.choice("ab") for _ in range(rng.randint(0, 300)))


def _longest_pal_suffix(t):
    return next(k for k in range(len(t), -1, -1) if t[len(t) - k:] == t[len(t) - k:][::-1])


def test_eertree_fill_arbitrary_text():
    # richness can fail, sizes cannot
    for s in _fill_words():
        nodes, lens, link, depth, node = fill(s)
        assert nodes - 2 == len(naive_palindrome_set(s)), s
        assert [depth[v] for v in node] == center_end_counts(s), s
        longest = [0] * len(s)  # the longest palindrome ending at each position
        for i, j in center_palindrome_spans(s):
            longest[j] = max(longest[j], j - i + 1)
        assert [lens[v] for v in node] == longest, s
        word = node_words(s, lens, node)
        assert sorted(word) == list(range(2, nodes)), s
        for v, w in word.items():
            assert lens[link[v]] == _longest_pal_suffix(w[1:]), (s, w)
