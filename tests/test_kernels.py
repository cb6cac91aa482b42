import numpy as np
import pytest

from fibpal import floor_phi
from fibpal import kernels, oracle, verify


def test_backend_reported():
    assert kernels.active_backend() == "python"


def test_floor_phi_block_matches_scalar():
    rng = np.random.default_rng(7)
    ps = rng.integers(0, kernels.FAST_FLOOR_MAX, size=2000, dtype=np.int64)
    ps[:3] = (0, 1, kernels.FAST_FLOOR_MAX)
    block = kernels.floor_phi_block(ps)
    for p, v in zip(ps.tolist(), block.tolist()):
        assert v == floor_phi(p)


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
    monkeypatch.setattr(kernels, "floor_phi_block", lambda x: true_block(x) + (x == bad))
    assert kernels.floor_identity_scan(1, bad + 3000) == first
    # from past every smaller failure, the fault shows in the second block
    lo = near[1] + 4
    assert bad - lo >= chunk
    assert kernels.floor_identity_scan(lo, bad + 3000) == bad
    assert kernels.floor_identity_scan(bad, bad + 3000) == bad
    r = verify.verify_floors(bad + 3000)
    assert not r.ok and r.counterexample["p"] == first


def test_eertree_fill_arbitrary_text():
    # the kernel is not Fibonacci-specific; richness can fail, sizes cannot
    text = bytes([0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1])
    nodes, lens, link, depth, node = kernels.eertree_fill(text)
    s = "".join("ab"[c] for c in text)
    assert nodes - 2 == len(oracle.naive_palindrome_set(s))
    assert [depth[v] for v in node] == oracle.center_end_counts(s)
    assert max(node) == nodes - 1
