import math
import os
import sys
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fibpal import (
    DomainError,
    PalCoord,
    ResourceError,
    check_floor_identities,
    coord_from_pal,
    fib,
    floor_phi,
    is_factor,
    kernel,
    letter_at,
    pal_from_coord,
    palindromic_conjugates,
    prefix,
    prefix_palindrome_lengths,
    singular_word,
)
from fibpal import counting, fibword, oracle
from fibpal.kernels import floor_phi_block


def morphism_iterate(m: int) -> str:
    # independent oracle: literal application of a -> ab, b -> a
    s = "a"
    for _ in range(m):
        s = "".join("ab" if ch == "a" else "a" for ch in s)
    return s


def test_fib_base_and_values():
    assert fib(-1) == 1
    assert fib(0) == 1
    assert fib(6) == 21
    assert [fib(m) for m in range(-1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_fib_recurrence_and_monotone():
    for m in range(0, 60):
        assert fib(m + 1) == fib(m) + fib(m - 1)
        assert fib(m + 1) > fib(m)


def test_fib_domain():
    with pytest.raises(DomainError):
        fib(-2)
    # an int past ~1,000 digits is named by its size: str() refuses it past 4,300
    with pytest.raises(ResourceError, match=r"^fib index <int of ~21,001 digits> exceeds"):
        fib(10**21000)
    with pytest.raises(DomainError, match=r"got <negative int of ~21,001 digits>$"):
        fib(-10**21000)
    with pytest.raises(DomainError, match=r"got -10{1000}$"):
        fib(-10**1000)


def test_fib_floor_index():
    assert fibword.fib_floor_index(1) == 0
    assert fibword.fib_floor_index(2) == 1
    assert fibword.fib_floor_index(3) == 2
    assert fibword.fib_floor_index(4) == 2
    for m in range(1, 30):
        assert fibword.fib_floor_index(fib(m)) == m
        assert fibword.fib_floor_index(fib(m + 1) - 1) == m
    for x in (0, -1, -10**21000):
        with pytest.raises(DomainError, match="fib_floor_index needs x >= 1"):
            fibword.fib_floor_index(x)


def test_fib_past_the_table():
    top = fibword.FIB_TABLE_MAX
    fibs = [fib(top - 1), fib(top)]
    for _ in range(40):  # stepped here, not read from fibword
        fibs.append(fibs[-1] + fibs[-2])
    for k, value in enumerate(fibs[2:], start=top + 1):
        assert fib(k) == value
        assert fibword.fib_floor_index(value) == k
        assert fibword.fib_floor_index(value - 1) == k - 1
        assert fibword.fib_floor_index(value + fibs[k - top] // 2) == k
    assert fib(top + 1) == fib(top) + fib(top - 1)
    f, g = fib(30000), fib(29999)
    assert fib(30001) == f + g and fibword.fib_floor_index(f + g - 1) == 30000
    # past the table a view holds fib(m - 4) .. fib(m) under the table's indices
    # m - 3 .. m + 1, the deepest any caller reads, and nothing below them
    for m in (top + 1, top + 40, fibword.FIB_INDEX_MAX):
        view = fibword.fibs_through(m)
        assert sorted(view) == list(range(m - 3, m + 2)), m
        for idx, value in view.items():
            assert value == fib(idx - 1), (m, idx)
        with pytest.raises(KeyError):
            view[m - 4]
    assert fibword.fibs_through(top) is fibword._fibs
    assert len(fibword._fibs) == top + 2


def test_prefix_examples():
    assert prefix(0) == ""
    assert prefix(3) == "aba"
    assert prefix(8) == "abaababa"


def test_prefix_is_morphism_fixed_point():
    for m in range(0, 16):
        assert prefix(fib(m)) == morphism_iterate(m)
    assert len(prefix(fib(20))) == fib(20)


def codes(n: int) -> np.ndarray:
    """The length-n prefix as a uint8 array with a -> 0, b -> 1."""
    return np.frombuffer(prefix(n).encode("ascii"), dtype=np.uint8) - ord("a")


def test_prefix_table_boundary(monkeypatch):
    t = len(fibword._TABLE)
    assert t == fib(fibword.PREFIX_TABLE_M)
    built = morphism_iterate(fibword.PREFIX_TABLE_M + 2)
    assert len(built) >= 2 * t + 3
    for n in (0, 1, t - 1, t, t + 1, 2 * t + 3):
        assert prefix(n) == built[:n]
        assert codes(n).tolist() == [int(c == "b") for c in built[:n]]
    # the table does not bypass the cap
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", "1000")
    for n in (5000, t + 1):
        with pytest.raises(ResourceError):
            prefix(n)
        with pytest.raises(ResourceError):
            oracle.scan_prefix(n)
    assert prefix(1000) == built[:1000]


def test_letter_at_examples():
    assert letter_at(1) == "a"
    assert letter_at(5) == "b"
    assert letter_at(12) == "a"
    with pytest.raises(DomainError):
        letter_at(0)


def test_letter_at_agrees_with_prefix_small():
    s = prefix(3000)
    for n in range(1, 3001):
        assert letter_at(n) == s[n - 1]


def test_letter_at_agrees_with_prefix_bulk():
    n = 10**5
    arr = codes(n)
    ps = np.arange(1, n + 2, dtype=np.int64)
    floors = floor_phi_block(ps)
    letters = np.where(np.diff(floors) == 1, 0, 1).astype(np.uint8)
    assert (letters == arr).all()


def test_count_a_examples_and_scan():
    # floor_phi(n + 1) counts the a's of the length-n prefix, the fact letter_at relies on
    assert floor_phi(2) == 1
    assert floor_phi(4) == 2
    assert floor_phi(9) == 5
    s = prefix(2000)
    for n in range(0, 2001):
        assert floor_phi(n + 1) == s[:n].count("a")


def test_count_a_bulk():
    n = 10**5
    arr = codes(n)
    scans = np.concatenate([[0], np.cumsum(arr == 0)])
    closed = floor_phi_block(np.arange(1, n + 2, dtype=np.int64))
    assert (closed == scans).all()


def test_floor_phi_examples():
    assert floor_phi(0) == 0
    assert floor_phi(1) == 0
    assert floor_phi(3) == 1
    assert floor_phi(5) == 3
    with pytest.raises(DomainError):
        floor_phi(-1)


@given(st.integers(min_value=1, max_value=2**4200))
def test_floor_phi_squared_inequality(p):
    # k = floor(phi*p) iff (2k+p)^2 <= 5p^2 < (2k+p+2)^2, an exact restatement;
    # the range runs past the precision of floor_phi's fixed-point phi
    k = floor_phi(p)
    assert (2 * k + p) ** 2 <= 5 * p * p < (2 * k + p + 2) ** 2


def test_floor_phi_takes_each_path_exactly(monkeypatch):
    # floor_phi answers by one product unless p < 2**30, p is past the
    # precision of its fixed-point phi, or the product's 64 guard bits cannot
    # decide the floor, as for nearly every fib(k) with k >= 92; each path
    # must give the root formula
    roots = []
    monkeypatch.setattr(fibword, "math", SimpleNamespace(isqrt=lambda n: roots.append(n) or math.isqrt(n)))
    bits = fibword._PHI.bit_length()  # the precision of _PHI
    ps = [fib(k) + d for k in range(-1, 5001) for d in (-1, 0, 1)]
    ps += [2**30 - 1, 2**30, 2**30 + 1, 2**(bits - 64) - 1, 2**(bits - 64) + 1]  # bit lengths 30, 31, 31, bits - 64, bits - 63
    took_root = {}
    for p in ps:
        roots.clear()
        assert floor_phi(p) == (math.isqrt(5 * p * p) - p) // 2, p
        took_root[p] = bool(roots)
    assert took_root[2**30 - 1] and not took_root[2**30] and not took_root[2**30 + 1]
    assert not took_root[2**(bits - 64) - 1] and took_root[2**(bits - 64) + 1]
    # the guard sends fib values inside the precision back to the root
    assert 2**30 <= fib(92) and fib(5000).bit_length() + 64 <= bits
    assert any(took_root[fib(k)] for k in range(92, 5001))


@given(st.integers(min_value=0, max_value=10**18))
def test_floor_phi_monotone_steps(p):
    step = floor_phi(p + 1) - floor_phi(p)
    assert step in (0, 1)


@given(st.integers(min_value=1, max_value=10**18))
def test_floor_identities_hold(p):
    assert all(check_floor_identities(p).values())


def test_floor_identities_examples():
    assert all(check_floor_identities(1).values())
    assert all(check_floor_identities(7).values())
    assert all(check_floor_identities(10**6).values())
    with pytest.raises(DomainError):
        check_floor_identities(0)


def test_materialize_cap(monkeypatch):
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", "500")
    with pytest.raises(ResourceError):
        prefix(501)
    assert len(prefix(500)) == 500
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", "junk")
    with pytest.raises(ResourceError):
        prefix(10)


def test_materialize_cap_follows_every_change(monkeypatch):
    # the cap is parsed from the environment on every call, so each change shows on the next one
    for raw, ok_len in (("500", 500), ("1000", 1000), ("500", 500)):
        monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", raw)
        assert len(prefix(ok_len)) == ok_len
        with pytest.raises(ResourceError):
            prefix(ok_len + 1)
    for raw in ("junk", "junk", "0", "-3"):  # a bad value raises on every call
        monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", raw)
        with pytest.raises(ResourceError):
            prefix(10)
    monkeypatch.delenv("FIBPAL_MAX_MATERIALIZE")
    assert len(prefix(501)) == 501


def test_each_call_reads_the_cap_once(monkeypatch):
    reads = []
    parse = fibword.materialize_cap

    def counted(raw):
        reads.append(raw)
        return parse(raw)

    monkeypatch.setattr(fibword, "materialize_cap", counted)
    calls = [
        (prefix, 50), (singular_word, 9),
        (pal_from_coord, PalCoord(5, 2)), (palindromic_conjugates, 6), (oracle.scan_prefix, 100),
        (counting.expand_leaves, 12, 1), (counting.expand_cell, 12, 1), (counting.expand_cell, 12, 1, 3, True),
        (counting.end_count_block, 10), (prefix_palindrome_lengths, 10**5),
        (kernel, prefix(700)[5:]), (is_factor, "abaababb"), (coord_from_pal, pal_from_coord(PalCoord(9, 30))),
    ]
    for fn, *args in calls:
        reads.clear()
        fn(*args)
        assert len(reads) == 1, fn.__name__
    # a capped call still raises, naming the request
    word = pal_from_coord(PalCoord(5, 2))  # 51 letters, whose coordinate reads 96
    monkeypatch.setenv("FIBPAL_MAX_MATERIALIZE", "20")
    for fn, arg, what in ((singular_word, 8, "singular word"), (pal_from_coord, PalCoord(5, 2), "palindrome construction"),
                          (palindromic_conjugates, 6, "conjugate enumeration"), (oracle.scan_prefix, 21, "prefix scan"),
                          (prefix, 21, "prefix"), (coord_from_pal, word, "palindrome coordinate")):
        with pytest.raises(ResourceError, match=f"^{what} of length"):
            fn(arg)
    assert len(singular_word(5)) == 13 and len(prefix(20)) == 20


CAP_VAR = "FIBPAL_MAX_MATERIALIZE"


def assert_cap_follows_os_environ():
    # check_cap answers or refuses exactly as materialize_cap(os.environ.get(...)) says
    try:
        cap = fibword.materialize_cap(os.environ.get(CAP_VAR))
    except ResourceError as exc:
        for n in (1, 10**9):
            with pytest.raises(ResourceError) as refused:
                fibword.check_cap(n)
            assert str(refused.value) == str(exc)
        return
    fibword.check_cap(cap)
    with pytest.raises(ResourceError, match="exceeds materialization cap"):
        fibword.check_cap(cap + 1)


def test_cap_read_follows_every_change_to_os_environ(monkeypatch):
    monkeypatch.delenv(CAP_VAR, raising=False)  # restored after the test
    assert_cap_follows_os_environ()
    changes = [
        lambda: monkeypatch.setenv(CAP_VAR, "700"),
        lambda: monkeypatch.delenv(CAP_VAR),
        lambda: os.environ.__setitem__(CAP_VAR, "800"),
        lambda: os.environ.__delitem__(CAP_VAR),
        lambda: os.environ.update({CAP_VAR: "junk"}),
        lambda: os.environ.update({CAP_VAR: "900"}),
        lambda: os.environ.pop(CAP_VAR),
        lambda: os.environ.setdefault(CAP_VAR, "0"),
        lambda: os.environ.setdefault(CAP_VAR, "1000"),  # already set: stays "0"
        lambda: os.environ.pop(CAP_VAR),
        lambda: os.environ.setdefault(CAP_VAR, "1000"),
    ]
    for change in changes:
        change()
        assert_cap_follows_os_environ()
    assert os.environ[CAP_VAR] == "1000"


@pytest.mark.skipif(not os.supports_bytes_environ, reason="os.environb is POSIX only")
def test_undecodable_cap_is_refused_like_junk(monkeypatch):
    monkeypatch.setitem(os.environb, os.fsencode(CAP_VAR), b"\xff12")
    assert_cap_follows_os_environ()
    with pytest.raises(ResourceError, match="is not an integer"):
        prefix(10)


def test_unset_cap_raises_no_exception_on_the_word_path(monkeypatch):
    monkeypatch.delenv(CAP_VAR, raising=False)
    w, c = prefix(300)[7:], PalCoord(8, 11)
    raised = []

    def local(frame, event, arg):
        if event == "exception":
            raised.append((frame.f_code.co_name, arg[0].__name__))
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        prefix(10)
        kernel(w)
        pal_from_coord(c)
    finally:
        sys.settrace(old)
    assert raised == []


def test_prefix_domain():
    with pytest.raises(DomainError):
        prefix(-1)
