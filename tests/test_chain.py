import re
import sys
from random import Random

import pytest
from hypothesis import given, strategies as st

from fibpal import (
    DomainError,
    PalCoord,
    ResourceError,
    chain_interval,
    coord_from_pal,
    distinct_count,
    fib,
    floor_phi,
    kernel,
    new_pal_at,
    pal_end_pos,
    pal_from_coord,
    pal_span,
    pals_of_length,
    prefix,
    prefix_palindrome_lengths,
    singular_end_pos,
    singular_start_pos,
    singular_word,
)
from fibpal import fibword, oracle
from fibpal.fibword import fibs_through


def test_singular_end_pos_examples():
    assert singular_end_pos(-1, 3) == 4
    assert singular_end_pos(2, 3) == 20
    for m in range(-1, 10):
        assert singular_end_pos(m, 1) == fib(m + 2) - 1


def test_singular_positions_match_scans(prefix_10k):
    for m in range(-1, 9):
        starts = oracle.occurrence_starts(prefix_10k, singular_word(m))
        for p in range(1, min(31, len(starts) + 1)):
            assert singular_end_pos(m, p) == starts[p - 1] + fib(m)
            assert singular_start_pos(m, p) == starts[p - 1] + 1


def test_pal_end_pos_examples():
    assert pal_end_pos(PalCoord(2, 4), 1) == 8
    assert pal_end_pos(PalCoord(4, 12), 1) == 21
    for p in (1, 2, 10):
        assert pal_end_pos(PalCoord(-1, 1), p) == singular_end_pos(-1, p)


def test_pal_end_pos_checks_each_argument_once(monkeypatch):
    views = []

    def counted(m):
        views.append(m)
        return fibs_through(m)

    monkeypatch.setattr(fibword, "fibs_through", counted)
    for m, i, p in ((5, 3, 7), (-1, 1, 1), (0, 1, 4), (8, 55, 10**30)):
        expect = singular_end_pos(m, p) + fib(m + 1) - i
        views.clear()
        assert pal_end_pos(PalCoord(m, i), p) == expect
        assert views == [m + 1]  # one view, for the bound on i and the offset
    # the coordinate is checked before p, and every message names the bad value
    for c, p, msg in ((PalCoord(-2, 1), 0, "kernel index must be >= -1, got -2"),
                      (PalCoord(2, 6), 0, "i must lie in [1, fib(3)=5], got 6"),
                      (PalCoord(2, 0), 1, "i must lie in [1, fib(3)=5], got 0"),
                      (PalCoord(2, 4), 0, "occurrence index must be >= 1, got 0")):
        with pytest.raises(DomainError, match=re.escape(msg)):
            pal_end_pos(c, p)


def test_queries_raise_in_the_checks_order():
    # each query raises its first bad argument's message, whichever function states the check
    for c, p, msg in ((PalCoord(-2, 1), 0, "kernel index must be >= -1, got -2"),
                      (PalCoord(2, 6), 0, "i must lie in [1, fib(3)=5], got 6"),
                      (PalCoord(2, 4), 0, "occurrence index must be >= 1, got 0")):
        with pytest.raises(DomainError, match=re.escape(msg)):
            pal_span(c, p)
    for m, p, msg in ((-2, 0, "kernel index must be >= -1, got -2"), (0, 0, "occurrence index must be >= 1, got 0")):
        with pytest.raises(DomainError, match=re.escape(msg)):
            chain_interval(m, p)
    # past the index limit fib(m+1) is refused: after p's check for a kernel
    # index, before it for a coordinate, whose check on i needs fib(m+1)
    big = fibword.FIB_INDEX_MAX + 1
    for query in (lambda: chain_interval(big, 1), lambda: singular_end_pos(big, 1),
                  lambda: pal_end_pos(PalCoord(big, 1), 0), lambda: pal_span(PalCoord(big, 1), 0)):
        with pytest.raises(ResourceError, match=re.escape(f"fib index {big + 1} exceeds the index limit")):
            query()
    # a span's length needs fib(m+3), refused there even for a valid coordinate
    with pytest.raises(ResourceError, match=re.escape(f"fib index {big} exceeds the index limit")):
        pal_span(PalCoord(big - 3, 1), 1)


def test_closed_forms_across_the_table_edge(monkeypatch):
    # past fibword.FIB_TABLE_MAX a view holds the five values at and below its index; from a fresh table,
    # the queries below the edge grow it as they go
    monkeypatch.setattr(fibword, "_fibs", [1, 1])
    top = fibword.FIB_TABLE_MAX
    for m in range(top - 4, top + 5):
        for p in (1, 2, 10**30):
            lo = singular_end_pos(m, p)
            assert lo == p * fib(m + 1) + (floor_phi(p) + 1) * fib(m) - 1
            assert chain_interval(m, p) == (m, p, lo, lo + fib(m + 1) - 1)
            for i in (1, 2, fib(m + 1)):
                end = pal_end_pos(PalCoord(m, i), p)
                assert end == lo + fib(m + 1) - i
                assert pal_span(PalCoord(m, i), p) == (end - fib(m + 3) + 2 * i + 1, end)
    assert len(fibword._fibs) == top + 2


def test_concurrent_closed_form_queries(monkeypatch):
    # as test_counting's walk test: the chain, kernel and coordinate queries read
    # the shared Fibonacci table without a lock, so start from a fresh table
    # that some threads read while another grows it
    from concurrent.futures import ThreadPoolExecutor

    rng = Random(5)
    text = prefix(20000)
    queries = [(chain_interval, m, p) for m in [*range(-1, 300, 3), 4999, 5003] for p in (1, 7, 10**30)]
    queries += [(pal_span, PalCoord(m, fib(m + 1) // 2 + 1), p) for m in range(-1, 300, 5) for p in (1, 10**30)]
    queries += [(kernel, text[s:s + n]) for n, s in ((rng.randrange(1, 1001), rng.randrange(10000)) for _ in range(60))]
    queries += [(coord_from_pal, pal_from_coord(c)) for n in range(1, 600, 11) for c in pals_of_length(n)]
    rng.shuffle(queries)
    expected = [f(*args) for f, *args in queries]
    monkeypatch.setattr(fibword, "_fibs", [1, 1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda q: q[0](*q[1:]), queries, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_pal_spans_match_scans(prefix_10k):
    for n in range(1, 41):
        for c in pals_of_length(n):
            w = pal_from_coord(c)
            for p, i in enumerate(oracle.occurrence_starts(prefix_10k, w), start=1):
                assert pal_span(c, p) == (i + 1, i + n)


def test_chain_interval_examples():
    iv = chain_interval(4, 1)
    assert (iv.lo, iv.hi) == (20, 32)
    iv = chain_interval(2, 3)
    assert (iv.lo, iv.hi) == (20, 24)
    iv = chain_interval(-1, 1)
    assert (iv.lo, iv.hi) == (1, 1)


def test_chain_partition_small():
    expect = 1
    for m in range(-1, 21):
        iv = chain_interval(m, 1)
        assert iv.lo == expect
        assert iv.size() == fib(m + 1)
        expect = iv.hi + 1


def test_chain_interval_bijection():
    for m in range(-1, 7):
        for p in range(1, 21):
            iv = chain_interval(m, p)
            ends = {pal_end_pos(PalCoord(m, i), p) for i in range(1, fib(m + 1) + 1)}
            assert ends == set(range(iv.lo, iv.hi + 1))


def test_new_pal_at_examples():
    assert new_pal_at(1) == PalCoord(-1, 1)
    assert pal_from_coord(new_pal_at(1)) == "a"
    assert new_pal_at(8) == PalCoord(2, 4)
    assert pal_from_coord(new_pal_at(8)) == "ababa"
    assert new_pal_at(21) == PalCoord(4, 12)
    assert pal_from_coord(new_pal_at(21)) == "ababaababa"
    with pytest.raises(DomainError):
        new_pal_at(0)


def test_new_pal_at_inverts_first_occurrence_small():
    for n in range(1, 20001):
        assert pal_end_pos(new_pal_at(n), 1) == n


@given(st.integers(min_value=1, max_value=10**15))
def test_new_pal_at_inverts_first_occurrence(n):
    assert pal_end_pos(new_pal_at(n), 1) == n


def test_new_pal_at_is_genuinely_new(scan_2k):
    # only the longest palindromic suffix can be new, and every position has
    # a new palindrome, so the two must coincide
    for n in range(1, 2001):
        assert scan_2k.max_suffix[n - 1] == new_pal_at(n).length()


def test_prefix_palindromes_start_at_one():
    lens = set(prefix_palindrome_lengths(3000))
    for n in range(1, 3001):
        starts_at_one = pal_span(new_pal_at(n), 1).start == 1
        assert starts_at_one == (n in lens)


def test_distinct_count(scan_10k):
    assert distinct_count(1) == 1
    assert distinct_count(3) == 3
    assert distinct_count(10**4) == 10**4
    assert int(scan_10k.distinct[-1]) == 10**4
    with pytest.raises(DomainError):
        distinct_count(0)


def test_domain_errors():
    with pytest.raises(DomainError):
        singular_end_pos(-2, 1)
    with pytest.raises(DomainError):
        singular_end_pos(0, 0)
    with pytest.raises(DomainError):
        chain_interval(2, 0)
