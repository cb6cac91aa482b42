"""Benchmarks: closed-form counting vs. one palindromic-tree pass over the prefix."""

from __future__ import annotations

import time
from typing import NamedTuple

from . import counting, oracle
from .errors import DomainError, show_int


class BenchRow(NamedTuple):
    n: int
    closed_seconds: float
    tree_seconds: float
    closed_value: int
    tree_value: int

    @property
    def speedup(self) -> float:
        return self.tree_seconds / self.closed_seconds if self.closed_seconds else float("inf")


def time_closed(n: int, repeat: int = 5) -> tuple[float, int]:
    """Median seconds for one occurrence_count(n) query."""
    if repeat < 1:
        raise DomainError(f"repeat must be >= 1, got {show_int(repeat)}")
    times = []
    value = 0
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = counting.occurrence_count(n)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2], value


def time_tree(n: int) -> tuple[float, int]:
    """Seconds for one full tree pass over the length-n prefix."""
    t0 = time.perf_counter()
    scan = oracle.scan_prefix(n)
    elapsed = time.perf_counter() - t0
    return elapsed, int(scan.end_counts.sum())


def run_bench(ns: list[int], repeat: int = 5) -> list[BenchRow]:
    """Benchmark each n: one row with both timings and both totals."""
    rows = []
    for n in ns:
        closed_s, closed_v = time_closed(n, repeat)
        tree_s, tree_v = time_tree(n)
        rows.append(BenchRow(n, closed_s, tree_s, closed_v, tree_v))
    return rows
