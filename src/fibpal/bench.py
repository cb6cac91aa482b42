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


def time_tree(n: int) -> tuple[float, int]:
    """Seconds for one full tree pass over the length-n prefix."""
    t0 = time.perf_counter()
    scan = oracle.scan_prefix(n)
    elapsed = time.perf_counter() - t0
    return elapsed, int(scan.end_counts.sum())


def run_bench(ns: list[int], repeat: int = 5) -> list[BenchRow]:
    """Benchmark each n: the median of ``repeat`` occurrence_count(n) queries
    against one tree pass, in one row with both totals."""
    if repeat < 1:
        raise DomainError(f"repeat must be >= 1, got {show_int(repeat)}")
    rows = []
    for n in ns:
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            closed_v = counting.occurrence_count(n)
            times.append(time.perf_counter() - t0)
        tree_s, tree_v = time_tree(n)
        rows.append(BenchRow(n, sorted(times)[repeat // 2], tree_s, closed_v, tree_v))
    return rows
