"""Benchmarks: closed-form counting vs. the tree oracle, numba vs. fallback."""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import counting, kernels, oracle
from .errors import DomainError


@dataclass
class BenchRow:
    n: int
    backend: str
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
        raise DomainError(f"repeat must be >= 1, got {repeat}")
    times = []
    value = 0
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = counting.occurrence_count(n)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2], value


def time_tree(n: int, fill) -> tuple[float, int]:
    """Seconds for one full tree pass over the length-n prefix."""
    t0 = time.perf_counter()
    scan = oracle.scan_prefix(n, fill=fill)
    elapsed = time.perf_counter() - t0
    return elapsed, int(scan.end_counts.sum())


def run_bench(ns: list[int], compare_backends: bool = False, repeat: int = 5) -> list[BenchRow]:
    """Benchmark each n; optionally time both kernel backends."""
    fills = {kernels.active_backend(): kernels.eertree_fill}
    if compare_backends:
        fills["python"] = kernels.eertree_fill_py
        if kernels.eertree_fill_jit is not None:
            fills["numba"] = kernels.eertree_fill_jit
    if kernels.eertree_fill_jit is not None:
        oracle.scan_prefix(64, fill=kernels.eertree_fill_jit)  # compile outside timings
    rows = []
    for n in ns:
        closed_s, closed_v = time_closed(n, repeat)
        for backend, fill in sorted(fills.items()):
            tree_s, tree_v = time_tree(n, fill)
            rows.append(BenchRow(n, backend, closed_s, tree_s, closed_v, tree_v))
    return rows
