"""Spans recorded from outside the package, at its layer boundaries.

The tracer replaces module attributes with timing wrappers, so a call that
crosses from one module into another through an imported name is seen
without touching the package's source.  Spans stay in memory as tuples
(name, start_ns, end_ns, parent index, query id, size) and are written out
once the run ends.

Functions that call themselves by their global name (counting.tail_sum,
counting.expand_leaves) are never wrapped: every wrapper adds a Python frame
per level, which would lower the reach of the recursion limit and change
which queries fail.  The walk inside counting is observed by counting calls
to the block locator instead, which adds one frame at the leaf only.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def first_arg(args) -> int:
    return int(args[0])


def _array_len(args) -> int:
    return len(args[0])


def _scan_range(args) -> int:
    return int(args[1]) - int(args[0]) + 1


# (module, attribute, span name, size of the work in the call).
BOUNDARIES = (
    ("fibword", "floor_phi", "fibword.floor_phi", None),
    ("chain", "floor_phi", "fibword.floor_phi", None),
    ("fibword", "fib_floor_index", "fibword.fib_floor_index", None),
    ("chain", "fib_floor_index", "fibword.fib_floor_index", None),
    ("fibword", "prefix", "fibword.prefix", first_arg),
    ("fibword", "prefix_array", "fibword.prefix", first_arg),
    ("singular", "prefix", "fibword.prefix", first_arg),
    ("oracle", "prefix", "fibword.prefix", first_arg),
    ("oracle", "prefix_array", "fibword.prefix", first_arg),
    ("verify", "prefix", "fibword.prefix", first_arg),
    ("singular", "is_factor", "singular.is_factor", None),
    ("singular", "singular_word", "singular.singular_word", None),
    ("singular", "kernel", "singular.kernel", None),
    ("cylinder", "kernel", "singular.kernel", None),
    ("cylinder", "singular_word", "singular.singular_word", None),
    ("oracle", "kernel", "singular.kernel", None),
    ("oracle", "singular_word", "singular.singular_word", None),
    ("oracle", "scan_prefix", "oracle.scan_prefix", first_arg),
    ("oracle", "occurrences", "oracle.occurrences", None),
    ("kernels", "eertree_fill", "kernels.eertree_fill", _array_len),
    ("kernels", "floor_identity_scan", "kernels.floor_identity_scan", _scan_range),
)

# Calls that are only counted, per query: the block locator once per step of
# the counting walk.
COUNTERS = (("counting", "fib_floor_index", "counting.walk_steps"),)


class Tracer:
    """Span recorder; install() wraps the boundaries, uninstall() restores them."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.qid = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._saved: list = []

    def span(self, name: str, fn, size=None):
        """Wrap fn so each call records one span; size(args) measures its work."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                n = size(args) if size else 0
                spans[idx] = (name, t0, t1, parent, self.qid, n)

        return traced

    def _counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(key, self.qid)] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, modname: str, attr: str, make) -> None:
        mod = importlib.import_module(f"fibpal.{modname}")
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{modname}.{attr}")
            return
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def install(self) -> None:
        for modname, attr, name, size in BOUNDARIES:
            self._patch(modname, attr, lambda fn, name=name, size=size: self.span(name, fn, size))
        for modname, attr, key in COUNTERS:
            self._patch(modname, attr, lambda fn, key=key: self._counter(key, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def summarize(spans: list) -> dict:
    """Per span name: calls, total seconds, self seconds and work size.

    Self time is a span's duration minus the time its direct child spans
    cover; children nest strictly inside their parent on one thread."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s is not None and s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    out: dict = {}
    for k, s in enumerate(spans):
        if s is None:  # a call cut short before its span was stored
            continue
        name, t0, t1, _, _, size = s
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
        row["calls"] += 1
        row["total_s"] += (t1 - t0) / 1e9
        row["self_s"] += (t1 - t0 - child_ns[k]) / 1e9
        row["size"] += size
    return out


def write_spans(path, spans: list) -> None:
    """One tab-separated line per span: name, start, end, parent, query, size."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\tquery\tsize\n")
        for s in filter(None, spans):
            fh.write("\t".join(map(str, s)) + "\n")
