"""One worker process of a benchmark run: set up, answer one chunk, check.

    PYTHONPATH=src python3 perfbench/worker.py '<json spec>'

run from the repository root.  The spec names the workload, seed, chunk,
the monotonic time the parent spawned this process, how many of the chunk's
operations to answer, and whether to trace.  The worker prints one JSON
line: set-up time, host calibration samples, per-query latencies and
verdicts, peak RSS, the answers the parent checks against the tree, and,
when traced, per-layer figures.

The timed loop holds one client in a closed loop: the next call starts only
after the last one returned.  Answers are checked after the loop.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import inputs as I
from spans import Tracer, first_arg, summarize, write_spans

# Span names of the API calls the benchmark makes itself.
LAYER_OF = {
    "occurrence_count": "counting.occurrence_count",
    "end_count": "counting.end_count",
    "new_pal_at": "chain.new_pal_at",
    "letter_at": "fibword.letter_at",
    "pal_span": "chain.pal_span",
    "chain_interval": "chain.chain_interval",
    "kernel": "singular.kernel",
    "is_factor": "singular.is_factor",
    "coord_from_pal": "cylinder.coord_from_pal",
    "pal_from_coord": "cylinder.pal_from_coord",
    "pals_of_length": "cylinder.pals_of_length",
}
COUNTING_OPS = ("occurrence_count", "end_count")

IMPORT_PROBE = "import sys; b = len(sys.modules); import fibpal.cli; print(len(sys.modules) - b)"
IMPORT_SPAWNS = 5

# A calibration sample is taken between timed operations at most this often.
CAL_PERIOD_NS = 50_000_000
CAL_MOD = 10**200


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _step(a: int, b: int) -> int:
    return a + b if a < b else a - b


def calibrate() -> int:
    """Nanoseconds for a fixed piece of interpreter work that shares no code
    with fibpal: a sample of how fast the host runs this process right now.
    Half is big-int arithmetic with dict stores and str slices, half is
    small Python calls, as in the package's heavy and light operations."""
    t0 = time.perf_counter_ns()
    d, s, x = {}, "ab" * 64, 3**300
    for i in range(1000):
        d[i & 255] = s[i & 63: (i & 63) + 40]
        x = (x * 7 + i) % CAL_MOD
    y = 0
    for i in range(6000):
        y = _step(y, i & 1023)
    return time.perf_counter_ns() - t0


class HostClock:
    """Calibration samples between timed operations, never inside one: one
    at the start, then at most one per CAL_PERIOD_NS, then one at the end."""

    def __init__(self):
        self.samples = [calibrate()]
        self.last = time.perf_counter_ns()

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter_ns() - self.last >= CAL_PERIOD_NS:
            self.samples.append(calibrate())
            self.last = time.perf_counter_ns()


def peak_rss_kb(who=resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_maxrss


def env_record(fp) -> dict:
    import numpy

    return {
        "backend": fp.kernels.active_backend(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def kind_of(q: dict) -> str:
    """Queries of one kind share an operation and, for point queries, a
    magnitude class."""
    return f"{q['op']}.{q['cls']}" if "cls" in q else q["op"]


def api_call(fp, q: dict):
    """The package function and arguments for one query."""
    op, a = q["op"], q["args"]
    fn = getattr(fp, op)
    if op == "pal_span":
        return fn, (fp.PalCoord(a[0], a[1]), a[2])
    if op == "pal_from_coord":
        return fn, (fp.PalCoord(*a),)
    return fn, tuple(a)


def timed_loop(calls, domain_error, host, tracer=None):
    """Closed loop over calls, with host calibration samples between them.
    Every exception is caught and kept as an error answer, without its
    traceback (which would pin every frame of a deep recursion in memory)."""
    lat, results = [], []
    clock = time.perf_counter_ns
    for qid, (fn, args) in enumerate(calls):
        if tracer is not None:
            tracer.qid = qid
        t0 = clock()
        try:
            r = fn(*args)
            t1 = clock()
            results.append((r, False))
        except Exception as exc:
            t1 = clock()
            results.append((checks.error_answer(exc, domain_error), True))
        lat.append((t1 - t0) / 1e3)
        host.tick()
    host.tick(force=True)
    return lat, results


def _mean_us(acc, key) -> float:
    calls, ns, _ = acc.get(key, (0, 0, 0))
    return ns / calls / 1e3 if calls else 0.0


def _span_totals(spans, key_of):
    acc: dict = defaultdict(lambda: [0, 0, 0])
    for s in filter(None, spans):
        row = acc[key_of(s)]
        row[0] += 1
        row[1] += s[2] - s[1]
        row[2] += s[5]
    return {k: tuple(v) for k, v in acc.items()}


def _save_trace(spec, tracer) -> None:
    out = Path(spec["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    write_spans(out / f"{spec['workload']}.tsv", tracer.spans)
    (out / f"{spec['workload']}-summary.json").write_text(json.dumps(summarize(tracer.spans), indent=1, sort_keys=True))


def memo_entries(fp) -> int | None:
    """Entries in the counting memo, or None once the memo is gone."""
    info = getattr(getattr(fp.counting, "tail_sum", None), "cache_info", None)
    return info().currsize if info else None


def point_layers(queries, results, tracer, memo) -> tuple[dict, list]:
    def key(s):
        return s[0], queries[s[4]]["cls"] if s[4] >= 0 else None

    acc = _span_totals(tracer.spans, key)
    steps, counted, failed = defaultdict(int), defaultdict(int), defaultdict(int)
    for (key, qid), k in tracer.counts.items():
        if qid >= 0 and queries[qid]["op"] in COUNTING_OPS:
            steps[queries[qid]["cls"]] += k
    for q, (_, raised) in zip(queries, results):
        if q["op"] in COUNTING_OPS:
            counted[q["cls"]] += 1
            failed[q["cls"]] += raised
    out = {}
    for cname, _ in I.CLASSES:
        for name in ("fibword.floor_phi", "fibword.letter_at", "fibword.fib_floor_index",
                     "counting.occurrence_count", "counting.end_count",
                     "chain.new_pal_at", "chain.pal_span", "chain.chain_interval"):
            out[f"{name}.us.{cname}"] = _mean_us(acc, (name, cname))
        out[f"counting.walk_steps.{cname}"] = steps[cname] / counted[cname] if counted[cname] else 0.0
        out[f"counting.failed.{cname}"] = failed[cname] / counted[cname] if counted[cname] else 0.0
    out["fibword.letters_materialized"] = sum(v[2] for k, v in acc.items() if k[0] == "fibword.prefix")
    out["counting.memo_entries"] = memo or 0
    return out, ["counting.memo_entries"] if memo is None else []


def word_layers(queries, results, tracer) -> tuple[dict, list]:
    acc = _span_totals(tracer.spans, lambda s: s[0])
    out = {}
    for name in ("singular.kernel", "singular.is_factor", "singular.singular_word",
                 "cylinder.coord_from_pal", "cylinder.pal_from_coord", "cylinder.pals_of_length"):
        out[f"{name}.us"] = _mean_us(acc, name)
    calls, ns, letters = acc.get("fibword.prefix", (0, 0, 0))
    out["fibword.letters_per_query.word"] = letters / len(results) if results else 0.0
    out["fibword.prefix.letters_per_s"] = letters / (ns / 1e9) if ns else 0.0
    return out, []


def run_queries(spec, queries, gen_s, warm, mode):
    """point-queries and word-queries: one closed-loop client over the chunk."""
    import fibpal as fp

    queries = queries[: spec["limit"]]
    calls = [api_call(fp, q) for q in queries]
    for fn, args in (api_call(fp, q) for q in warm):
        try:
            fn(*args)
        except Exception:
            pass
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        calls = [(tracer.span(LAYER_OF[q["op"]], fn), args) for q, (fn, args) in zip(queries, calls)]
        tracer.install()
    setup_s = now() - spec["t_spawn"] - gen_s
    host = HostClock()
    lat, results = timed_loop(calls, fp.DomainError, host, tracer)
    rss = peak_rss_kb()
    memo = memo_entries(fp)  # before the checks add their own entries
    if tracer is not None:
        tracer.uninstall()

    answers = [r if raised else checks.canon(q["op"], r) for q, (r, raised) in zip(queries, results)]
    status, tree = [], []
    for k, (q, ans) in enumerate(zip(queries, answers)):
        if mode == "word":
            status.append(checks.word_status(q["op"], q["args"], ans, I.text()))
        elif q["cls"] == I.CLASSES[0][0] and not checks.is_error(ans):
            status.append("tree")
            tree.append([k, q["op"], q["args"], ans])
        else:
            status.append(checks.point_status(fp, q["op"], q["args"], ans))
    res = {
        "setup_s": setup_s,
        "cal_ns": host.samples,
        "latency_us": lat,
        "status": status,
        "kind": [kind_of(q) for q in queries],
        "tree": tree,
        "peak_rss_kb": rss,
        "env": env_record(fp),
    }
    if tracer is not None:
        layers, absent = (point_layers(queries, results, tracer, memo) if mode == "point"
                          else word_layers(queries, results, tracer))
        res["layers"], res["absent"] = layers, absent + tracer.missing
        _save_trace(spec, tracer)
    return res


def run_sweep(spec, data, gen_s):
    """oracle-sweep: one tree pass, then every verification suite."""
    import fibpal as fp
    from fibpal import oracle, verify

    scan_prefix = oracle.scan_prefix
    names = list(verify.SUITES)
    oracle.scan_prefix(64)  # with numba, these two compile the kernels
    if "floors" in names:
        verify.run_suites(["floors"], 100, 2, 2)
    ops = [("oracle.scan_prefix", scan_prefix, (data["n"],))]
    for name in names:
        bounds = tuple(data["suites"].get(name, I.DEFAULT_SUITE_BOUNDS))
        ops.append((f"verify.{name}", verify.run_suites, ([name], *bounds)))
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        ops = [(name, tracer.span(name, fn, first_arg if name == "oracle.scan_prefix" else None), args)
               for name, fn, args in ops]
        tracer.install()
    setup_s = now() - spec["t_spawn"] - gen_s
    host = HostClock()
    lat, results = timed_loop([(fn, args) for _, fn, args in ops], fp.DomainError, host)
    round_us = sum(lat)
    rss = peak_rss_kb()
    if tracer is not None:
        tracer.uninstall()

    status = []
    scan, raised = results[0]
    if raised:
        status.append("failed")
    else:
        n = data["n"]
        try:  # richness, node count, and the tree's totals against the closed forms
            ok = (int(scan.distinct[-1]) == n and scan.nodes == n + 2
                  and int(scan.end_counts.sum()) == fp.occurrence_count(n)
                  and int(scan.max_suffix[-1]) == fp.new_pal_at(n).length())
        except Exception:
            ok = False
        status.append("ok" if ok else "wrong")
    checked = {}
    for name, (r, raised) in zip(names, results[1:]):
        if raised:
            status.append("failed")
            continue
        (r,) = r
        checked[name] = r.checked
        status.append("ok" if r.ok and r.checked > 0 else "wrong")
    res = {
        "setup_s": setup_s,
        "cal_ns": host.samples,
        "latency_us": [round_us],
        "status": status,
        "kind": [name for name, _, _ in ops],
        "peak_rss_kb": rss,
        "env": env_record(fp),
    }
    if tracer is not None:
        acc = _span_totals(tracer.spans, lambda s: s[0])

        def rate(name):
            calls, ns, size = acc.get(name, (0, 0, 0))
            return size / (ns / 1e9) if ns else 0.0

        layers = {
            "oracle.scan_prefix.letters_per_s": rate("oracle.scan_prefix"),
            "oracle.occurrences.busy_s": acc.get("oracle.occurrences", (0, 0, 0))[1] / 1e9,
            "kernels.eertree_fill.letters_per_s": rate("kernels.eertree_fill"),
            "kernels.floor_identity_scan.p_per_s": rate("kernels.floor_identity_scan"),
        }
        for name in I.SUITE_BOUNDS:
            layers[f"verify.{name}.s"] = acc.get(f"verify.{name}", (0, 0, 0))[1] / 1e9
            layers[f"verify.{name}.checked"] = checked.get(name, 0)
        res["layers"], res["absent"] = layers, tracer.missing
        _save_trace(spec, tracer)
    return res


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_record(argv: list[str], env: dict) -> tuple[float, int, str]:
    """Spawn one process; seconds from spawn to its first output line."""
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter_ns()
        rest, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return (t1 - t0) / 1e9, proc.returncode, line + rest + "\0" + err


def record_answer(q: dict, rc: int, out: str):
    """Canonical answer from a CLI exit code and its first output line."""
    if rc == 0:
        try:
            return checks.canon_record(q["op"], json.loads(out.split("\n", 1)[0]))
        except (ValueError, KeyError, TypeError):
            pass
    return {"error": f"exit {rc}", "domain": rc == 2}


def cli_status(cmds, answers):
    """Word answers are judged here; point answers go to the parent's tree."""
    status, tree = [], []
    for k, (q, ans) in enumerate(zip(cmds, answers)):
        if q["op"] in I.WORD_OPS:
            status.append(checks.word_status(q["op"], q["args"], ans, I.text()))
        elif checks.is_error(ans):
            status.append("failed")
        else:
            status.append("tree")
            tree.append([k, q["op"], q["args"], ans])
    return status, tree


def run_cli(spec, cmds, gen_s):
    """cli-spawn: sequential `python -m fibpal.cli` processes, one at a time.

    Traced, the same commands go through cli.main in-process instead, and
    -X importtime spawns break the import cost down by module."""
    env = child_env()
    cmds = cmds[: spec["limit"]]
    if spec["trace"]:
        return traced_cli(spec, cmds, gen_s, env)
    spawn_record(["-m", "fibpal.cli", "fib", "-m", "10"], env)
    setup_s = now() - spec["t_spawn"] - gen_s
    host = HostClock()
    lat, answers = [], []
    for q in cmds:
        secs, rc, out = spawn_record(["-m", "fibpal.cli", *q["argv"]], env)
        lat.append(secs * 1e6)
        answers.append(record_answer(q, rc, out))
        host.tick()
    host.tick(force=True)
    rss = peak_rss_kb(resource.RUSAGE_CHILDREN)

    import fibpal as fp

    status, tree = cli_status(cmds, answers)
    return {"setup_s": setup_s, "cal_ns": host.samples, "latency_us": lat, "status": status, "tree": tree,
            "kind": [kind_of(q) for q in cmds], "peak_rss_kb": rss, "env": env_record(fp)}


def _import_rows(stderr: str) -> dict:
    """Cumulative microseconds per module from -X importtime output."""
    rows = {}
    for m in re.finditer(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)", stderr):
        rows[m.group(3)] = int(m.group(2))
    return rows


def traced_cli(spec, cmds, gen_s, env):
    traced, plain, rows, loaded = [], [], defaultdict(list), []
    for _ in range(IMPORT_SPAWNS):
        secs, _, out = spawn_record(["-X", "importtime", "-c", IMPORT_PROBE], env)
        traced.append(secs)
        stdout, stderr = out.split("\0", 1)
        loaded.append(int(stdout.strip() or 0))
        for mod, us in _import_rows(stderr).items():
            rows[mod].append(us)
        plain.append(spawn_record(["-c", IMPORT_PROBE], env)[0])

    def import_ms(mod):
        return statistics.median(rows[mod]) / 1e3 if rows[mod] else 0.0

    layers = {
        "import.fibpal_ms": import_ms("fibpal"),
        "import.cli_ms": import_ms("fibpal.cli"),
        "import.numpy_ms": import_ms("numpy"),
        "import.modules_loaded": statistics.median(loaded),
        "trace.overhead_pct.cli-spawn": (statistics.median(traced) / statistics.median(plain) - 1) * 100,
    }
    import fibpal as fp
    from fibpal import cli

    setup_s = now() - spec["t_spawn"] - gen_s
    lat, answers = [], []
    for q in cmds:
        buf = io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(q["argv"])
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = -1
        lat.append((time.perf_counter_ns() - t0) / 1e3)
        answers.append(record_answer(q, rc, buf.getvalue()))
    layers["cli.main.us"] = statistics.median(lat)
    status, tree = cli_status(cmds, answers)
    return {"setup_s": setup_s, "latency_us": lat, "status": status, "tree": tree,
            "kind": [kind_of(q) for q in cmds], "peak_rss_kb": peak_rss_kb(), "env": env_record(fp),
            "layers": layers, "absent": [] if rows["numpy"] else ["import.numpy_ms"]}


def main() -> int:
    spec = json.loads(sys.argv[1])
    wl, seed, chunk = spec["workload"], spec["seed"], spec["chunk"]
    g0 = now()
    data = I.chunk_inputs(wl, seed, chunk)
    if wl == "point-queries":
        warm = I.point_inputs(seed, -1, 24)
    elif wl == "word-queries":
        warm = I.word_inputs(seed, -1, 5)
    gen_s = now() - g0
    if wl == "point-queries":
        res = run_queries(spec, data, gen_s, warm, "point")
    elif wl == "word-queries":
        res = run_queries(spec, data, gen_s, warm, "word")
    elif wl == "oracle-sweep":
        res = run_sweep(spec, data, gen_s)
    else:
        res = run_cli(spec, data, gen_s)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
