"""fibpal benchmark: one workload per call, or all four.

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  Each workload runs in worker processes, one
at a time (perfbench/worker.py, with PYTHONPATH=src), each answering one
seeded chunk of inputs in a closed loop.  --seconds fixes the work of the
run (inputs.plan), so counts repeat exactly from run to run.  The
parent then checks the answers that need the palindromic tree, aggregates,
and prints the environment, one line per metric (value, unit, sample
count), and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json for the named
workload.  --trace 1 reports the per-layer metrics instead.  Those are facts
about layers, so a traced run traces all four workloads, each on its own
share of the work: every chunk runs once untraced and once traced, which
gives the tracing overhead and checks that tracing does not change which
queries fail.  Spans go to perfbench/out/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import inputs as I
from checks import reach, tree_status
from worker import child_env, now

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Latency charged on top of a failed or wrong query's own time: it missed
# the limit.  ROADMAP's gate for a 1e18 count is 50 ms.
LIMIT_US = 50_000.0

# Calibration time (worker.calibrate) at the nominal host speed.  The host
# this benchmark was written on drifts in speed by 10-40 % within minutes,
# and the drift, not the program, then sets the spread of wall-clock
# latencies from run to run.  So latencies are reported at the nominal
# speed: a worker's latencies are multiplied by CAL_NOMINAL_NS over that
# worker's median calibration time, sampled between its operations.  Set-up
# time stays wall-clock: interpreter start and imports track the
# calibration poorly.
CAL_NOMINAL_NS = 1_400_000

# Tail percentile per workload: the highest with about ten or more samples
# beyond it in a 25 s run, except oracle-sweep, whose 25 rounds leave two or
# three beyond p90.
TAIL = {"point-queries": 99, "word-queries": 99, "oracle-sweep": 90, "cli-spawn": 90}

# Every run ends within this many seconds of its start, or fails.
HARD_LIMIT_S = 165


class WorkerError(RuntimeError):
    pass


def run_worker(spec: dict, stop: float) -> dict:
    """Spawn one worker (its own process group) and return its result; kill
    it and everything it started if it is still running at time stop."""
    spec = dict(spec, t_spawn=now(), out_dir=str(OUT / "trace"))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(stop - now(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{spec['workload']} worker still running {HARD_LIMIT_S} s into the run")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"{spec['workload']} worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


class TreeRef:
    """One oracle.scan_prefix pass and the morphism-built text beside it."""

    def __init__(self, n: int):
        import numpy as np

        sys.path.insert(0, str(ROOT / "src"))
        from fibpal import oracle

        scan = oracle.scan_prefix(n)
        self.text = I.word_prefix(n)
        self.end_counts = scan.end_counts
        self.totals = np.cumsum(scan.end_counts, dtype=np.int64)
        self.max_suffix = scan.max_suffix


def check_tree(results: list[dict]) -> None:
    """Resolve every "tree" verdict against one tree pass."""
    items = [(res, item) for res in results for item in res.get("tree", [])]
    if not items:
        return
    ref = TreeRef(max(reach(op, args) for _, (_, op, args, _) in items))
    for res, (k, op, args, ans) in items:
        res["status"][k] = tree_status(op, args, ans, ref)


def quantile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_workload(workload: str, seed: int, seconds: float, stop: float) -> list[dict]:
    """Untraced worker processes over the successive chunks of the run's plan."""
    results = [run_worker({"workload": workload, "seed": seed, "chunk": chunk,
                           "limit": size, "trace": False}, stop)
               for chunk, size in enumerate(I.plan(workload, seconds))]
    check_tree(results)
    return results


def tally(results: list[dict]) -> dict:
    """Verdict counts over answered operations, and non-ok ones per kind."""
    counts, by_kind = Counter(), Counter()
    for r in results:
        for s, kind in zip(r["status"], r["kind"]):
            counts[s] += 1
            if s != "ok":
                by_kind[kind] += 1
    return {"attempted": sum(counts.values()), "failed": counts["failed"] + counts["wrong"],
            "wrong": counts["wrong"], "failed_by_kind": dict(sorted(by_kind.items()))}


def host_factor(result: dict) -> float:
    """Multiplier that takes one worker's latencies to the nominal host speed."""
    return CAL_NOMINAL_NS / statistics.median(result["cal_ns"])


def kind_median(groups: dict) -> float:
    """Median over kinds of each kind's median."""
    return statistics.median(statistics.median(v) for v in groups.values())


def by_kind(result: dict) -> dict:
    out: dict = {}
    for us, kind in zip(result["latency_us"], result["kind"]):
        out.setdefault(kind, []).append(us)
    return out


def end_to_end(workload: str, results: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics and the verdict counts of one untraced run.

    Latencies are at the nominal host speed (CAL_NOMINAL_NS).  A failed or
    wrong operation is charged LIMIT_US on top of its own time.
    The median is taken per kind of query first, then over the kinds: the
    kinds of a workload differ in cost by orders of magnitude, and the plain
    median of such a mixture falls in the gap between two kinds, where it
    jumps from run to run.  The tail is taken over all operations."""
    kinds: dict = {}
    wall: dict = {}
    for r in results:
        f = host_factor(r)
        if workload == "oracle-sweep":  # the unit of work is one round; any bad op taints it
            charge = LIMIT_US if any(s != "ok" for s in r["status"]) else 0.0
            kinds.setdefault("round", []).append(r["latency_us"][0] * f + charge)
            wall.setdefault("round", []).append(r["latency_us"][0] + charge)
            continue
        for us, s, kind in zip(r["latency_us"], r["status"], r["kind"]):
            charge = LIMIT_US if s != "ok" else 0.0
            kinds.setdefault(kind, []).append(us * f + charge)
            wall.setdefault(kind, []).append(us + charge)
    lat = [us for v in kinds.values() for us in v]
    counts = tally(results)
    counts["kinds"] = len(kinds)
    counts["tail_percentile"] = TAIL[workload]
    counts["host_factor"] = statistics.median(host_factor(r) for r in results)
    counts["latency_p50_wall_us"] = kind_median(wall)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s", len(results)),
        "latency_p50_us": (kind_median(kinds), "us", len(lat)),
        "latency_tail_us": (quantile(lat, TAIL[workload]), "us", len(lat)),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in results) / 1024, "MB", len(results)),
    }
    return metrics, counts


def traced(seed: int, seconds: float, stop: float) -> tuple[dict, dict, list[str], dict]:
    """Per-layer metrics of all four workloads, each on a quarter of the work."""
    layers, counts, absent, env = {}, Counter(), [], {}
    share = seconds / len(I.WORKLOADS)
    for workload in I.WORKLOADS:
        spec = {"workload": workload, "seed": seed, "chunk": 0, "limit": I.plan(workload, share)[0]}
        base = run_worker(dict(spec, trace=False), stop)
        spans = run_worker(dict(spec, trace=True), stop)
        check_tree([base, spans])
        for r in (base, spans):
            t = tally([r])
            counts["attempted"] += t["attempted"]
            counts["failed"] += t["failed"]
            counts["wrong"] += t["wrong"]
        if tally([base])["failed_by_kind"] != tally([spans])["failed_by_kind"]:
            counts["trace_mismatch"] += 1
        layers.update(spans["layers"])
        absent += spans.get("absent", [])
        env.update(base["env"])
        if workload in ("point-queries", "word-queries"):
            b, s = kind_median(by_kind(base)), kind_median(by_kind(spans))
            layers[f"trace.overhead_pct.{workload}"] = (s / b - 1) * 100
        elif workload == "oracle-sweep":
            layers["trace.overhead_pct.oracle-sweep"] = (spans["latency_us"][0] / base["latency_us"][0] - 1) * 100
    return layers, counts, absent, env


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*I.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fibpal" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src' / 'fibpal'}", file=sys.stderr)
        return 2

    stop = now() + HARD_LIMIT_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through run_worker's cleanup
    env = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha()}
    try:
        if args.trace:
            layers, counts, absent, worker_env = traced(args.seed, args.seconds, stop)
            env.update(worker_env)
            units = declared("per_layer")
            metrics = {name: (layers.get(name, 0.0), unit, None) for name, unit in units.items()}
            absent += sorted(set(units) - set(layers))
            correct = counts["wrong"] == 0 and counts["trace_mismatch"] == 0
            summary = {"absent": sorted(set(absent)), "trace_mismatch": counts["trace_mismatch"]}
        else:
            workloads = I.WORKLOADS if args.workload == "all" else (args.workload,)
            metrics, counts, summary = {}, Counter(), {}
            for wl in workloads:
                results = run_workload(wl, args.seed, args.seconds, stop)
                env.update(results[0]["env"])
                m, c = end_to_end(wl, results)
                prefix = f"{wl}." if args.workload == "all" else ""
                metrics.update({prefix + k: v for k, v in m.items()})
                metrics[prefix + "failed_ratio"] = (c["failed"] / c["attempted"], "ratio", c["attempted"])
                summary[wl] = c
                for k in ("attempted", "failed", "wrong"):
                    counts[k] += c[k]
            correct = counts["wrong"] == 0
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"env": env, "summary": summary}, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit:<6}" + (f" n={n}" if n else ""))
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "summary": summary,
              "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if not args.trace and args.workload != "all":  # the result line carries the declared metrics only
        units = declared("end_to_end")
        metrics = {k: v for k, v in metrics.items() if k in units}
    print(json.dumps({
        "correct": correct,
        "attempted": int(counts["attempted"]),
        "failed": int(counts["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
