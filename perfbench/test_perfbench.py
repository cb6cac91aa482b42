"""Self-check of the benchmark at a tiny size.

    python3 -m pytest perfbench

One seed must always yield byte-identical workload inputs, and a short run
of every workload, and a short traced run, must print every metric
BENCHMARK.json names, with its unit.  Without the package source the
benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

DIGEST = """
import hashlib, json, sys
sys.path.insert(0, "perfbench")
import inputs as I
seed = int(sys.argv[1])
data = [I.chunk_inputs(w, seed, c) for w in I.WORKLOADS for c in (-1, 0, 1)]
print(hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest())
"""


def digest(seed: int, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, "-c", DIGEST, str(seed)], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_one_seed_gives_byte_identical_inputs():
    assert digest(7, "1") == digest(7, "2")
    assert digest(7, "1") != digest(8, "1")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res: dict, declared: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    res = result(run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    check_metrics(res, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    res = result(run("--workload", "cli-spawn", "--seed", "3", "--seconds", "2", "--trace", "1"))
    check_metrics(res, SPEC["per_layer"])


def test_fails_without_the_package_source():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = run("--workload", "point-queries", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
