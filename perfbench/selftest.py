"""Tests of the benchmark's own output; they never look at timing values.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's default test collection:
each case runs the benchmark in a subprocess and takes a while.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(HERE))
import run as bench_run  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 1234, seconds: float = 1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = bench_run.record_path(workload, seed, trace)
    return last, json.loads(record.read_text(encoding="utf-8"))


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][0] == "python3" and len(SPEC["command"]) <= 32
    assert all((ROOT / p).is_dir() for p in SPEC["paths"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert sorted(WORKLOADS) == sorted(bench_run.workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert bench_run.distribution(list(range(1000)))["tail"]["p"] == 99.0
    assert bench_run.distribution(list(range(999)))["tail"]["p"] == 90.0
    assert bench_run.distribution(list(range(19)))["tail"] is None
    assert bench_run.distribution(list(range(100_000)))["tail"]["p"] == 99.99


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_schema_and_repeatable_counters(workload):
    plain, plain_rec = run_bench(workload, 0)
    traced, traced_rec = run_bench(workload, 1)
    for out, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0
        assert type(out["attempted"]) is int and out["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
        for v in out["metrics"].values():
            assert type(v["value"]) in (int, float)
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    # tracing must not change what the program computes
    assert plain_rec["fingerprints"] == traced_rec["fingerprints"]
    assert plain_rec["counters"] == traced_rec["counters"]
    assert "policy" in plain_rec["fingerprints"] and len(plain_rec["fingerprints"]) >= 2


def test_counters_and_fingerprints_repeat_across_runs():
    _, first = run_bench("churn", 0, seed=7)
    _, second = run_bench("churn", 0, seed=7)
    assert first["fingerprints"] == second["fingerprints"]
    assert first["counters"] == second["counters"]
    _, other = run_bench("churn", 0, seed=8)
    assert other["fingerprints"]["policy"] != first["fingerprints"]["policy"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
