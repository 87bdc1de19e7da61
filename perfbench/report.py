"""Print every benchmark metric with its unit and sample count.

    python3 perfbench/report.py [--workload NAME ...] [--seed 1234] [--seconds 10]

Runs each workload (all of them by default) once untraced and once traced,
then prints, per metric, the reported value, the number of samples behind
it, their median and the highest percentile that still has at least ten
samples beyond it ("-" when there are fewer than twenty samples). The
fingerprints and deterministic counters of each run follow. Exits 1 if
any run fails its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import record_path  # noqa: E402


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed on {workload} (trace {trace})")
    return json.loads(record_path(workload, seed, trace).read_text(encoding="utf-8"))


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_record(rec: dict) -> None:
    kind = "per-layer (traced)" if rec["trace"] else "end-to-end (untraced)"
    print(f"\n## {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  {kind}")
    print(f"correct={rec['correct']}  attempted={rec['attempted']}  failed={rec['failed']}")
    for p in rec["problems"]:
        print(f"  problem: {p}")
    print(f"{'metric':36s} {'unit':6s} {'value':>14s} {'samples':>8s} {'median':>14s}  tail")
    for name, m in rec["metrics"].items():
        d = rec["distributions"][name]
        tail = f"p{d['tail']['p']:g}={fmt(d['tail']['value'])}" if d["tail"] else "-"
        print(f"{name:36s} {m['unit']:6s} {fmt(m['value']):>14s} {d['n']:>8d} {fmt(d['median']):>14s}  {tail}")
    if not rec["trace"]:
        print("fingerprints: " + json.dumps(rec["fingerprints"], sort_keys=True))
        print("counters:     " + json.dumps(rec["counters"], sort_keys=True))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)
    ok = True
    for workload in args.workload or names:
        for trace in (0, 1):
            rec = run_record(workload, args.seed, args.seconds, trace)
            print_record(rec)
            ok = ok and rec["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
