"""One benchmark run of one hyperpam workload.

    python3 perfbench/run.py --workload {query,churn,audit,sweep} \
        [--seed 1234] [--seconds 20] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``, never from an installed copy. A child process generates
an n=4000 standard policy from ``--seed`` with
``generate(config_for_scale(...))`` and saves it with ``save_policy``, so
that generation stays out of ``peak_rss_mb``. The run then loads the file
several times (the set-up) and runs the workload's closed loop for
``--seconds``. ``HYPERPAM_THREADS`` is removed from the environment, so the
sweep runs its points one after another.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics, taken
from spans recorded at the layer boundaries (see ``tracing.py``). A traced
run first runs half of ``--seconds`` untraced and then half traced; the
difference is the tracing overhead. It also times fresh
``python -m hyperpam.cli check`` processes on the saved file. Correctness checks turn into failed
operations. Fingerprints of inputs and outputs, deterministic counters and
sample counts go to the line before the last and to the run record
(see ``record_path``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
POLICY_N = 4000
SETUP_LOADS = 5  # after one warm-up load
CLI_REPS = 2  # per allow and per deny query
IMPORT_REPS = 3
# layers that timed operations cross; the CLI's self time is cli.self_s
LAYERS = ("serialize", "core", "engine", "detect", "generator", "baselines", "bench")
TAIL_LADDER = (99.999, 99.99, 99.9, 99.0, 90.0, 50.0)


def import_program():
    """Import hyperpam and the test oracle from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "hyperpam" / "__init__.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        raise SystemExit(f"error: no hyperpam sources under {ROOT}")
    sys.path[:0] = [str(src), str(ROOT)]
    import importlib
    from types import SimpleNamespace

    mods = {
        m: importlib.import_module(f"hyperpam.{m}")
        for m in ("core", "serialize", "engine", "detect", "generator", "baselines", "bench", "cli")
    }
    if not Path(mods["core"].__file__).resolve().is_relative_to(src):
        raise SystemExit("error: hyperpam was imported from outside this checkout")
    oracle = importlib.import_module("tests.oracle")
    return SimpleNamespace(**mods), oracle


def record_path(workload: str, seed: int, trace: int) -> Path:
    """Where a run writes its record: metrics, samples, fingerprints, counters."""
    return OUT_DIR / f"run-{workload}-{seed}-t{trace}.json"


def prepare_inputs(seed: int, path: str) -> tuple:
    """Generate the policy and save it to ``path``; returns the ledger and
    whether the saved file loads back to the same bytes.

    Runs in a child process, so that generation's memory does not count in
    the benchmark's ``peak_rss_mb``.
    """
    from hyperpam import generator, serialize

    policy, gt = generator.generate(generator.config_for_scale(POLICY_N, seed=seed))
    serialize.save_policy(policy, path)
    del policy
    with open(path, "rb") as fh:
        saved = fh.read()
    return gt, serialize.dumps_policy(serialize.load_policy(path)).encode("utf-8") == saved


def percentile(sorted_vals: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(p / 100 * len(sorted_vals)) - 1)]


def distribution(samples: list) -> dict:
    """Sample count, median, and the highest percentile with >= 10 samples beyond it."""
    vals = sorted(samples)
    out = {"n": len(vals), "median": statistics.median(vals), "tail": None}
    for p in TAIL_LADDER:
        if len(vals) * (100 - p) / 100 >= 10:
            out["tail"] = {"p": p, "value": percentile(vals, p)}
            break
    return out


def median_or_zero(samples: list) -> float:
    return statistics.median(samples) if samples else 0.0


class Metrics:
    """Collects metric values together with the samples they came from."""

    def __init__(self, declared: list):
        self.units = {m["name"]: m["unit"] for m in declared}
        self.values: dict = {}
        self.dists: dict = {}

    def put(self, name: str, value, samples=None) -> None:
        if name not in self.units:
            raise KeyError(f"metric {name!r} is not declared in BENCHMARK.json")
        self.values[name] = value
        self.dists[name] = distribution(samples) if samples else {"n": 1, "median": value, "tail": None}

    def result(self) -> dict:
        missing = sorted(set(self.units) - set(self.values))
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return {n: {"value": self.values[n], "unit": self.units[n]} for n in self.units}


class Run:
    def __init__(self, args, hp, oracle):
        self.args, self.hp, self.oracle = args, hp, oracle
        self.attempted = 0
        self.failed = 0
        self.tracer = tracing.Tracer() if args.trace else None
        self.workdir = OUT_DIR
        self.workdir.mkdir(exist_ok=True)
        self.policy_path = str(self.workdir / f"policy-{args.seed}-{os.getpid()}.json")

    def tally(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def trace_on(self) -> None:
        if self.tracer:
            tracing.install(self.tracer, self.hp)

    def trace_off(self) -> None:
        if self.tracer:
            self.tracer.unwrap_all()

    def mark(self) -> int:
        return self.tracer.mark() if self.tracer else 0

    # -- inputs and set-up ------------------------------------------------
    def prepare_inputs(self) -> None:
        with ProcessPoolExecutor(max_workers=1, mp_context=get_context("fork")) as pool:
            self.gt, round_trip = pool.submit(prepare_inputs, self.args.seed, self.policy_path).result()
        self.tally(round_trip)
        with open(self.policy_path, "rb") as fh:
            saved = fh.read()
        self.policy_sha, self.policy_len = workloads.sha(saved), len(saved)

    def setup(self) -> None:
        """Load the saved policy several times; the last copy is used."""
        self.load_s = []
        for i in range(SETUP_LOADS + 1):
            self.policy = None  # drop the previous copy before loading the next
            t0 = time.perf_counter()
            self.policy = self.hp.serialize.load_policy(self.policy_path)
            if i:
                self.load_s.append(time.perf_counter() - t0)

    def cli_queries(self) -> dict:
        """The first allowed and the first denied query of the per-user stream."""
        found = {}
        for q in self.hp.bench.build_workload(self.policy, self.gt, "per_user", None, self.args.seed):
            d = self.hp.engine.check_privilege(self.policy, q)
            found.setdefault(d.allowed, (q, d))
            if len(found) == 2:
                break
        return found

    def cli_argv(self, q) -> list:
        v = self.policy.vertex
        return [
            "check", "--policy", self.policy_path, "--user", v(q.user).name, "--op", q.op,
            "--resource", v(q.resource).name, "--at", q.ctx.timestamp.isoformat(),
            "--account", q.ctx.acting_account,
        ]

    def cli_ok(self, code: int, out: str, allowed: bool, decision) -> bool:
        if allowed:
            return code == 0 and out.startswith("ALLOW") and decision.witness.render(self.policy) in out
        return code == 1 and out.startswith("DENY")

    def cli_process(self, found: dict) -> list:
        """Time fresh ``python -m hyperpam.cli check`` processes."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        samples = []
        for _ in range(CLI_REPS):
            for allowed, (q, d) in sorted(found.items()):
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "hyperpam.cli", *self.cli_argv(q)],
                    cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                )
                samples.append(time.perf_counter() - t0)
                self.tally(self.cli_ok(proc.returncode, proc.stdout, allowed, d))
        return samples

    def cli_in_process(self, found: dict) -> None:
        for allowed, (q, d) in sorted(found.items()):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.hp.cli.main(self.cli_argv(q))
            self.tally(self.cli_ok(code, out.getvalue(), allowed, d))

    def import_times(self) -> list:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        samples = []
        for _ in range(IMPORT_REPS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", "import hyperpam.cli"],
                cwd=ROOT, env=env, capture_output=True, timeout=120,
            )
            samples.append(time.perf_counter() - t0)
            self.tally(proc.returncode == 0)
        return samples

    # -- the run --------------------------------------------------------------
    def execute(self, spec: dict) -> tuple:
        args, hp = self.args, self.hp
        self.prepare_inputs()
        self.trace_on()
        m_setup = self.mark()
        self.setup()
        m_prep = self.mark()
        env = workloads.Env(
            hp=hp, oracle=self.oracle, seed=args.seed, workdir=str(self.workdir),
            policy=self.policy, gt=self.gt,
        )
        env.fingerprints["policy"] = self.policy_sha
        env.counters.update(
            policy_bytes=self.policy_len,
            vertices=self.policy.vertex_count,
            edges=self.policy.edge_count,
        )
        work = workloads.WORKLOADS[args.workload]()
        checked = work.prepare(env)
        m_timed = self.mark()
        if self.tracer:
            self.trace_off()
            untraced = work.timed(env, args.seconds / 2)
            self.trace_on()
            m_timed = self.mark()
            phase = work.timed(env, args.seconds / 2)
        else:
            untraced = None
            phase = work.timed(env, args.seconds)
        m_cli = self.mark()
        if self.tracer:
            found = self.cli_queries()
            self.cli_in_process(found)
        m_end = self.mark()
        self.trace_off()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        self.attempted += checked + phase.ops + (untraced.ops if untraced else 0)
        self.failed += env.problem_count + phase.failed + (untraced.failed if untraced else 0)

        if self.tracer:
            metrics = Metrics(spec["per_layer"])
            spans = self.tracer.spans
            self.layer_metrics(
                metrics, env, phase, untraced, found,
                setup=spans[m_setup:m_prep], prep=spans[m_prep:m_timed],
                timed=spans[m_timed:m_cli], cli=spans[m_cli:m_end],
            )
        else:
            metrics = Metrics(spec["end_to_end"])
            lat_ms = sorted(x / 1e6 for x in phase.latencies_ns)
            metrics.put("setup_s", statistics.median(self.load_s), self.load_s)
            metrics.put("op_p50_ms", statistics.median(lat_ms), lat_ms)
            metrics.put("op_p99_ms", percentile(lat_ms, 99), lat_ms)
            # per busy second, so checks run between operations do not count
            metrics.put("ops_per_s", phase.ops / (phase.busy_ns / 1e9))
            metrics.put("peak_rss_mb", peak_rss_mb)
        return env, metrics

    def layer_metrics(self, metrics, env, phase, untraced, found, setup, prep, timed, cli) -> None:
        c = env.counters
        ops = phase.ops
        put = metrics.put
        own = tracing.layer_self_ns(timed)
        for layer in LAYERS:
            put(f"{layer}.self_ms_per_op", own.get(layer, 0) / 1e6 / ops)

        loads = [x / 1e9 for x in tracing.self_ns_by_name(setup, "serialize.load_policy")]
        validates = [x / 1e9 for x in tracing.durations(setup, "core.validate")]
        put("serialize.loads_s", statistics.median(loads), loads)
        put("serialize.policy_bytes", c["policy_bytes"])
        put("core.validate_s", statistics.median(validates), validates)
        put("core.vertices", c["vertices"])
        put("core.edges", c["edges"])
        for m in ("add_assignment", "add_association", "remove_hyperedge", "set_active"):
            us = [x / 1e3 for x in tracing.durations(timed, f"core.{m}", top_level=True)]
            put(f"core.{m}_us", median_or_zero(us), us)

        put("engine.ops_per_check", c.get("ops_per_check", 0))
        allow_us = [x / 1e3 for x, o in zip(untraced.latencies_ns, untraced.outcomes) if o == 1]
        deny_us = [x / 1e3 for x, o in zip(untraced.latencies_ns, untraced.outcomes) if o == 0]
        put("engine.allow_p50_us", median_or_zero(allow_us), allow_us)
        put("engine.deny_p50_us", median_or_zero(deny_us), deny_us)
        put("engine.allow_ratio", c.get("allow_ratio", 0))
        put("engine.resource_reuse_ratio", c.get("resource_reuse_ratio", 0))
        emap = tracing.durations(timed, "engine.effective_permission_map")
        put("engine.effective_map_calls", len(emap) / ops)
        put("engine.effective_map_s", sum(emap) / 1e9 / ops)

        def per_op_s(values):
            return sum(values) / 1e9 / ops

        put("detect.escalations_self_s", per_op_s(tracing.self_ns_by_name(timed, "detect.detect_escalations")))
        put("detect.overprivileged_self_s", per_op_s(tracing.self_ns_by_name(timed, "detect.detect_over_privileged")))
        put("detect.window_s", per_op_s(tracing.durations(timed, "detect.attack_window_report")))
        for name in ("escalation_findings", "overprivileged_findings", "excess_facts"):
            put(f"detect.{name}", c.get(name, 0))

        put("generator.generate_s", per_op_s(tracing.durations(timed, "generator.generate")))
        put("generator.required_permissions_s",
            sum(tracing.durations(prep, "generator.required_permissions")) / 1e9)
        put("bench.measure_fp_s", per_op_s(tracing.durations(timed, "bench.measure_fp")))
        put("bench.detect_all_s", per_op_s(tracing.durations(timed, "bench.detect_all")))
        put("bench.build_workload_s", per_op_s(tracing.durations(timed, "bench.build_workload")))
        put("bench.dumps_s", per_op_s(tracing.durations(timed, "serialize.dumps_policy")))

        model_checks, builds = largest_n_spans(timed)
        for m in ("abac", "dag", "hyper"):
            us = [x / 1e3 for x in model_checks.get(m, [])]
            put(f"baselines.{m}_check_us", median_or_zero(us), us)
            put(f"baselines.{m}_ops_per_check", c.get(f"{m}_ops_per_check", 0))
            put(f"baselines.{m}_fp_rate", c.get(f"{m}_fp_rate", 0))
        for m in ("abac", "dag"):
            s = [x / 1e9 for x in builds.get(m, [])]
            put(f"baselines.build_{m}_s", median_or_zero(s), s)

        checks = self.cli_process(found)
        put("cli.check_s", statistics.median(checks), checks)
        imports = self.import_times()
        put("cli.import_s", statistics.median(imports), imports)
        cli_self = [x / 1e9 for x in tracing.self_ns_by_name(cli, "cli.main")]
        put("cli.self_s", statistics.median(cli_self), cli_self)

        base = untraced.busy_ns / untraced.ops
        put("trace.overhead_pct", (phase.busy_ns / ops - base) / base * 100)
        put("trace.spans_per_op", len(timed) / ops)


def largest_n_spans(spans: list) -> tuple[dict, dict]:
    """Per model, check and build durations inside ``detect_all`` at its largest n.

    A ``detect_all`` span's model is the kind of check spans under it, and its
    n is how many there are (one query per user in the sweep's stream).
    """
    model_of = {"baselines.abac_check": "abac", "baselines.dag_check": "dag",
                "engine.check_privilege": "hyper"}
    kids = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            kids[s[1]].append(s)
    checks: dict = {}
    builds: dict = {}
    size: dict = {}
    for s in spans:
        if s[2] != "bench.detect_all":
            continue
        mine = [k for k in kids[s[0]] if k[2] in model_of]
        if not mine:
            continue
        m, n = model_of[mine[0][2]], len(mine)
        if n > size.get(m, 0):
            size[m] = n
            checks[m], builds[m] = [], []
        if n == size[m]:
            checks[m] += [k[4] - k[3] for k in mine]
            builds[m] += [k[4] - k[3] for k in kids[s[0]] if k[2].startswith("baselines.build_")]
    return checks, builds


def parse_args(argv, run_seconds: int):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    args = parse_args(argv, spec["run_seconds"])
    os.environ.pop("HYPERPAM_THREADS", None)
    hp, oracle = import_program()
    run = Run(args, hp, oracle)
    try:
        env, metrics = run.execute(spec)
    finally:
        run.trace_off()
        with contextlib.suppress(FileNotFoundError):
            os.remove(run.policy_path)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics.result(),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "problems": env.problems,
        "fingerprints": env.fingerprints,
        "counters": env.counters,
        "distributions": {n: dict(metrics.dists[n], unit=metrics.units[n]) for n in metrics.units},
    }
    with open(record_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if run.tracer:
        run.tracer.write(str(run.workdir / f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps({"problems": env.problems, "fingerprints": env.fingerprints,
                      "counters": env.counters}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
