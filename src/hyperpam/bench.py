"""Scaling sweeps, power-law fits, false-positive scoring, CSV/report output.

Fairness rules: at each scale point every model consumes the identical
policy and workload (their hashes are logged in the CSV seed column), the
wall clock is monotonic, build and detection phases are timed separately,
and the reported detection time is the median over repeats after one
discarded warm-up run. The false-positive rate scores the decisions those
runs made (every run must make the same ones, at the engine's default depth)
against ground truth; no query is decided a second time for scoring.
Everything except the timing columns reproduces byte-for-byte from a seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .baselines import MODELS, detect_all
from .baselines import (  # noqa: F401 - perfbench/tracing.py wraps them under this module
    abac_check,
    build_abac,
    build_dag,
    dag_check,
)
from .core import PolicyHypergraph, VertexKind
from .engine import EvaluationContext, PrivilegeQuery
from .engine import (  # noqa: F401 - perfbench/tracing.py wraps it under this module
    effective_permission_map,
)
from .errors import ConfigInvalid, DegenerateInput, GroundTruthMismatch, SchemaError
from .generator import GroundTruth, config_for_scale, generate
from .rng import Rng
from .serialize import dumps_policy, write_atomic

WORKLOAD_MODES = ("per_user", "all_pairs_sampled")
# fixed operation mix for generated workloads
OP_MIX = (("Read", 0.6), ("Write", 0.3), ("Execute", 0.1))


@dataclass(frozen=True)
class BenchRecord:
    model: str
    n: int
    seed: int
    build_time_s: float
    detect_time_s: float
    traversal_ops: int
    graph_size: int
    fp_rate: float
    fingerprint: str = ""
    queries: int = 0


@dataclass(frozen=True)
class RegressionFit:
    a: float
    b: float
    r2: float


def fit_power_law(points: Sequence[tuple[float, float]]) -> RegressionFit:
    """Least squares of ln(value) on ln(n); the slope is the scaling exponent."""
    if len(points) < 3:
        raise DegenerateInput("power-law fit needs at least 3 points")
    if any(n <= 0 or v <= 0 for n, v in points):
        raise DegenerateInput("power-law fit needs positive coordinates")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(v) for _, v in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise DegenerateInput("power-law fit needs at least two distinct n values")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    b = sxy / sxx
    intercept = my - b * mx
    ss_res = sum((y - (intercept + b * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RegressionFit(a=math.exp(intercept), b=b, r2=r2)


def _sample_op(rng: Rng, universe) -> str:
    u = rng.random()
    acc = 0.0
    for name, w in OP_MIX:
        acc += w
        if u < acc and name in universe:
            return name
    return OP_MIX[0][0]


def build_workload(
    policy: PolicyHypergraph,
    gt: GroundTruth,
    mode: str = "per_user",
    queries_per_n: Optional[int] = None,
    seed: int = 0,
) -> list[PrivilegeQuery]:
    """Deterministic query list; each query acts as its own user's account."""
    if mode not in WORKLOAD_MODES:
        raise ConfigInvalid(f"unknown workload mode {mode!r}")
    users = sorted(v.id for v in policy.vertices_of_kind(VertexKind.USER))
    resources = sorted(v.id for v in policy.vertices_of_kind(VertexKind.RESOURCE))
    if not users or not resources:
        return []
    rng = Rng(seed).split("workload")
    queries: list[PrivilegeQuery] = []
    # one context per acting account, shared by all of its queries
    contexts = {a: EvaluationContext(gt.eval_timestamp, a) for a in {"", *gt.user_account.values()}}

    def ctx_for(uid: int) -> EvaluationContext:
        return contexts[gt.user_account.get(uid, "")]

    if mode == "per_user":
        pool_size = max(1, math.isqrt(len(resources) - 1) + 1) if len(resources) > 1 else 1
        pool = sorted(rng.sample(resources, min(pool_size, len(resources))))
        total = queries_per_n if queries_per_n is not None else len(users)
        for i in range(total):
            uid = users[i % len(users)]
            rid = rng.choice(pool)
            queries.append(PrivilegeQuery(uid, _sample_op(rng, policy.universe), rid, ctx_for(uid)))
    else:
        for uid in users:
            for rid in resources:
                queries.append(
                    PrivilegeQuery(uid, _sample_op(rng, policy.universe), rid, ctx_for(uid))
                )
        if queries_per_n is not None:
            queries = queries[:queries_per_n]
    return queries


def workload_to_json(queries: Iterable[PrivilegeQuery]) -> str:
    return json.dumps(
        [
            [q.user, q.op, q.resource, q.ctx.timestamp.isoformat(), q.ctx.acting_account]
            for q in queries
        ],
        separators=(",", ":"),
    )


def _h8(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def measure_fp(
    policy: PolicyHypergraph,
    gt: GroundTruth,
    probes: Sequence[PrivilegeQuery],
    decisions: Sequence[bool],
) -> float:
    """Fraction of flagged facts that are not attributable to labeled violations.

    ``decisions[i]`` is a model's answer to ``probes[i]``; nothing is decided
    again here, so a sweep scores exactly the decisions it timed. A probe is
    flagged when it was allowed but ground truth does not list it as
    intended under the probe's own context; flagged facts that match an
    injected violation are true positives.
    """
    if len(probes) != len(decisions):
        raise ConfigInvalid(f"{len(probes)} probes but {len(decisions)} decisions")
    for uid in gt.user_roles:
        if not policy.has_vertex(uid):
            raise GroundTruthMismatch(f"ground truth names unknown user {uid}")
    flagged = 0
    false_pos = 0
    for q, allowed in zip(probes, decisions):
        if not allowed:
            continue
        opbit = policy.universe.bit(q.op)
        if gt.is_intended(q.user, opbit, q.resource, q.ctx):
            continue
        flagged += 1
        if not gt.is_violation_fact(q.user, opbit, q.resource):
            false_pos += 1
    return false_pos / flagged if flagged else 0.0


@dataclass
class SweepPoint:
    n: int
    policy_json: str
    workload_json: str
    records: list[BenchRecord]
    decisions: dict[str, list[bool]]
    per_query_ops: dict[str, list[int]]


@dataclass
class SweepResult:
    records: list[BenchRecord]
    points: list[SweepPoint]

    def fit(self, model: str, metric: str) -> RegressionFit:
        points = [
            (r.n, getattr(r, metric)) for r in self.records if r.model == model
        ]
        return fit_power_law(points)


def run_sweep(
    models: Sequence[str],
    n_start: int,
    n_end: int,
    n_step: int,
    profile: str = "standard",
    workload_mode: str = "per_user",
    queries_per_n: Optional[int] = None,
    repeats: int = 5,
    seed: int = 0,
    abac_max_n: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """One record per (model, n) on ``config_for_scale(n, seed, profile)``'s
    policy; detect time is the median over repeats."""
    if n_start > n_end or n_step <= 0:
        raise ConfigInvalid("need n_start <= n_end and a positive step")
    if repeats < 1:
        raise ConfigInvalid("repeats must be >= 1")
    if queries_per_n is not None and queries_per_n < 1:
        raise ConfigInvalid("queries_per_n must be >= 1")
    for m in models:
        if m not in MODELS:
            raise ConfigInvalid(f"unknown model {m!r}")

    points: list[SweepPoint] = []
    for n in range(n_start, n_end + 1, n_step):
        policy, gt = generate(config_for_scale(n, seed=seed, profile=profile))
        policy_json = dumps_policy(policy)
        workload = build_workload(policy, gt, workload_mode, queries_per_n, seed)
        workload_json = workload_to_json(workload)
        fingerprint = f"{seed}:{_h8(policy_json)}:{_h8(workload_json)}"
        point = SweepPoint(n, policy_json, workload_json, [], {}, {})
        for model in models:
            if model == "abac" and abac_max_n is not None and n > abac_max_n:
                continue
            if progress:
                progress(f"n={n} model={model}")
            builds, detects = [], []
            runs = []
            for _ in range(repeats + 1):  # first run is the discarded warm-up
                run = detect_all(model, policy, workload)
                runs.append(run)
                builds.append(run.build_time_s)
                detects.append(run.detect_time_s)
            base = runs[0]
            for other in runs[1:]:
                if other.decisions != base.decisions or other.per_query_ops != base.per_query_ops:
                    raise AssertionError(f"{model} produced nondeterministic results")
            fp = measure_fp(policy, gt, workload, base.decisions)
            point.records.append(
                BenchRecord(
                    model=model,
                    n=n,
                    seed=seed,
                    build_time_s=statistics.median(builds[1:]),
                    detect_time_s=statistics.median(detects[1:]),
                    traversal_ops=base.total_traversal_ops,
                    graph_size=base.graph_size,
                    fp_rate=fp,
                    fingerprint=fingerprint,
                    queries=len(workload),
                )
            )
            point.decisions[model] = base.decisions
            point.per_query_ops[model] = base.per_query_ops
        points.append(point)

    records = [r for p in points for r in p.records]
    records.sort(key=lambda r: (r.n, MODELS.index(r.model)))
    return SweepResult(records, points)


CSV_HEADER = "model,n,seed,build_time_s,detect_time_s,traversal_ops,graph_size,fp_rate"


def emit_csv(records: Sequence[BenchRecord], path: str) -> None:
    if not records:
        raise ConfigInvalid("no records to write")
    lines = [CSV_HEADER]
    for r in records:
        seed_field = r.fingerprint or str(r.seed)
        lines.append(
            f"{r.model},{r.n},{seed_field},{r.build_time_s:.9f},"
            f"{r.detect_time_s:.9f},{r.traversal_ops},{r.graph_size},{r.fp_rate:.6f}"
        )
    write_atomic(path, "\n".join(lines) + "\n")


def read_csv(path: str) -> list[dict[str, str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None
    if not lines:
        raise SchemaError(f"{path}: empty CSV, want a header line")
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# Reference exponents for the three model families, used only as context in
# reports; hardware and implementation shift absolute values.
REFERENCE_EXPONENTS = {"abac": 2.94, "dag": 1.87, "hyper": 1.12}


def emit_report(
    records: Sequence[BenchRecord],
    fits: dict[str, dict[str, RegressionFit]],
    path: str,
) -> None:
    """Markdown summary: fitted exponents per model and metric plus speedups."""
    if not records:
        raise ConfigInvalid("no records to report")
    lines = [
        "# Scaling report",
        "",
        "## Power-law fits (value = a * n^b)",
        "",
        "| model | metric | a | b | R^2 | reference b |",
        "|-------|--------|---|---|-----|-------------|",
    ]
    for model in sorted(fits):
        for metric, fit in sorted(fits[model].items()):
            ref = (
                f"{REFERENCE_EXPONENTS[model]:.2f}"
                if metric == "detect_time_s" and model in REFERENCE_EXPONENTS
                else "-"
            )
            lines.append(
                f"| {model} | {metric} | {fit.a:.3e} | {fit.b:.3f} | {fit.r2:.3f} | {ref} |"
            )
    by_model: dict[str, list[BenchRecord]] = {}
    for r in records:
        by_model.setdefault(r.model, []).append(r)
    common = None
    for rs in by_model.values():
        ns = {r.n for r in rs}
        common = ns if common is None else common & ns
    if common and len(by_model) > 1:
        n_star = max(common)
        at_n = {m: next(r for r in rs if r.n == n_star) for m, rs in by_model.items()}
        lines += ["", f"## Comparison at n={n_star}", ""]
        if "hyper" in at_n:
            base = at_n["hyper"].detect_time_s
            for m in sorted(at_n):
                if m == "hyper" or base <= 0:
                    continue
                ratio = at_n[m].detect_time_s / base
                lines.append(
                    f"- {m} detect time is {ratio:.1f}x the hypergraph engine's"
                )
        lines += [
            "",
            "| model | detect_time_s | traversal_ops | graph_size | fp_rate |",
            "|-------|---------------|---------------|------------|---------|",
        ]
        for m in sorted(at_n):
            r = at_n[m]
            lines.append(
                f"| {m} | {r.detect_time_s:.6f} | {r.traversal_ops} | "
                f"{r.graph_size} | {r.fp_rate:.3f} |"
            )
    write_atomic(path, "\n".join(lines) + "\n")
