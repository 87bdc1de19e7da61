"""The benchmark's four workloads.

Every workload is a single-client closed loop: the next operation starts
only after the previous one returned. Inputs come from the run's seed; the
program only ever sees the generated policy and streams. Correctness checks
run between timed calls, never inside them.

* ``query``: ``per_user`` streams of ``build_workload`` (every user once,
  over a hot set of ceil(sqrt(R)) resources) through ``check_privilege``.
  Queries share resources, so cross-query reuse in the engine shows here.
* ``churn``: uniform random checks over a permutation of all resources (no
  hot set) with one operation in ten a write. Writes come in grant/revoke
  pairs through ``core``'s mutators, each followed by a probe check.
* ``audit``: one pass of ``detect_escalations``, ``detect_over_privileged``
  and ``attack_window_report``; ``check_privilege`` is bypassed.
* ``sweep``: the three-model ``run_sweep`` that the paper's comparison rests
  on; generator, baselines and bench harness do most of the work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Optional

SENSITIVE_TAG = ("env", "production")
SWEEP_MODELS = ["hyper", "dag", "abac"]
SWEEP_N_START, SWEEP_N_END, SWEEP_N_STEP = 200, 1000, 200
# ABAC's tag loop is O(T^2) by design; capping it keeps one sweep short
# enough that several fit in a run.
SWEEP_ABAC_MAX_N = 600
# per_user streams per run, each with its own hot set; several of them keep
# one seed's hot-set draw from deciding the run's cost
QUERY_STREAMS = 8
CHURN_CHECKS_PER_BLOCK = 16
CHURN_BLOCK = CHURN_CHECKS_PER_BLOCK + 4  # + grant, probe, revoke, probe: 10% writes

SAMPLE_CAP = 1 << 16
_clock = time.perf_counter_ns


def sha(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


@dataclass
class Env:
    """What every workload shares: program modules, inputs and the ledger."""

    hp: object
    oracle: object
    seed: int
    workdir: str
    policy: object
    gt: object
    fingerprints: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    problem_count: int = 0

    def problem(self, text: str) -> None:
        """Count a failed check; keep the first few descriptions."""
        self.problem_count += 1
        if len(self.problems) < 20:
            self.problems.append(text)

    def ledger(self, q) -> bool:
        """What the generator's construction ledger says the answer is."""
        bit = self.policy.universe.bit(q.op)
        return self.gt.is_intended(q.user, bit, q.resource, q.ctx) or self.gt.is_violation_fact(
            q.user, bit, q.resource
        )

    def witness_valid(self, q, decision) -> bool:
        w = decision.witness
        return w is not None and self.oracle.is_valid_path(
            self.policy, w.vertices, w.edges, q.user, q.resource, q.op, q.ctx,
            self.hp.engine.DEFAULT_MAX_DEPTH,
        )


@dataclass
class Phase:
    """One closed-loop timed phase.

    Latency samples are a seeded reservoir sample (Vitter's algorithm R) of
    fixed capacity: every operation of the phase has the same chance to be
    in it, whatever the period of the operation stream, and the benchmark's
    own memory does not grow with the number of operations, so
    ``peak_rss_mb`` does not depend on throughput.
    """

    seed: int
    latencies_ns: array = field(default_factory=lambda: array("q"))
    outcomes: array = field(default_factory=lambda: array("b"))  # 1 allow, 0 deny, -1 other
    ops: int = 0
    busy_ns: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self._random = random.Random(f"sample:{self.seed}").random

    def start(self, seconds: float) -> int:
        """Returns the deadline."""
        return _clock() + int(seconds * 1e9)

    def record(self, dt_ns: int, outcome: int) -> None:
        self.ops += 1
        self.busy_ns += dt_ns
        if len(self.latencies_ns) < SAMPLE_CAP:
            self.latencies_ns.append(dt_ns)
            self.outcomes.append(outcome)
            return
        j = int(self._random() * self.ops)
        if j < SAMPLE_CAP:
            self.latencies_ns[j] = dt_ns
            self.outcomes[j] = outcome


def decision_line(d) -> list:
    return [d.allowed, list(d.witness.edges) if d.witness else None]


def resource_reuse_ratio(resources: list) -> float:
    seen: set = set()
    reused = 0
    for r in resources:
        reused += r in seen
        seen.add(r)
    return reused / len(resources) if resources else 0.0


class Query:
    name = "query"

    def prepare(self, env: Env) -> int:
        """Reference pass: checks every answer against the ledger and oracle."""
        hp = env.hp
        self.stream = [
            q
            for i in range(QUERY_STREAMS)
            for q in hp.bench.build_workload(
                env.policy, env.gt, "per_user", None, env.seed * QUERY_STREAMS + i
            )
        ]
        env.fingerprints["query_stream"] = sha(hp.bench.workload_to_json(self.stream))
        self.ref = []
        lines, ops, allowed = [], 0, 0
        for q in self.stream:
            d = hp.engine.check_privilege(env.policy, q)
            if d.allowed != env.ledger(q):
                env.problem(f"query: {q} decided {d.allowed}, ledger disagrees")
            if d.allowed and not env.witness_valid(q, d):
                env.problem(f"query: invalid witness for {q}")
            self.ref.append((d.allowed, d.witness))
            lines.append(decision_line(d))
            ops += d.traversal_ops
            allowed += d.allowed
        env.fingerprints["query_decisions"] = sha(json.dumps(lines))
        env.counters.update(
            queries=len(self.stream),
            allowed=allowed,
            traversal_ops=ops,
            ops_per_check=ops / len(self.stream),
            allow_ratio=allowed / len(self.stream),
            resource_reuse_ratio=resource_reuse_ratio([q.resource for q in self.stream]),
        )
        return len(self.stream)

    def timed(self, env: Env, seconds: float) -> Phase:
        check = env.hp.engine.check_privilege
        policy, stream, ref = env.policy, self.stream, self.ref
        phase = Phase(env.seed)
        record = phase.record
        n = len(stream)
        i = 0
        deadline = phase.start(seconds)
        while True:
            k = i % n
            q = stream[k]
            t0 = _clock()
            d = check(policy, q)
            t1 = _clock()
            record(t1 - t0, d.allowed)
            allowed, witness = ref[k]
            if d.allowed != allowed or d.witness != witness:
                phase.failed += 1
            i += 1
            if t1 >= deadline:
                break
        return phase


class Churn:
    """Reads beside grant/revoke write pairs.

    The stream is a list of blocks; each block holds 16 uniform checks, then
    a grant, a probe, the matching revoke and the same probe again. Probe
    rules: after a grant the probe must allow; after a revoke it must give
    the ledger's answer; after ``set_active(e, False)`` it must deny or hold
    a witness that avoids ``e``.
    """

    name = "churn"

    def prepare(self, env: Env) -> int:
        hp, policy, gt = env.hp, env.policy, env.gt
        VK = hp.core.VertexKind
        PQ = hp.engine.PrivilegeQuery
        rng = random.Random(f"churn:{env.seed}")
        users = sorted(v.id for v in policy.vertices_of_kind(VK.USER))
        resources = sorted(v.id for v in policy.vertices_of_kind(VK.RESOURCE))
        self.pc = min(v.id for v in policy.vertices_of_kind(VK.POLICY_CLASS))
        names = policy.universe.names
        role_users: dict = {}
        for u, roles in sorted(gt.user_roles.items()):
            for role in roles:
                role_users.setdefault(role, []).append(u)
        types = sorted(t for t, rs in gt.resources_by_type.items() if rs)
        grants_by_role: dict = {}
        for g in gt.grants:
            grants_by_role.setdefault(g.role, []).append(g)

        def ctx(u):
            return gt.context_for(u)

        def first_op(mask):
            return next(n for i, n in enumerate(names) if mask >> i & 1)

        # grants that hold under the acting user's own context, with a user
        live = [
            (g, u)
            for g in gt.grants
            if gt.resources_by_type.get(g.type_id)
            for u in role_users.get(g.role, ())[:1]
            if g.satisfied(ctx(u))
        ]
        unscoped = [g for g in gt.grants if not g.same_account and g.window is None
                    and gt.resources_by_type.get(g.type_id)]
        roles_with_users = sorted(role_users)

        order = list(resources)
        rng.shuffle(order)
        stream: list[tuple] = []
        for b in range(len(order) // CHURN_CHECKS_PER_BLOCK):
            for r in order[b * CHURN_CHECKS_PER_BLOCK:(b + 1) * CHURN_CHECKS_PER_BLOCK]:
                u = rng.choice(users)
                stream.append(("check", PQ(u, rng.choice(names), r, ctx(u))))
            kind = b % 3
            if kind == 0:
                g = rng.choice(unscoped)
                u = rng.choice(users)
                while g.role in gt.user_roles.get(u, ()):
                    u = rng.choice(users)
                q = PQ(u, first_op(g.mask), rng.choice(gt.resources_by_type[g.type_id]), ctx(u))
                stream += [("add_assignment", u, g.role), ("probe", q, "allow"),
                           ("remove",), ("probe", q, "ledger")]
            elif kind == 1:
                role = rng.choice(roles_with_users)
                granted = {g.type_id for g in grants_by_role.get(role, ())}
                t = rng.choice([t for t in types if t not in granted] or types)
                u = rng.choice(role_users[role])
                op = rng.choice(names)
                q = PQ(u, op, rng.choice(gt.resources_by_type[t]), ctx(u))
                stream += [("add_association", role, t, op), ("probe", q, "allow"),
                           ("remove",), ("probe", q, "ledger")]
            else:
                g, u = rng.choice(live)
                q = PQ(u, first_op(g.mask), rng.choice(gt.resources_by_type[g.type_id]), ctx(u))
                stream += [("set_active", g.edge, False), ("probe", q, "avoid", g.edge),
                           ("set_active", g.edge, True), ("probe", q, "ledger")]
        self.stream = stream
        env.fingerprints["churn_stream"] = sha(json.dumps([
            [op[0], [op[1].user, op[1].op, op[1].resource, op[1].ctx.acting_account]]
            if op[0] in ("check", "probe") else list(op)
            for op in stream
        ]))
        return self._reference(env)

    def _reference(self, env: Env) -> int:
        """One pass that checks every rule and fixes the expected answers."""
        hp, policy = env.hp, env.policy
        self.ref: list = []
        lines, ops, allowed, checks = [], 0, 0, 0
        writes: dict = {}
        pending = None
        for op in self.stream:
            kind = op[0]
            if kind in ("check", "probe"):
                q = op[1]
                d = hp.engine.check_privilege(policy, q)
                rule = "ledger" if kind == "check" else op[2]
                if rule == "allow":
                    ok = d.allowed
                elif rule == "ledger":
                    ok = d.allowed == env.ledger(q)
                else:
                    ok = not d.allowed or op[3] not in d.witness.edges
                if d.allowed and not env.witness_valid(q, d):
                    ok = False
                if not ok:
                    env.problem(f"churn: {kind} {q} broke rule {rule!r} (allowed={d.allowed})")
                # a witness through a freshly granted edge carries a new edge
                # id on every cycle, so only the decision is compared then
                self.ref.append((d.allowed, None if rule == "allow" else d.witness))
                lines.append(decision_line(d))
                ops += d.traversal_ops
                allowed += d.allowed
                checks += 1
            else:
                pending = self._write(policy, op, pending)
                writes[kind] = writes.get(kind, 0) + 1
                self.ref.append(None)
        env.fingerprints["churn_decisions"] = sha(json.dumps(lines))
        resources = [op[1].resource for op in self.stream if op[0] in ("check", "probe")]
        env.counters.update(
            operations=len(self.stream),
            checks=checks,
            allowed=allowed,
            traversal_ops=ops,
            ops_per_check=ops / checks,
            allow_ratio=allowed / checks,
            resource_reuse_ratio=resource_reuse_ratio(resources),
            **{f"writes_{k}": v for k, v in sorted(writes.items())},
        )
        return len(self.stream)

    def _write(self, policy, op, pending):
        kind = op[0]
        if kind == "add_assignment":
            return policy.add_assignment(op[1], op[2])
        if kind == "add_association":
            return policy.add_association([op[1]], [op[2]], self.pc, [op[3]])
        if kind == "remove":
            policy.remove_hyperedge(pending)
            return None
        policy.set_active(op[1], op[2])
        return pending

    def timed(self, env: Env, seconds: float) -> Phase:
        check = env.hp.engine.check_privilege
        policy, stream, ref = env.policy, self.stream, self.ref
        phase = Phase(env.seed)
        record = phase.record
        n = len(stream)
        pending = None
        i = 0
        deadline = phase.start(seconds)
        while True:
            k = i % n
            op = stream[k]
            if op[0] in ("check", "probe"):
                t0 = _clock()
                d = check(policy, op[1])
                t1 = _clock()
                record(t1 - t0, d.allowed)
                allowed, witness = ref[k]
                if d.allowed != allowed or (witness is not None and d.witness != witness):
                    phase.failed += 1
            else:
                t0 = _clock()
                pending = self._write(policy, op, pending)
                t1 = _clock()
                record(t1 - t0, -1)
            i += 1
            # stop on a block boundary, where every grant is revoked again
            if t1 >= deadline and i % CHURN_BLOCK == 0:
                break
        return phase


class Audit:
    name = "audit"

    def prepare(self, env: Env) -> int:
        gt = env.gt
        # the ledger's canonical context, as the bench harness scores it
        self.ctx = gt.context_for(0)
        self.required = gt.required_permissions(self.ctx)
        self.first: Optional[tuple] = None
        return 0

    def _check_pass(self, env: Env, esc, over, window) -> bool:
        """Compare a pass with the first one; verify the first against the ledger."""
        if self.first is not None:
            return (esc, over, window.expired, window.expiring) == self.first
        self.first = (esc, over, window.expired, window.expiring)
        hp, gt, policy = env.hp, env.gt, env.policy
        ok = True
        found = {(f.user, f.target) for f in esc}
        for c in gt.chains:
            for u in c.finding_users:
                for r in gt.resources_by_type[c.type_id]:
                    if (u, r) not in found:
                        env.problem(f"audit: injected chain finding ({u}, {r}) missing")
                        ok = False
        by_subject = {f.subject: f for f in over}
        for e in gt.excess:
            f = by_subject.get(e.role)
            for r in gt.resources_by_type[e.type_id]:
                if f is None or r not in f.excess or f.excess[r].mask & e.mask != e.mask:
                    env.problem(f"audit: injected excess ({e.role}, {r}) missing")
                    ok = False
        expired, expiring = [], []
        now, horizon = window.now, window.horizon
        for edge in policy.edges():
            ends = [c.end for c in edge.constraints if isinstance(c, hp.core.TimeWindow)]
            if not edge.active or not ends:
                continue
            end = min(ends)
            if end < now:
                expired.append(edge.id)
            elif end <= now + horizon:
                expiring.append(edge.id)
        if (sorted(expired), sorted(expiring)) != (window.expired, window.expiring):
            env.problem("audit: attack window report disagrees with the edge scan")
            ok = False
        jsonl = hp.detect.findings_to_jsonl(policy, escalations=esc, over_privileged=over)
        env.fingerprints["audit_findings"] = sha(jsonl)
        env.fingerprints["audit_window"] = sha(json.dumps([window.expired, window.expiring]))
        env.counters.update(
            escalation_findings=len(esc),
            overprivileged_findings=len(over),
            excess_facts=sum(len(f.excess) for f in over),
            window_expired=len(window.expired),
            window_expiring=len(window.expiring),
        )
        return ok

    def timed(self, env: Env, seconds: float) -> Phase:
        detect = env.hp.detect
        policy, ctx, required = env.policy, self.ctx, self.required
        phase = Phase(env.seed)
        deadline = phase.start(seconds)
        while True:
            t0 = _clock()
            esc = detect.detect_escalations(policy, SENSITIVE_TAG, ctx)
            over = detect.detect_over_privileged(policy, required, ctx)
            window = detect.attack_window_report(policy, ctx.timestamp)
            t1 = _clock()
            phase.record(t1 - t0, -1)
            if not self._check_pass(env, esc, over, window):
                phase.failed += 1
            if t1 >= deadline:
                break
        return phase


class Sweep:
    name = "sweep"

    def prepare(self, env: Env) -> int:
        self.csv_digest: Optional[str] = None
        self.largest: dict = {}
        return 0

    def _check(self, env: Env, result) -> bool:
        ok = True
        for point in result.points:
            dec = point.decisions
            for i, hyper in enumerate(dec["hyper"]):
                dag = dec["dag"][i]
                abac = dec["abac"][i] if "abac" in dec else True
                if (hyper and not dag) or (dag and not abac):
                    env.problem(f"sweep: n={point.n} query {i} breaks Allow(hyper) <= Allow(dag) <= Allow(abac)")
                    ok = False
        for r in result.records:
            if r.model == "hyper" and r.fp_rate != 0:
                env.problem(f"sweep: hyper fp_rate {r.fp_rate} at n={r.n}")
                ok = False
        path = os.path.join(env.workdir, f"sweep-{os.getpid()}.csv")
        env.hp.bench.emit_csv(result.records, path)
        with open(path, encoding="utf-8") as fh:
            rows = [ln.rstrip("\n").split(",") for ln in fh]
        os.remove(path)
        timing = {rows[0].index("build_time_s"), rows[0].index("detect_time_s")}
        digest = sha("\n".join(",".join(c for j, c in enumerate(row) if j not in timing) for row in rows))
        if self.csv_digest is None:
            self.csv_digest = digest
            env.fingerprints["sweep_csv"] = digest
            env.fingerprints["sweep_inputs"] = sha("".join(
                sha(p.policy_json) + sha(p.workload_json) for p in result.points))
            for r in result.records:
                self.largest[r.model] = r  # records are sorted by n
            for m, r in sorted(self.largest.items()):
                env.counters[f"{m}_n"] = r.n
                env.counters[f"{m}_traversal_ops"] = r.traversal_ops
                env.counters[f"{m}_ops_per_check"] = r.traversal_ops / r.queries
                env.counters[f"{m}_fp_rate"] = r.fp_rate
                env.counters[f"{m}_graph_size"] = r.graph_size
        elif digest != self.csv_digest:
            env.problem("sweep: CSV differs between sweeps of one run")
            ok = False
        return ok

    def timed(self, env: Env, seconds: float) -> Phase:
        bench = env.hp.bench
        phase = Phase(env.seed)
        deadline = phase.start(seconds)
        while True:
            t0 = _clock()
            result = bench.run_sweep(
                SWEEP_MODELS, SWEEP_N_START, SWEEP_N_END, SWEEP_N_STEP,
                seed=env.seed, abac_max_n=SWEEP_ABAC_MAX_N,
            )
            t1 = _clock()
            phase.record(t1 - t0, -1)
            if not self._check(env, result):
                phase.failed += 1
            if t1 >= deadline:
                break
        return phase


WORKLOADS = {w.name: w for w in (Query, Churn, Audit, Sweep)}
