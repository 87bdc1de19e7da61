"""Detection passes: escalation chains, over-privilege, attack windows."""

from __future__ import annotations

import gc
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import timedelta

import pytest

import hyperpam.detect as detect_mod
import hyperpam.engine as engine_mod
from hyperpam.bench import build_workload, fit_power_law
from hyperpam.core import PolicyHypergraph, TimeWindow, VertexKind
from hyperpam.detect import (
    RequiredPermissions,
    attack_window_report,
    detect_escalations,
    detect_over_privileged,
    findings_to_jsonl,
    revoke_expired,
)
from hyperpam.engine import EvaluationContext, PrivilegeQuery, check_privilege
from hyperpam.errors import GroundTruthMismatch, UnknownEdge
from hyperpam.generator import (
    EPOCH,
    EVAL_TS,
    GenConfig,
    config_for_scale,
    generate,
    make_fixture_usecase,
)

CTX = EvaluationContext(EVAL_TS, "acct-0")


def test_single_role_grants_are_not_escalations():
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    u = p.add_vertex(VertexKind.USER, "u")
    ua = p.add_vertex(VertexKind.USER_ATTR, "ua")
    r = p.add_vertex(VertexKind.RESOURCE, "r", tags={"env": "production"})
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra", tags={"env": "production"})
    p.add_assignment(u, ua)
    p.add_assignment(r, ra)
    p.add_association([ua], [ra], pc, ["Read"])
    assert detect_escalations(p, ("env", "production"), CTX) == []


def test_fixture_escalation_and_remediation():
    policy, gt = make_fixture_usecase()
    alice = policy.vertex_named(VertexKind.USER, "Alice").id
    pdb = policy.vertex_named(VertexKind.RESOURCE, "ProductionDB").id
    findings = detect_escalations(policy, ("env", "production"), CTX)
    assert findings, "fixture must produce escalation findings"
    mine = [f for f in findings if f.user == alice]
    assert len(mine) == 1
    f = mine[0]
    assert f.target == pdb
    names = [policy.vertex(v).name for v in f.chained_attributes]
    assert names == ["Developer", "PowerUser"]
    assert len(f.chained_attributes) >= 2
    # every finding rides the injected hierarchy edge
    chain_edge = gt.chains[0].assignment_edge
    assert all(chain_edge in x.path.edges for x in findings)

    # the remediation: drop the role-hierarchy assignment
    policy.remove_hyperedge(chain_edge)
    assert detect_escalations(policy, ("env", "production"), CTX) == []
    ctx = gt.context_for(alice)
    assert not check_privilege(policy, PrivilegeQuery(alice, "Read", pdb, ctx)).allowed


def test_generated_chains_match_ground_truth_exactly():
    for seed in (3, 11, 42):
        cfg = GenConfig(
            n_users=40,
            n_roles=8,
            n_resources=60,
            injected_chains=3,
            injected_excess=0,
            seed=seed,
        )
        policy, gt = generate(cfg)
        findings = detect_escalations(policy, ("env", "production"), CTX)
        expected = set()
        for chain in gt.chains:
            for uid in chain.finding_users:
                for rid in gt.resources_by_type[chain.type_id]:
                    expected.add((uid, rid))
        assert {(f.user, f.target) for f in findings} == expected
        # each finding's chained attributes pass through an injected pair
        pairs = {(c.source_role, c.target_role) for c in gt.chains}
        for f in findings:
            assert (f.chained_attributes[-2], f.chained_attributes[-1]) in pairs
        assert len({c.type_id for c in gt.chains}) >= 1
        assert len(gt.chains) == 3


def test_escalation_findings_are_deterministic_and_ordered():
    policy, _ = make_fixture_usecase()
    a = detect_escalations(policy, ("env", "production"), CTX)
    b = detect_escalations(policy, ("env", "production"), CTX)
    assert a == b
    keys = [(f.user, len(f.path.edges), f.path.edges, f.target) for f in a]
    assert keys == sorted(keys)


def _count_expansions(monkeypatch) -> list:
    """Record the attribute of every grant detect_over_privileged expands."""
    expanded = []
    real = detect_mod._descend

    def counting(policy, ra, ctx, memo):
        expanded.append(ra)
        return real(policy, ra, ctx, memo)

    monkeypatch.setattr(detect_mod, "_descend", counting)
    return expanded


def test_over_privilege_excess_exact(monkeypatch):
    cfg = GenConfig(
        n_users=30, n_roles=6, n_resources=40, injected_chains=0, injected_excess=1, seed=5
    )
    policy, gt = generate(cfg)
    required = gt.required_permissions(CTX)
    expanded = _count_expansions(monkeypatch)
    findings = detect_over_privileged(policy, required, CTX)
    record = gt.excess[0]
    # only the injected grant is expanded: once for its role as a subject and
    # once for the role's one-hop-shorter excess, which every holder shares
    holders = [u for u, roles in gt.user_roles.items() if record.role in roles]
    assert holders
    assert expanded == [record.type_id] * 2
    by_subject = {f.subject: f for f in findings}
    assert record.role in by_subject
    fnd = by_subject[record.role]
    for rid in gt.resources_by_type[record.type_id]:
        assert fnd.excess[rid].mask == record.mask
    # excess facts never overlap intended ones
    for rid, pset in fnd.excess.items():
        assert pset.mask & ~record.mask == 0


def test_over_privilege_expansions_do_not_grow_with_holders(monkeypatch):
    cfg = GenConfig(
        n_users=30, n_roles=6, n_resources=40, injected_chains=0, injected_excess=1, seed=5
    )
    policy, gt = generate(cfg)
    required = gt.required_permissions(CTX)
    expanded = _count_expansions(monkeypatch)
    before = detect_over_privileged(policy, required, CTX)
    once = list(expanded)

    # nine clones of every user, each assigned as its original is
    by_subject, inherits = dict(required.by_subject), dict(required.inherits)
    clone_of = {}
    for uid in sorted(gt.user_roles):
        user = policy.vertex(uid)
        for k in range(9):
            clone = policy.add_vertex(VertexKind.USER, f"{user.name}~{k}", user.account)
            for eid, role in policy.assignments_from(uid):
                edge = policy.edge(eid)
                policy.add_raw_hyperedge(
                    edge.kind, (clone, role), (), edge.constraints, edge.active
                )
            by_subject[clone] = by_subject[uid]
            inherits[clone] = inherits[uid]
            clone_of[clone] = uid
    assert not policy.validate()
    expanded.clear()
    after = detect_over_privileged(policy, RequiredPermissions(by_subject, inherits), CTX)
    assert expanded == once
    excess = {f.subject: f.excess for f in before}
    assert any(s in gt.user_roles for s in excess), "holders must have findings"
    assert len(after) == len(before) + 9 * sum(s in gt.user_roles for s in excess)
    for f in after:
        assert f.excess == excess[clone_of.get(f.subject, f.subject)]


def test_escalation_pass_ascends_each_held_role_once(monkeypatch):
    policy, gt = generate(config_for_scale(500, seed=1234))
    starts = []
    real = detect_mod._ascend

    def counting(policy, start, ctx, max_depth):
        starts.append(start)
        return real(policy, start, ctx, max_depth)

    monkeypatch.setattr(detect_mod, "_ascend", counting)
    findings = detect_escalations(policy, ("env", "production"), gt.context_for(0))
    assert findings
    held = {
        role
        for user in policy.vertices_of_kind(VertexKind.USER)
        for _, role in policy.assignments_from(user.id)
        if policy.vertex(role).kind is VertexKind.USER_ATTR
    }
    assert sorted(starts) == sorted(held)


def test_over_privilege_no_finding_when_granted_equals_required(monkeypatch):
    cfg = GenConfig(
        n_users=20, n_roles=5, n_resources=30, injected_chains=0, injected_excess=0,
        pct_temporal=0.0, pct_scoped=0.0, seed=9,
    )
    policy, gt = generate(cfg)
    expanded = _count_expansions(monkeypatch)
    findings = detect_over_privileged(policy, gt.required_permissions(CTX), CTX)
    assert findings == []
    assert expanded == []


def _count_pass_work(monkeypatch) -> dict:
    """Count constraint checks and grants read inside detect_over_privileged:
    a subject's own grants come from _grants_at, a held head's from live_grants."""
    counts = {"edge_satisfied": 0, "grants": 0}
    real_satisfied = engine_mod.edge_satisfied
    real_live_grants = detect_mod.live_grants
    real_grants_at = detect_mod._grants_at

    def satisfied(policy, edge, ctx):
        counts["edge_satisfied"] += 1
        return real_satisfied(policy, edge, ctx)

    def live_grants(*args):
        for grant in real_live_grants(*args):
            counts["grants"] += 1
            yield grant

    def grants_at(*args):
        grants = real_grants_at(*args)
        counts["grants"] += len(grants)
        return grants

    monkeypatch.setattr(engine_mod, "edge_satisfied", satisfied)
    monkeypatch.setattr(detect_mod, "edge_satisfied", satisfied)
    monkeypatch.setattr(detect_mod, "live_grants", live_grants)
    monkeypatch.setattr(detect_mod, "_grants_at", grants_at)
    return counts


def test_over_privilege_work_is_linear_in_policy_size(monkeypatch):
    # sqrt-grouping: every user holds about sqrt(n)/4 of sqrt(n) roles, each
    # granted on every resource group, so edges grow as n^1.5 and a pass that
    # walks each role once per holder grows as n^2
    counts = _count_pass_work(monkeypatch)
    points = {"edge_satisfied": [], "grants": []}
    for n in (500, 1000, 2000, 4000):
        policy, gt = generate(config_for_scale(n, seed=1234, profile="sqrt-grouping"))
        ctx = gt.context_for(0)
        required = gt.required_permissions(ctx)
        for key in counts:
            counts[key] = 0
        assert detect_over_privileged(policy, required, ctx) == []
        size = policy.vertex_count + policy.edge_count
        for key, count in counts.items():
            points[key].append((size, count))
    for key, pts in points.items():
        fit = fit_power_law(pts)
        assert fit.b <= 1.1, (key, pts, fit)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "case", ["escalations", "empty-tag", "over-privilege", "ground-truth-mismatch"]
)
def test_the_passes_restore_the_collector_state(enabled, case, monkeypatch):
    policy, gt = make_fixture_usecase()
    required = gt.required_permissions(CTX)
    unknown = RequiredPermissions({10_000_000: {}})
    run, error = {
        "escalations": (lambda: detect_escalations(policy, ("env", "production"), CTX), None),
        "empty-tag": (lambda: detect_escalations(policy, ("env", ""), CTX), ValueError),
        "over-privilege": (lambda: detect_over_privileged(policy, required, CTX), None),
        "ground-truth-mismatch": (
            lambda: detect_over_privileged(policy, unknown, CTX),
            GroundTruthMismatch,
        ),
    }[case]
    seen = []
    real = detect_mod._descend

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(detect_mod, "_descend", spy)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if error is None:
            assert run()
        else:
            with pytest.raises(error):
                run()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # the collector is paused while the pass walks the policy
    if error is None:
        assert seen and not any(seen)
    else:
        assert seen == []


def test_over_privilege_unknown_subject_rejected():
    policy, _ = make_fixture_usecase()
    with pytest.raises(GroundTruthMismatch):
        detect_over_privileged(policy, RequiredPermissions({10_000_000: {}}), CTX)


def _jit_policy():
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    ua = p.add_vertex(VertexKind.USER_ATTR, "oncall")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "prod")
    t0 = EPOCH
    e_jit = p.add_association(
        [ua], [ra], pc, ["Write"], [TimeWindow(t0, t0 + timedelta(hours=2))]
    )
    e_plain = p.add_association([ua], [ra], pc, ["Read"])
    return p, e_jit, e_plain, t0


def test_attack_window_report_boundaries():
    p, e_jit, _e_plain, t0 = _jit_policy()
    end = t0 + timedelta(hours=2)
    just_before = attack_window_report(p, end - timedelta(seconds=1))
    assert just_before.expired == [] and just_before.expiring == [e_jit]
    at_end = attack_window_report(p, end)
    assert at_end.expired == [] and at_end.expiring == [e_jit]
    after = attack_window_report(p, end + timedelta(seconds=1))
    assert after.expired == [e_jit]
    # the two-hour emergency grant is dead when checked an hour late
    assert attack_window_report(p, t0 + timedelta(hours=3)).expired == [e_jit]


def test_attack_window_no_temporal_constraints():
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    ua = p.add_vertex(VertexKind.USER_ATTR, "ua")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra")
    p.add_association([ua], [ra], pc, ["Read"])
    report = attack_window_report(p, EPOCH)
    assert report.expired == [] and report.expiring == []


def test_revoke_expired_idempotent_and_denies():
    p, e_jit, e_plain, t0 = _jit_policy()
    u = p.add_vertex(VertexKind.USER, "u", "a")
    r = p.add_vertex(VertexKind.RESOURCE, "r", "a")
    p.add_assignment(u, p.vertex_named(VertexKind.USER_ATTR, "oncall").id)
    p.add_assignment(r, p.vertex_named(VertexKind.RESOURCE_ATTR, "prod").id)
    now = t0 + timedelta(hours=3)
    ctx = EvaluationContext(now, "a")
    assert check_privilege(p, PrivilegeQuery(u, "Read", r, ctx)).allowed
    assert revoke_expired(p, now) == 1
    with pytest.raises(UnknownEdge):
        p.edge(e_jit)
    assert p.edge(e_plain).id == e_plain
    assert revoke_expired(p, now) == 0
    assert not check_privilege(p, PrivilegeQuery(u, "Write", r, ctx)).allowed
    assert check_privilege(p, PrivilegeQuery(u, "Read", r, ctx)).allowed


def test_findings_render_as_stable_jsonl():
    policy, _ = make_fixture_usecase()
    findings = detect_escalations(policy, ("env", "production"), CTX)
    a = findings_to_jsonl(policy, escalations=findings)
    b = findings_to_jsonl(policy, escalations=findings)
    assert a == b
    first = a.splitlines()[0]
    assert first.startswith('{"kind":"escalation","user":')
    assert '"rendering":' in first and '"remediation":' in first


def test_a_built_policy_answers_the_same_from_concurrent_threads():
    """A built ``PolicyHypergraph`` may be read from any number of threads
    at once (its docstring): four threads of checks and both detection
    passes get what one thread gets."""
    policy, gt = make_fixture_usecase()
    queries = build_workload(policy, gt, "per_user", 1000, seed=7)
    required = gt.required_permissions(CTX)

    def run():
        return (
            [check_privilege(policy, q) for q in queries],
            detect_escalations(policy, ("env", "production"), CTX),
            detect_over_privileged(policy, required, CTX),
        )

    expected = run()
    assert expected[1] and expected[2] and any(d.allowed for d in expected[0])
    collecting = gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so the reads interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run) for _ in range(16)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == expected for r in results)
    # each pass pauses the collector and restores it, however the threads interleave
    assert gc.isenabled() is collecting
