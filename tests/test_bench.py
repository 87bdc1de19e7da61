"""Harness: power-law fits, false-positive scoring, CSV/report emission."""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Optional, Sequence

import pytest

from hyperpam.baselines import (
    MODELS,
    abac_check,
    build_abac,
    build_dag,
    dag_check,
    detect_all,
)
from hyperpam.bench import (
    CSV_HEADER,
    build_workload,
    emit_csv,
    emit_report,
    fit_power_law,
    measure_fp,
    read_csv,
    run_sweep,
    workload_to_json,
)
from hyperpam.core import HyperedgeKind, PolicyHypergraph, SameAccount, VertexKind
from hyperpam.engine import (
    DEFAULT_MAX_DEPTH,
    EvaluationContext,
    PrivilegeQuery,
    check_privilege,
    effective_permission_map,
)
from hyperpam.errors import ConfigInvalid, DegenerateInput, GroundTruthMismatch
from hyperpam.generator import EVAL_TS, GenConfig, Grant, GroundTruth, config_for_scale, generate

from .builders import all_triple_probes

CTX = EvaluationContext(EVAL_TS, "")


def measure_fp_oracle(
    model: str,
    policy: PolicyHypergraph,
    gt: GroundTruth,
    ctx: EvaluationContext,
    probes: Optional[Sequence[PrivilegeQuery]] = None,
) -> float:
    """``measure_fp`` as it was when it re-decided every probe itself, kept
    verbatim as a differential oracle.

    Fraction of flagged facts that are not attributable to labeled violations.

    A fact is flagged when the model allows it but ground truth does not
    list it as intended; flagged facts that match an injected violation are
    true positives. Probes default to every (user, op, resource) triple;
    each probe acts under the probed user's own account.
    """
    for uid in gt.user_roles:
        if not policy.has_vertex(uid):
            raise GroundTruthMismatch(f"ground truth names unknown user {uid}")
    if probes is None:
        users = sorted(v.id for v in policy.vertices_of_kind(VertexKind.USER))
        resources = sorted(v.id for v in policy.vertices_of_kind(VertexKind.RESOURCE))
        probes = [
            PrivilegeQuery(
                u, op, r, replace(ctx, acting_account=policy.vertex(u).account)
            )
            for u in users
            for op in policy.universe.names
            for r in resources
        ]

    if model == "abac":
        g = build_abac(policy)
        decide = lambda q: abac_check(g, q).allowed  # noqa: E731
    elif model == "dag":
        d = build_dag(policy)
        decide = lambda q: dag_check(d, q).allowed  # noqa: E731
    elif model == "hyper":
        maps: dict[tuple[int, EvaluationContext], dict[int, int]] = {}
        # descents depend on the context (SameAccount on assignments), so
        # each context gets its own memo
        memos: dict[EvaluationContext, dict] = {}

        def decide(q: PrivilegeQuery) -> bool:
            key = (q.user, q.ctx)
            granted = maps.get(key)
            if granted is None:
                granted = effective_permission_map(
                    policy, q.user, q.ctx, DEFAULT_MAX_DEPTH,
                    _descend_memo=memos.setdefault(q.ctx, {}),
                )
                maps[key] = granted
            return bool(granted.get(q.resource, 0) & policy.universe.bit(q.op))

    else:
        raise ConfigInvalid(f"unknown model {model!r}; expected one of {MODELS}")

    flagged = 0
    false_pos = 0
    for q in probes:
        if not decide(q):
            continue
        opbit = policy.universe.bit(q.op)
        if gt.is_intended(q.user, opbit, q.resource, q.ctx):
            continue
        flagged += 1
        if not gt.is_violation_fact(q.user, opbit, q.resource):
            false_pos += 1
    return false_pos / flagged if flagged else 0.0


def _fp(model: str, policy: PolicyHypergraph, gt: GroundTruth, probes) -> float:
    """fp rate of the decisions ``detect_all`` makes for ``model``."""
    return measure_fp(policy, gt, probes, detect_all(model, policy, probes).decisions)


def _ladder_config(seed: int) -> GenConfig:
    return GenConfig(
        n_users=24,
        n_roles=6,
        n_resources=30,
        pct_temporal=0.3,
        pct_scoped=0.2,
        injected_chains=1,
        injected_excess=1,
        seed=seed,
    )


def _same_account_policy():
    """r -> t carries SameAccount, so only probes acting from account x see r
    below t; b holds no role in the ledger, so any Read b is allowed is a
    false positive."""
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    a = p.add_vertex(VertexKind.USER, "a", "x")
    b = p.add_vertex(VertexKind.USER, "b", "y")
    role = p.add_vertex(VertexKind.USER_ATTR, "role", "x")
    t = p.add_vertex(VertexKind.RESOURCE_ATTR, "t", "x")
    r = p.add_vertex(VertexKind.RESOURCE, "r", "x")
    p.add_assignment(a, role)
    p.add_assignment(b, role)
    p.add_raw_hyperedge(HyperedgeKind.ASSIGNMENT, [r, t], (), [SameAccount()])
    grant = p.add_association([role], [t], pc, ["Read"])
    assert not p.validate()
    gt = GroundTruth(
        eval_timestamp=EVAL_TS,
        user_roles={a: (role,), b: ()},
        user_account={a: "x", b: "y"},
        grants=[Grant(role, t, p.universe.mask_of(["Read"]), grant)],
        resource_types={r: (t,)},
    )
    probes = [PrivilegeQuery(u, "Read", r, gt.context_for(u)) for u in (a, b)]
    return p, gt, probes


def test_fit_recovers_planted_exponents():
    cubic = [(n, float(n) ** 3) for n in range(100, 1100, 100)]
    fit = fit_power_law(cubic)
    assert abs(fit.b - 3.0) < 1e-9
    assert abs(fit.r2 - 1.0) < 1e-12
    linear = [(n, 2.5 * n) for n in range(100, 1100, 100)]
    fit = fit_power_law(linear)
    assert abs(fit.b - 1.0) < 1e-9
    assert abs(fit.a - 2.5) < 1e-9


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        fit_power_law([(1, 1.0), (2, 2.0)])
    with pytest.raises(DegenerateInput):
        fit_power_law([(1, 1.0), (2, 0.0), (3, 3.0)])
    with pytest.raises(DegenerateInput):
        fit_power_law([(2, 1.0), (2, 2.0), (2, 3.0)])


def test_workload_is_deterministic_and_per_user():
    cfg = GenConfig(n_users=20, n_roles=5, n_resources=30, seed=2)
    policy, gt = generate(cfg)
    w1 = build_workload(policy, gt, "per_user", seed=9)
    w2 = build_workload(policy, gt, "per_user", seed=9)
    assert workload_to_json(w1) == workload_to_json(w2)
    assert len(w1) == 20
    assert workload_to_json(build_workload(policy, gt, "per_user", seed=10)) != workload_to_json(w1)
    capped = build_workload(policy, gt, "per_user", queries_per_n=7, seed=9)
    assert len(capped) == 7
    pairs = build_workload(policy, gt, "all_pairs_sampled", seed=9)
    assert len(pairs) == 20 * 30
    with pytest.raises(ConfigInvalid):
        build_workload(policy, gt, "bogus")


# sha256 of workload_to_json for the standard profile at n=400, seed 1234, per mode
WORKLOAD_SHA256 = {
    "per_user": "69787b6dce8ba6b737f04491d86a58010daf816e434b7e98f969913197d14a96",
    "all_pairs_sampled": "a9b8967abf60b92cc6b3bf09a774bfad050e066a0c85a135474684588d6b0df4",
}


@pytest.mark.parametrize("mode", sorted(WORKLOAD_SHA256))
def test_workload_bytes_are_frozen_and_contexts_shared(mode):
    policy, gt = generate(config_for_scale(400, seed=1234))
    cap = None if mode == "per_user" else 3000
    queries = build_workload(policy, gt, mode, cap, 1234)
    text = workload_to_json(queries)
    assert hashlib.sha256(text.encode()).hexdigest() == WORKLOAD_SHA256[mode]
    # one context object per acting account, however many queries it serves
    by_account = {}
    for q in queries:
        assert q.ctx == EvaluationContext(gt.eval_timestamp, gt.user_account[q.user])
        assert by_account.setdefault(q.ctx.acting_account, q.ctx) is q.ctx
    assert len(by_account) == len({gt.user_account[q.user] for q in queries}) > 1


def test_measure_fp_hypergraph_exact_and_ladder():
    policy, gt = generate(_ladder_config(31))
    probes = all_triple_probes(policy, CTX)
    fp_h = _fp("hyper", policy, gt, probes)
    fp_d = _fp("dag", policy, gt, probes)
    fp_a = _fp("abac", policy, gt, probes)
    assert fp_h == 0.0
    assert fp_a >= fp_d >= fp_h
    assert fp_a > 0.0  # expired + scoped canaries guarantee a gap


def test_measure_fp_hyper_descends_per_context():
    # a descent cached for a's probe must not answer b's
    p, gt, probes = _same_account_policy()
    assert check_privilege(p, probes[0]).allowed
    assert not check_privilege(p, probes[1]).allowed
    assert _fp("hyper", p, gt, probes) == 0.0


def test_measure_fp_zero_over_zero():
    cfg = GenConfig(
        n_users=4, n_roles=2, n_resources=6,
        pct_temporal=0.0, pct_scoped=0.0, seed=1,
    )
    policy, gt = generate(cfg)
    assert _fp("hyper", policy, gt, all_triple_probes(policy, CTX)) == 0.0


@pytest.mark.parametrize("seed", [31, 100, 101, 102, 103, 104])
@pytest.mark.parametrize("model", MODELS)
def test_measure_fp_matches_redeciding_oracle(model, seed):
    policy, gt = generate(_ladder_config(seed))
    probes = all_triple_probes(policy, CTX)
    assert _fp(model, policy, gt, probes) == measure_fp_oracle(model, policy, gt, CTX)
    workload = build_workload(policy, gt, seed=seed)
    assert _fp(model, policy, gt, workload) == measure_fp_oracle(
        model, policy, gt, CTX, probes=workload
    )


@pytest.mark.parametrize("model", MODELS)
def test_measure_fp_matches_oracle_on_same_account_policy(model):
    p, gt, probes = _same_account_policy()
    assert _fp(model, p, gt, probes) == measure_fp_oracle(model, p, gt, CTX, probes=probes)


def test_measure_fp_rejects_length_mismatch():
    p, gt, probes = _same_account_policy()
    with pytest.raises(ConfigInvalid):
        measure_fp(p, gt, probes, [True])
    with pytest.raises(ConfigInvalid):
        measure_fp(p, gt, probes[:1], [True, False])


def test_measure_fp_rejects_unknown_ledger_user():
    p, gt, probes = _same_account_policy()
    gt = replace(gt, user_roles={**gt.user_roles, 999: ()})
    with pytest.raises(GroundTruthMismatch):
        measure_fp(p, gt, probes, [False, False])


def test_sweep_cardinality_and_csv(tmp_path):
    result = run_sweep(
        ["hyper"], 200, 400, 200, repeats=3, seed=5, queries_per_n=40
    )
    assert len(result.records) == 2  # one median record per (model, n)
    for r in result.records:
        assert r.model == "hyper" and r.queries == 40
        assert r.fp_rate == 0.0
    path = tmp_path / "out.csv"
    emit_csv(result.records, str(path))
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    rows = read_csv(str(path))
    assert rows[0]["model"] == "hyper" and rows[0]["n"] == "200"
    assert ":" in rows[0]["seed"]  # seed plus policy/workload hashes


def test_sweep_identical_inputs_across_models():
    result = run_sweep(
        ["hyper", "dag", "abac"], 200, 200, 200, repeats=1, seed=5, queries_per_n=30
    )
    fingerprints = {r.fingerprint for r in result.records}
    assert len(fingerprints) == 1
    assert len(result.records) == 3


def test_sweep_respects_abac_cap():
    result = run_sweep(
        ["hyper", "abac"], 200, 600, 200, repeats=1, seed=5,
        queries_per_n=20, abac_max_n=400,
    )
    abac_ns = sorted(r.n for r in result.records if r.model == "abac")
    hyper_ns = sorted(r.n for r in result.records if r.model == "hyper")
    assert abac_ns == [200, 400]
    assert hyper_ns == [200, 400, 600]


def test_sweep_determinism_modulo_timing(tmp_path):
    kwargs = dict(repeats=1, seed=11, queries_per_n=25)
    r1 = run_sweep(["hyper", "dag"], 200, 400, 200, **kwargs)
    r2 = run_sweep(["hyper", "dag"], 200, 400, 200, **kwargs)
    for p1, p2 in zip(r1.points, r2.points):
        assert p1.policy_json == p2.policy_json
        assert p1.workload_json == p2.workload_json
        assert p1.decisions == p2.decisions
        assert p1.per_query_ops == p2.per_query_ops
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(r1.records, str(a))
    emit_csv(r2.records, str(b))

    def strip_timing(text: str) -> list[str]:
        out = []
        for line in text.strip().splitlines()[1:]:
            cols = line.split(",")
            out.append(",".join(cols[:3] + cols[5:]))
        return out

    assert strip_timing(a.read_text()) == strip_timing(b.read_text())


def test_report_contains_fits_and_speedup(tmp_path):
    result = run_sweep(
        ["hyper", "dag", "abac"], 200, 600, 200, repeats=1, seed=5, queries_per_n=50
    )
    fits = {
        m: {"detect_time_s": result.fit(m, "detect_time_s")}
        for m in ("hyper", "dag", "abac")
    }
    path = tmp_path / "report.md"
    emit_report(result.records, fits, str(path))
    text = path.read_text()
    assert "Power-law fits" in text
    assert "| abac | detect_time_s |" in text
    assert "Comparison at n=600" in text
