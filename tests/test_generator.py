"""Generator: determinism, distributions, injections, fixture census."""

from __future__ import annotations

import hashlib
import math
from datetime import timedelta

import pytest

from hyperpam.core import HyperedgeKind, VertexKind
from hyperpam.engine import EvaluationContext, PrivilegeQuery, check_privilege
from hyperpam.errors import ConfigInvalid, InsufficientEntities
from hyperpam.generator import (
    EVAL_TS,
    GenConfig,
    GroundTruth,
    config_for_scale,
    generate,
    inject_escalation_chain,
    make_fixture_usecase,
)
from hyperpam.rng import Rng, zipf_sample
from hyperpam.serialize import dumps_policy


def test_generate_is_deterministic():
    cfg = GenConfig(n_users=200, n_roles=20, n_resources=100, seed=7,
                    injected_chains=2, injected_excess=2)
    p1, gt1 = generate(cfg)
    p2, gt2 = generate(cfg)
    assert dumps_policy(p1) == dumps_policy(p2)
    assert gt1.dumps(p1.universe.names) == gt2.dumps(p2.universe.names)
    p3, _ = generate(GenConfig(n_users=200, n_roles=20, n_resources=100, seed=8,
                               injected_chains=2, injected_excess=2))
    assert dumps_policy(p3) != dumps_policy(p1)


def test_generate_counts_and_validity():
    cfg = GenConfig(n_users=50, n_roles=10, n_resources=45, seed=3)
    policy, gt = generate(cfg)
    assert len(policy.vertices_of_kind(VertexKind.USER)) == 50
    assert len(policy.vertices_of_kind(VertexKind.USER_ATTR)) == 10
    assert len(policy.vertices_of_kind(VertexKind.RESOURCE)) == 45
    assert len(policy.vertices_of_kind(VertexKind.RESOURCE_ATTR)) == cfg.n_resource_types
    assert policy.validate() == []
    # every user's assignment count is within the configured range
    for uid, roles in gt.user_roles.items():
        assert 1 <= len(roles) <= 5


def test_config_for_scale_matches_parameter_table():
    ns = list(range(200, 4001, 200))
    cfgs = [config_for_scale(n) for n in ns]
    assert [c.n_roles for c in cfgs] == [n // 10 for n in ns]
    assert cfgs[0].n_roles == 20 and cfgs[-1].n_roles == 400
    assert cfgs[0].n_resources == 100 and cfgs[-1].n_resources == 2000


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        GenConfig(n_users=-1, n_roles=1, n_resources=1).validate()
    with pytest.raises(ConfigInvalid):
        GenConfig(n_users=1, n_roles=1, n_resources=1, zipf_s=0.0).validate()
    with pytest.raises(ConfigInvalid):
        GenConfig(n_users=1, n_roles=1, n_resources=1, pct_temporal=1.5).validate()
    with pytest.raises(ConfigInvalid):
        generate(GenConfig(n_users=1, n_roles=1, n_resources=1, profile="bogus"))


def test_zipf_degenerate_and_bounds():
    rng = Rng(1)
    assert all(zipf_sample(rng, 1, 1.0) == 1 for _ in range(50))
    draws = [zipf_sample(rng, 10, 1.0) for _ in range(1000)]
    assert min(draws) >= 1 and max(draws) <= 10


def test_zipf_head_ratio_matches_analytic():
    # with s=1 the analytic ratio P(1)/P(2) is exactly 2
    rng = Rng(99)
    n = 1_000_000
    counts = [0] * 11
    for _ in range(n):
        counts[zipf_sample(rng, 10, 1.0)] += 1
    ratio = counts[1] / counts[2]
    assert abs(ratio - 2.0) / 2.0 < 0.03


def test_zipf_frequencies_match_harmonic_normalization():
    rng = Rng(4242)
    n = 1_000_000
    counts = [0] * 11
    for _ in range(n):
        counts[zipf_sample(rng, 10, 1.0)] += 1
    h10 = sum(1.0 / k for k in range(1, 11))
    for k in range(1, 11):
        expected = (1.0 / k) / h10
        assert abs(counts[k] / n - expected) < 0.02


def test_injected_chains_round_trip():
    cfg = GenConfig(
        n_users=30, n_roles=8, n_resources=40, injected_chains=3, seed=13
    )
    policy, gt = generate(cfg)
    assert len(gt.chains) == 3
    targets = [c.target_role for c in gt.chains]
    assert len(set(targets)) == 3
    for chain in gt.chains:
        assert policy.has_edge(chain.assignment_edge)
        assert policy.has_edge(chain.association_edge)
        assert chain.finding_users, "chain sources must have users"
        # the chained access really exists
        uid = chain.finding_users[0]
        rid = gt.resources_by_type[chain.type_id][0]
        assert check_privilege(
            policy, PrivilegeQuery(uid, "Read", rid, gt.context_for(uid))
        ).allowed


def test_public_chain_injection_minimal_shape():
    from hyperpam.core import PolicyHypergraph

    p = PolicyHypergraph()
    p.add_vertex(VertexKind.POLICY_CLASS, "aws")
    alice = p.add_vertex(VertexKind.USER, "Alice", "a")
    dev = p.add_vertex(VertexKind.USER_ATTR, "Developer", "a")
    power = p.add_vertex(VertexKind.USER_ATTR, "PowerUser", "a")
    rds = p.add_vertex(
        VertexKind.RESOURCE_ATTR, "rds", "a", {"env": "production"}
    )
    pdb = p.add_vertex(
        VertexKind.RESOURCE, "ProductionDB", "a", {"env": "production"}
    )
    p.add_assignment(pdb, rds)
    p.add_assignment(alice, dev)
    gt = GroundTruth(
        eval_timestamp=EVAL_TS,
        user_roles={alice: (dev,)},
        user_account={alice: "a"},
        grants=[],
        resource_types={pdb: (rds,)},
    )
    record = inject_escalation_chain(p, gt, Rng(1))
    assert record.source_role == dev and record.target_role == power
    assert record.finding_users == (alice,)
    d = check_privilege(p, PrivilegeQuery(alice, "Read", pdb, gt.context_for(alice)))
    assert d.allowed
    names = [p.vertex(v).name for v in d.witness.vertices]
    assert names == ["Alice", "Developer", "PowerUser", "rds", "ProductionDB"]


def test_public_chain_injection_needs_entities():
    from hyperpam.core import PolicyHypergraph

    p = PolicyHypergraph()
    p.add_vertex(VertexKind.POLICY_CLASS, "aws")
    u = p.add_vertex(VertexKind.USER, "u")
    only_role = p.add_vertex(VertexKind.USER_ATTR, "only")
    p.add_assignment(u, only_role)
    gt = GroundTruth(
        eval_timestamp=EVAL_TS,
        user_roles={u: (only_role,)},
        user_account={u: ""},
        grants=[],
        resource_types={},
    )
    with pytest.raises(InsufficientEntities):
        inject_escalation_chain(p, gt, Rng(1))


def test_fixture_census_and_alice():
    policy, gt = make_fixture_usecase()
    assert len(policy.vertices_of_kind(VertexKind.USER)) == 250
    assert len(policy.vertices_of_kind(VertexKind.USER_ATTR)) == 45
    assert len(policy.vertices_of_kind(VertexKind.RESOURCE)) == 400
    assert len(policy.vertices_of_kind(VertexKind.RESOURCE_ATTR)) == 15
    assert policy.validate() == []
    assert len(gt.chains) == 1 and len(gt.excess) == 8
    alice = policy.vertex_named(VertexKind.USER, "Alice").id
    assert alice in gt.chains[0].finding_users
    # deterministic across calls
    p2, _ = make_fixture_usecase()
    assert dumps_policy(policy) == dumps_policy(p2)


def test_ground_truth_intended_matches_engine_on_generated_policies():
    cfg = GenConfig(
        n_users=25, n_roles=6, n_resources=30,
        injected_chains=1, injected_excess=1, seed=21,
    )
    policy, gt = generate(cfg)
    users = sorted(v.id for v in policy.vertices_of_kind(VertexKind.USER))
    resources = sorted(v.id for v in policy.vertices_of_kind(VertexKind.RESOURCE))
    for u in users:
        ctx = gt.context_for(u)
        for r in resources:
            for op in policy.universe.names:
                allowed = check_privilege(policy, PrivilegeQuery(u, op, r, ctx)).allowed
                opbit = policy.universe.bit(op)
                labeled = gt.is_intended(u, opbit, r, ctx) or gt.is_violation_fact(
                    u, opbit, r
                )
                assert allowed == labeled, (u, op, r)


def test_sqrt_profile_superlinear_hyperedges():
    sizes = {}
    for n in (200, 800, 3200):
        cfg = config_for_scale(n, profile="sqrt-grouping",
                               injected_chains=0, injected_excess=0)
        policy, _ = generate(cfg)
        assert policy.validate() == []
        sizes[n] = policy.edge_count
    # superlinear but subquadratic over two 4x steps
    g1 = sizes[800] / sizes[200]
    g2 = sizes[3200] / sizes[800]
    for g in (g1, g2):
        assert 4 * 1.3 < g < 16, sizes
    exponent = math.log(sizes[3200] / sizes[200]) / math.log(16)
    assert 1.3 <= exponent <= 1.7, (sizes, exponent)


# sha256 of dumps_policy for fixed configs: any change to what generation
# draws or writes, RNG draw order included, shows here
POLICY_SHA256 = {
    "standard": "e8b4f34409b3d5f6ec56c60316c319735d20183db08ee9a33fd9065a89c4a3ba",
    "sqrt-grouping": "34dfba486f6c992b458da72dc297efed150de590aca185b836fc39ae29d7c335",
    "fixture": "aa5be4ee7e4df90d437f5adf8a879cfbda1b99fc1710c9f7f323dac9534b2937",
}


def _generated(case):
    if case == "fixture":
        return make_fixture_usecase()
    return generate(config_for_scale(400, seed=1234, profile=case))


@pytest.mark.parametrize("case", sorted(POLICY_SHA256))
def test_generated_policy_bytes_are_frozen(case):
    policy, _ = _generated(case)
    assert hashlib.sha256(dumps_policy(policy).encode()).hexdigest() == POLICY_SHA256[case]


@pytest.mark.parametrize("case", sorted(POLICY_SHA256))
def test_ledger_round_trip(case):
    policy, gt = _generated(case)
    text = gt.dumps(policy.universe.names)
    loaded = GroundTruth.loads(text, policy.universe)
    assert loaded == gt
    assert loaded.dumps(policy.universe.names) == text
    assert loaded.resources_by_type == gt.resources_by_type
    now = EvaluationContext(EVAL_TS)
    later = EvaluationContext(EVAL_TS + timedelta(days=400), "acct-0")
    for ctx in (now, later):
        assert loaded.required_permissions(ctx) == gt.required_permissions(ctx)
    if case == "standard":  # it has constrained grants, so the contexts matter
        assert gt.required_permissions(now) != gt.required_permissions(later)
    # a timestamp without an offset is read as UTC, as policy files read it
    assert GroundTruth.loads(text.replace("+00:00", ""), policy.universe) == gt


def test_ledger_size_is_linear_in_policy_size():
    sizes = {}
    for n in (1000, 2000):
        policy, gt = generate(config_for_scale(n, seed=1234))
        sizes[n] = len(gt.dumps(policy.universe.names))
    assert sizes[2000] < 2.5 * sizes[1000], sizes
