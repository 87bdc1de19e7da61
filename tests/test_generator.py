"""Generator: determinism, distributions, injections, fixture census."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from datetime import timedelta

import pytest

from hyperpam.bench import build_workload
from hyperpam.core import HyperedgeKind, SameAccount, TimeWindow, VertexKind
from hyperpam.engine import EvaluationContext, PrivilegeQuery, check_privilege
from hyperpam.errors import ConfigInvalid, InsufficientEntities
from hyperpam.generator import (
    EVAL_TS,
    GenConfig,
    GroundTruth,
    _Draft,
    config_for_scale,
    generate,
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
        GenConfig(n_users=1, n_roles=1, n_resources=1, pct_temporal=1.5).validate()
    with pytest.raises(ConfigInvalid):
        generate(GenConfig(n_users=1, n_roles=1, n_resources=1, profile="bogus"))
    with pytest.raises(ConfigInvalid, match="0 resource types cannot host"):
        generate(GenConfig(n_users=1, n_roles=1, n_resources=1, n_resource_types=0))


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
        assert policy.edge(chain.assignment_edge).kind is HyperedgeKind.ASSIGNMENT
        assert policy.edge(chain.association_edge).kind is HyperedgeKind.ASSOCIATION
        assert chain.finding_users, "chain sources must have users"
        # the chained access really exists
        uid = chain.finding_users[0]
        rid = gt.resources_by_type[chain.type_id][0]
        assert check_privilege(
            policy, PrivilegeQuery(uid, "Read", rid, gt.context_for(uid))
        ).allowed


def _alice_draft():
    """A draft where Alice holds Developer, PowerUser is grant-free and
    ProductionDB is the one resource of the production type rds."""
    draft = _Draft("aws")
    p = draft.policy
    dev = p.add_vertex(VertexKind.USER_ATTR, "Developer", "a")
    power = p.add_vertex(VertexKind.USER_ATTR, "PowerUser", "a")
    rds = p.add_vertex(VertexKind.RESOURCE_ATTR, "rds", "a", {"env": "production"})
    pdb = draft.resource("ProductionDB", "a", [rds])
    alice = draft.user("Alice", "a", [dev])
    return draft, alice, dev, power, rds, pdb


def test_draft_chain_injection_minimal_shape():
    draft, alice, dev, power, rds, pdb = _alice_draft()
    record = draft.inject_chain(Rng(1), [dev], power, [rds])
    p, gt = draft.finish()
    assert record.source_role == dev and record.target_role == power
    assert record.finding_users == record.fact_users == (alice,)
    assert gt.chains == [record] and gt.resources_by_type == {rds: (pdb,)}
    d = check_privilege(p, PrivilegeQuery(alice, "Read", pdb, gt.context_for(alice)))
    assert d.allowed
    names = [p.vertex(v).name for v in d.witness.vertices]
    assert names == ["Alice", "Developer", "PowerUser", "rds", "ProductionDB"]


def test_draft_injections_need_entities():
    draft, alice, dev, power, rds, pdb = _alice_draft()
    p = draft.policy
    empty_prod = p.add_vertex(VertexKind.RESOURCE_ATTR, "s3-prod", "a", {"env": "production"})
    dev_type = p.add_vertex(VertexKind.RESOURCE_ATTR, "s3-dev", "a", {"env": "development"})
    draft.resource("bucket", "a", [dev_type])
    draft.grant(dev, dev_type, p.universe.mask_of(["Read"]))
    edges = p.edge_count
    with pytest.raises(InsufficientEntities, match="no role with assigned users"):
        draft.inject_chain(Rng(1), [], power, [rds])
    with pytest.raises(InsufficientEntities, match="no production type with resources"):
        draft.inject_chain(Rng(1), [dev], power, [empty_prod])
    with pytest.raises(InsufficientEntities, match="cannot inject 2 excess grants over 1 granted"):
        draft.inject_excess(Rng(1), 2)
    with pytest.raises(InsufficientEntities, match="cannot inject 1 excess grants over 0 granted"):
        draft.inject_excess(Rng(1), 1, exclude=(dev,))
    # a refused injection adds nothing
    _, gt = draft.finish()
    assert p.edge_count == edges and gt.chains == [] and gt.excess == []


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
        policy, _ = generate(config_for_scale(n, profile="sqrt-grouping"))
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


# The query kernel's answers on the per_user workload (seed 1234) of the
# standard profile and of the fixture: the sum of traversal_ops, and the sha256
# of the decision lines [allowed, witness edges]. Any change to what a check
# decides, which witness it picks or what it counts shows here.
QUERY_DIGEST = {
    "standard": (23857, "fcf4ca4fd5c5629422c33d85f1630faf63a1a000f85ecee66bc514144c16bd97"),
    "fixture": (7635, "b47372e06fa4751c53fe5effe2555390898218a99ba53a60d757712e121c6cef"),
}


# The ledger's bytes, pinned beside the policy's: GroundTruth.dumps of the same
# three cases.
LEDGER_SHA256 = {
    "standard": "c532fc535ecccf58a85cf6c6929d6e822800bb0b3dcf714e174c7f675bb58f9f",
    "sqrt-grouping": "4359ba05d5c84655bfbc6524716c39d0583481ba416e0b76df05ba04db758fc1",
    "fixture": "9431c81266ce86a081af0c0321948c3b4f4af740ab9539ade1556aae0d279f80",
}


def _generated(case):
    if case == "fixture":
        return make_fixture_usecase()
    return generate(config_for_scale(400, seed=1234, profile=case))


@pytest.mark.parametrize("case", sorted(POLICY_SHA256))
def test_generated_policy_bytes_are_frozen(case):
    policy, _ = _generated(case)
    assert hashlib.sha256(dumps_policy(policy).encode()).hexdigest() == POLICY_SHA256[case]


@pytest.mark.parametrize("case", sorted(QUERY_DIGEST))
def test_query_stream_answers_are_frozen(case):
    policy, gt = _generated(case)
    ops, lines = 0, []
    for q in build_workload(policy, gt, "per_user", None, 1234):
        d = check_privilege(policy, q)
        ops += d.traversal_ops
        lines.append([d.allowed, list(d.witness.edges) if d.witness else None])
    digest = hashlib.sha256(json.dumps(lines).encode()).hexdigest()
    assert (ops, digest) == QUERY_DIGEST[case]


@pytest.mark.parametrize("case", sorted(LEDGER_SHA256))
def test_generated_ledger_bytes_are_frozen(case):
    policy, gt = _generated(case)
    text = gt.dumps(policy.universe.names)
    assert hashlib.sha256(text.encode()).hexdigest() == LEDGER_SHA256[case]


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


def test_replaced_grants_rederive_the_index():
    _, gt = make_fixture_usecase()
    thin = replace(gt, grants=gt.grants[::2])
    assert sum(map(len, thin._grants_by_role.values())) == len(thin.grants) == 66
    ctx = EvaluationContext(EVAL_TS)
    fresh = GroundTruth(gt.eval_timestamp, gt.user_roles, gt.user_account,
                        gt.grants[::2], gt.resource_types)
    assert thin.required_permissions(ctx) == fresh.required_permissions(ctx)
    assert thin.required_permissions(ctx) != gt.required_permissions(ctx)


@pytest.mark.parametrize("case", sorted(POLICY_SHA256))
def test_ledger_rows_match_their_edges(case):
    policy, gt = _generated(case)
    (pc,) = [v.id for v in policy.vertices_of_kind(VertexKind.POLICY_CLASS)]
    universe = policy.universe

    def association(eid, role, tid, mask):
        e = policy.edge(eid)
        assert e.kind is HyperedgeKind.ASSOCIATION and e.active
        assert e.members == (role, tid, pc) and e.perm_mask == mask
        return e

    for g in gt.grants:
        e = association(g.edge, g.role, g.type_id, g.mask)
        want = [TimeWindow(*g.window)] if g.window else []
        want += [SameAccount()] if g.same_account else []
        assert list(e.constraints) == want
        accounts = (policy.vertex(g.role).account, policy.vertex(g.type_id).account)
        assert g.member_accounts == (accounts if g.same_account else ())

    def heads(vid):
        return tuple(head for _, head in sorted(policy.assignments_from(vid)))

    users = [v.id for v in policy.vertices_of_kind(VertexKind.USER)]
    assert sorted(gt.user_roles) == sorted(gt.user_account) == users
    for u in users:
        assert gt.user_roles[u] == heads(u)
        assert gt.user_account[u] == policy.vertex(u).account
    resources = [v.id for v in policy.vertices_of_kind(VertexKind.RESOURCE)]
    assert sorted(gt.resource_types) == resources
    for r in resources:
        assert gt.resource_types[r] == heads(r)

    def holders(role):
        return tuple(u for u in users if role in gt.user_roles[u])

    for c in gt.chains:
        e = policy.edge(c.assignment_edge)
        assert e.kind is HyperedgeKind.ASSIGNMENT and e.members == (c.source_role, c.target_role)
        assert association(c.association_edge, c.target_role, c.type_id, c.mask).constraints == ()
        assert c.mask == universe.mask_of(["Read", "Write"])
        assert c.finding_users == holders(c.source_role)
        assert c.fact_users == tuple(sorted({*holders(c.source_role), *holders(c.target_role)}))
    for x in gt.excess:
        assert association(x.association_edge, x.role, x.type_id, x.mask).constraints == ()
        assert x.users == holders(x.role)

    # every edge of the policy is one of the ledger's rows
    recorded = [g.edge for g in gt.grants] + [c.association_edge for c in gt.chains]
    recorded += [x.association_edge for x in gt.excess] + [c.assignment_edge for c in gt.chains]
    recorded += [eid for v in users + resources for eid, _ in policy.assignments_from(v)]
    assert sorted(recorded) == sorted(e.id for e in policy.edges())


def test_ledger_size_is_linear_in_policy_size():
    sizes = {}
    for n in (1000, 2000):
        policy, gt = generate(config_for_scale(n, seed=1234))
        sizes[n] = len(gt.dumps(policy.universe.names))
    assert sizes[2000] < 2.5 * sizes[1000], sizes
