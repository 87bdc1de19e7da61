"""Query engine behaviors on hand-built policies, plus property tests."""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpam.core import HyperedgeKind, PolicyHypergraph, TimeWindow, VertexKind
from hyperpam.detect import EscalationFinding
from hyperpam.engine import (
    DEFAULT_MAX_DEPTH,
    AccessPath,
    EvaluationContext,
    PrivilegeQuery,
    _descend,
    check_privilege,
    effective_permission_map,
    live_grants,
)
from hyperpam.errors import KindMismatch, UnknownPermission, UnknownVertex
from hyperpam.generator import EPOCH
from hyperpam.rng import Rng

from .builders import (
    co_membership_permissions,
    effective_permissions,
    random_context,
    random_policy,
)
from .oracle import enumerate_paths

CTX = EvaluationContext(EPOCH + timedelta(hours=1), "acct-dev")


def build_iam_example():
    """User with a role granted Read on a bucket type: the minimal grant."""
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "aws")
    alice = p.add_vertex(VertexKind.USER, "Alice", "acct-dev")
    dev = p.add_vertex(VertexKind.USER_ATTR, "Developer", "acct-dev")
    bucket = p.add_vertex(VertexKind.RESOURCE, "Bucket123", "acct-dev")
    s3 = p.add_vertex(VertexKind.RESOURCE_ATTR, "s3-bucket", "acct-dev")
    p.add_assignment(bucket, s3)
    e1 = p.add_assignment(alice, dev)
    e2 = p.add_association([dev], [s3], pc, ["Read"])
    return p, dict(pc=pc, alice=alice, dev=dev, bucket=bucket, s3=s3, e1=e1, e2=e2)


def test_minimal_grant_allows_read_only():
    p, ids = build_iam_example()
    d = check_privilege(p, PrivilegeQuery(ids["alice"], "Read", ids["bucket"], CTX))
    assert d.allowed
    assert d.witness.edges[0] == ids["e1"] and ids["e2"] in d.witness.edges
    d2 = check_privilege(p, PrivilegeQuery(ids["alice"], "Write", ids["bucket"], CTX))
    assert not d2.allowed and d2.witness is None


def test_query_records_survive_a_pickle_round_trip():
    # slotted frozen records carry no __dict__, so pickling must go through
    # their slots; worker processes receive queries this way
    ctx = EvaluationContext(EPOCH + timedelta(hours=3), "acct-dev", {"ticket", "oncall"})
    q = PrivilegeQuery(4, "Read", 7, ctx)
    for obj in (ctx, q):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj) and type(back) is type(obj)
    back = pickle.loads(pickle.dumps(q))
    assert back.ctx.timestamp.tzinfo is not None and back.ctx.approvals == {"ticket", "oncall"}
    with pytest.raises(AttributeError):
        back.op = "Write"


def test_path_records_are_frozen_values_that_survive_a_pickle_round_trip():
    # AccessPath and EscalationFinding set their slots in a hand-written __init__
    path = AccessPath((1, 2, 3), (10, 11))
    finding = EscalationFinding(1, path, (2,), 3)
    assert repr(path) == "AccessPath(vertices=(1, 2, 3), edges=(10, 11))"
    assert repr(finding) == (
        "EscalationFinding(user=1, path=AccessPath(vertices=(1, 2, 3), edges=(10, 11)), "
        "chained_attributes=(2,), target=3)"
    )
    twins = (
        AccessPath(vertices=(1, 2, 3), edges=(10, 11)),
        EscalationFinding(1, AccessPath((1, 2, 3), (10, 11)), (2,), 3),
    )
    for obj, twin in zip((path, finding), twins):
        assert obj == twin and hash(obj) == hash(twin) and obj is not twin
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj) and type(back) is type(obj)
    assert finding != EscalationFinding(1, path, (2,), 4)
    with pytest.raises(FrozenInstanceError):
        path.edges = ()
    with pytest.raises(FrozenInstanceError):
        finding.target = 4
    with pytest.raises(ValueError, match="path must interleave"):
        AccessPath((1, 2), ())


def test_an_unknown_start_raises_unknown_vertex():
    p, _ = build_iam_example()
    with pytest.raises(UnknownVertex, match="^no vertex with id 9999$"):
        list(live_grants(p, 9999, CTX))
    with pytest.raises(UnknownVertex, match="^no vertex with id 9999$"):
        effective_permission_map(p, 9999, CTX)


def test_empty_policy_denies():
    p = PolicyHypergraph()
    u = p.add_vertex(VertexKind.USER, "u")
    r = p.add_vertex(VertexKind.RESOURCE, "r")
    d = check_privilege(p, PrivilegeQuery(u, "Read", r, CTX))
    assert not d.allowed and d.witness is None


def test_query_validation_errors():
    p, ids = build_iam_example()
    with pytest.raises(UnknownVertex):
        check_privilege(p, PrivilegeQuery(9999, "Read", ids["bucket"], CTX))
    with pytest.raises(UnknownPermission):
        check_privilege(p, PrivilegeQuery(ids["alice"], "Fly", ids["bucket"], CTX))
    with pytest.raises(KindMismatch):
        check_privilege(p, PrivilegeQuery(ids["dev"], "Read", ids["bucket"], CTX))


def test_direct_two_edge_path_via_resource_member():
    """Assignment into a role plus an association listing the resource
    verbatim yields exactly one two-edge path."""
    p, ids = build_iam_example()
    scratch = p.add_vertex(VertexKind.RESOURCE_ATTR, "scratch-tier")
    e3 = p.add_association([ids["dev"]], [scratch, ids["bucket"]], ids["pc"], ["Write"])
    paths = enumerate_paths(p, ids["alice"], ids["bucket"], "Write", CTX, DEFAULT_MAX_DEPTH)
    assert [edges for _, edges in paths] == [(ids["e1"], e3)]
    d = check_privilege(p, PrivilegeQuery(ids["alice"], "Write", ids["bucket"], CTX))
    assert d.allowed and (d.witness.vertices, d.witness.edges) == paths[0]


def test_jit_window_allows_inside_denies_after():
    p, ids = build_iam_example()
    t0 = EPOCH + timedelta(days=7)
    p.add_association(
        [ids["dev"]],
        [ids["s3"]],
        ids["pc"],
        ["Write"],
        [TimeWindow(t0, t0 + timedelta(hours=2))],
    )
    inside = EvaluationContext(t0 + timedelta(hours=1), "acct-dev")
    after = EvaluationContext(t0 + timedelta(hours=3), "acct-dev")
    assert check_privilege(p, PrivilegeQuery(ids["alice"], "Write", ids["bucket"], inside)).allowed
    assert not check_privilege(p, PrivilegeQuery(ids["alice"], "Write", ids["bucket"], after)).allowed
    # boundary: the window is inclusive at both ends
    at_end = EvaluationContext(t0 + timedelta(hours=2), "acct-dev")
    assert check_privilege(p, PrivilegeQuery(ids["alice"], "Write", ids["bucket"], at_end)).allowed


def test_deactivation_hides_and_restores():
    p, ids = build_iam_example()
    q = PrivilegeQuery(ids["alice"], "Read", ids["bucket"], CTX)
    before = check_privilege(p, q)
    assert before.allowed
    p.set_active(ids["e2"], False)
    assert not check_privilege(p, q).allowed
    p.set_active(ids["e2"], True)
    after = check_privilege(p, q)
    assert after.allowed and after.witness == before.witness

    p.set_active(ids["e1"], False)  # deactivating the assignment cuts everything
    assert not check_privilege(p, q).allowed


def test_deactivation_equals_removal():
    for seed in range(25):
        rng = Rng(9_000 + seed)
        p = random_policy(rng)
        ctx = random_context(rng)
        users = [v.id for v in p.vertices_of_kind(VertexKind.USER)]
        resources = [v.id for v in p.vertices_of_kind(VertexKind.RESOURCE)]
        live = [e.id for e in p.edges() if e.active]
        if not live or not users or not resources:
            continue
        victim = rng.choice(live)
        from hyperpam.serialize import dumps_policy, loads_policy

        twin = loads_policy(dumps_policy(p))
        p.set_active(victim, False)
        twin.remove_hyperedge(victim)
        for u in users[:3]:
            for r in resources[:3]:
                for op in ("Read", "Write"):
                    q = PrivilegeQuery(u, op, r, ctx)
                    assert (
                        check_privilege(p, q).allowed
                        == check_privilege(twin, q).allowed
                    )


def test_co_membership_permissions():
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    u = p.add_vertex(VertexKind.USER, "u")
    ua = p.add_vertex(VertexKind.USER_ATTR, "ua")
    ua2 = p.add_vertex(VertexKind.USER_ATTR, "ua2")
    r = p.add_vertex(VertexKind.RESOURCE, "r")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra")

    # empty family: vacuous intersection is the whole universe
    assert co_membership_permissions(p, u, r).mask == p.universe.full_mask

    e1 = p.add_association([ua, u], [ra, r], pc, ["Read"])
    assert co_membership_permissions(p, u, r).names() == ("Read",)

    e2 = p.add_association([ua2, u], [ra, r], pc, ["Read", "Write"])
    assert co_membership_permissions(p, u, r).names() == ("Read",)

    p.set_active(e1, False)
    assert co_membership_permissions(p, u, r).names() == ("Read", "Write")
    p.set_active(e1, True)
    p.remove_hyperedge(e2)
    assert co_membership_permissions(p, u, r).names() == ("Read",)


def test_effective_permissions_isolated_user_is_empty():
    p, ids = build_iam_example()
    loner = p.add_vertex(VertexKind.USER, "loner")
    assert not effective_permissions(p, loner, ids["bucket"], CTX)


def test_effective_permission_map_matches_pointwise():
    for seed in range(20):
        rng = Rng(31_337 + seed)
        p = random_policy(rng)
        ctx = random_context(rng)
        users = [v.id for v in p.vertices_of_kind(VertexKind.USER)]
        resources = [v.id for v in p.vertices_of_kind(VertexKind.RESOURCE)]
        for u in users[:2]:
            granted = effective_permission_map(p, u, ctx)
            for r in resources:
                assert granted.get(r, 0) == effective_permissions(p, u, r, ctx).mask


def test_traversal_ops_at_the_depth_limit():
    # max_depth 2: bucket fetch + edge, alice fetch + edge, dev fetch (dev is
    # on the last level), the association, probes of its three members
    # (dev, s3, the policy class); deny. max_depth 3: s3 is fetched too, and
    # the witness adds one descent hop.
    p, ids = build_iam_example()
    q = PrivilegeQuery(ids["alice"], "Read", ids["bucket"], CTX)
    decisions = [check_privilege(p, q, depth) for depth in (2, 3)]
    assert [(d.allowed, d.traversal_ops) for d in decisions] == [(False, 9), (True, 11)]


def test_a_resource_is_its_own_descent():
    p, ids = build_iam_example()
    assert _descend(p, ids["bucket"], CTX, {}) == ({ids["bucket"]: 0}, {})
    below, step = _descend(p, ids["s3"], CTX, {})
    assert below == {ids["bucket"]: 1} and step[ids["bucket"]][1] == ids["s3"]


def test_effective_permission_map_memo_shared_across_contexts():
    # a windowed assignment puts jit under s3 only inside the window, so a
    # descent cached under one context must not answer the other
    p, ids = build_iam_example()
    t0 = EPOCH + timedelta(days=7)
    jit = p.add_vertex(VertexKind.RESOURCE, "jit", "acct-dev")
    p.add_raw_hyperedge(
        HyperedgeKind.ASSIGNMENT, [jit, ids["s3"]], (), [TimeWindow(t0, t0 + timedelta(hours=2))]
    )
    assert not p.validate()
    inside = EvaluationContext(t0 + timedelta(hours=1), "acct-dev")
    after = EvaluationContext(t0 + timedelta(hours=3), "acct-dev")
    fresh = {ctx: effective_permission_map(p, ids["alice"], ctx) for ctx in (inside, after)}
    assert jit in fresh[inside] and jit not in fresh[after]
    for order in ((inside, after), (after, inside)):
        memo: dict = {}
        for ctx in order:
            assert effective_permission_map(p, ids["alice"], ctx, _descend_memo=memo) == fresh[ctx]


def test_determinism_byte_identical():
    rng = Rng(5150)
    p = random_policy(rng)
    ctx = random_context(rng)
    users = [v.id for v in p.vertices_of_kind(VertexKind.USER)]
    resources = [v.id for v in p.vertices_of_kind(VertexKind.RESOURCE)]
    q = PrivilegeQuery(users[0], "Read", resources[0], ctx)
    a = check_privilege(p, q)
    b = check_privilege(p, q)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_adding_edges_never_flips_allow_to_deny(seed, data):
    rng = Rng(seed)
    p = random_policy(rng)
    ctx = random_context(rng)
    users = [v.id for v in p.vertices_of_kind(VertexKind.USER)]
    resources = [v.id for v in p.vertices_of_kind(VertexKind.RESOURCE)]
    uas = [v.id for v in p.vertices_of_kind(VertexKind.USER_ATTR)]
    ras = [v.id for v in p.vertices_of_kind(VertexKind.RESOURCE_ATTR)]
    pcs = [v.id for v in p.vertices_of_kind(VertexKind.POLICY_CLASS)]
    u = data.draw(st.sampled_from(users))
    r = data.draw(st.sampled_from(resources))
    op = data.draw(st.sampled_from(list(p.universe.names)))
    q = PrivilegeQuery(u, op, r, ctx)
    before = check_privilege(p, q).allowed
    p.add_association(
        [data.draw(st.sampled_from(uas))], [data.draw(st.sampled_from(ras))],
        pcs[0], [op],
    )
    assert check_privilege(p, q).allowed >= before  # monotone


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_removing_edges_never_flips_deny_to_allow(seed, data):
    rng = Rng(seed)
    p = random_policy(rng)
    ctx = random_context(rng)
    users = [v.id for v in p.vertices_of_kind(VertexKind.USER)]
    resources = [v.id for v in p.vertices_of_kind(VertexKind.RESOURCE)]
    edges = [e.id for e in p.edges()]
    if not edges:
        return
    u = data.draw(st.sampled_from(users))
    r = data.draw(st.sampled_from(resources))
    q = PrivilegeQuery(u, "Read", r, ctx)
    before = check_privilege(p, q).allowed
    p.remove_hyperedge(data.draw(st.sampled_from(edges)))
    assert check_privilege(p, q).allowed <= before


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_enlarging_approvals_never_flips_allow_to_deny(seed):
    rng = Rng(seed)
    p = random_policy(rng)
    base = random_context(rng)
    bigger = EvaluationContext(
        base.timestamp, base.acting_account, base.approvals | {"ticket", "oncall"}
    )
    users = [v.id for v in p.vertices_of_kind(VertexKind.USER)]
    resources = [v.id for v in p.vertices_of_kind(VertexKind.RESOURCE)]
    for u in users[:2]:
        for r in resources[:2]:
            before = check_privilege(p, PrivilegeQuery(u, "Read", r, base)).allowed
            after = check_privilege(p, PrivilegeQuery(u, "Read", r, bigger)).allowed
            assert after >= before
