"""Engine decisions and witnesses against the independent path oracle."""

from __future__ import annotations

import pytest

from hyperpam.core import VertexKind
from hyperpam.engine import (
    PrivilegeQuery,
    check_privilege,
    find_access_paths,
)
from hyperpam.rng import Rng

from .builders import effective_permissions, random_context, random_policy
from .oracle import enumerate_paths, is_valid_path, oracle_allows

N_POLICIES = 150
MAX_DEPTH = 6


def _probe_points(policy, rng, k=4):
    users = [v.id for v in policy.vertices_of_kind(VertexKind.USER)]
    resources = [v.id for v in policy.vertices_of_kind(VertexKind.RESOURCE)]
    ops = policy.universe.names
    return [
        (rng.choice(users), rng.choice(ops), rng.choice(resources))
        for _ in range(k)
        if users and resources
    ]


@pytest.mark.parametrize("seed", range(N_POLICIES))
def test_decision_matches_exhaustive_enumeration(seed):
    rng = Rng(seed)
    policy = random_policy(rng)
    ctx = random_context(rng)
    for user, op, resource in _probe_points(policy, rng):
        expected = oracle_allows(policy, user, resource, op, ctx, MAX_DEPTH)
        decision = check_privilege(
            policy, PrivilegeQuery(user, op, resource, ctx), MAX_DEPTH
        )
        assert decision.allowed == expected
        if decision.allowed:
            assert is_valid_path(
                policy,
                decision.witness.vertices,
                decision.witness.edges,
                user,
                resource,
                op,
                ctx,
                MAX_DEPTH,
            )


@pytest.mark.parametrize("seed", range(0, 60))
def test_witness_is_shortest_and_lex_min(seed):
    rng = Rng(seed * 7919 + 13)
    policy = random_policy(rng)
    ctx = random_context(rng)
    for user, op, resource in _probe_points(policy, rng):
        paths = enumerate_paths(policy, user, resource, op, ctx, MAX_DEPTH)
        decision = check_privilege(
            policy, PrivilegeQuery(user, op, resource, ctx), MAX_DEPTH
        )
        if not paths:
            assert not decision.allowed and decision.witness is None
            continue
        assert decision.allowed
        assert decision.witness.edges == paths[0][1]
        assert decision.witness.vertices == paths[0][0]


@pytest.mark.parametrize("seed", range(0, 60))
def test_find_access_paths_equals_enumeration(seed):
    rng = Rng(seed * 104729 + 7)
    policy = random_policy(rng)
    ctx = random_context(rng)
    for user, op, resource in _probe_points(policy, rng, k=2):
        expected = enumerate_paths(policy, user, resource, op, ctx, MAX_DEPTH)
        result = find_access_paths(
            policy, user, resource, op, ctx, MAX_DEPTH, max_paths=10_000
        )
        assert not result.truncated
        got = [(p.vertices, p.edges) for p in result.paths]
        assert got == expected


@pytest.mark.parametrize("seed", range(0, 40))
def test_effective_permissions_matches_per_op_oracle(seed):
    rng = Rng(seed * 31 + 5)
    policy = random_policy(rng)
    ctx = random_context(rng)
    for user, _op, resource in _probe_points(policy, rng, k=2):
        eff = effective_permissions(policy, user, resource, ctx, MAX_DEPTH)
        for op in policy.universe.names:
            assert (op in eff) == oracle_allows(
                policy, user, resource, op, ctx, MAX_DEPTH
            )


def test_truncation_flag():
    rng = Rng(424242)
    # dense policy with many parallel grants so several paths exist
    from hyperpam.core import PolicyHypergraph

    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    u = p.add_vertex(VertexKind.USER, "u")
    r = p.add_vertex(VertexKind.RESOURCE, "r")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra")
    p.add_assignment(r, ra)
    uas = [p.add_vertex(VertexKind.USER_ATTR, f"ua{i}") for i in range(5)]
    for ua in uas:
        p.add_assignment(u, ua)
        p.add_association([ua], [ra], pc, ["Read"])
    ctx = random_context(rng)
    full = find_access_paths(p, u, r, "Read", ctx, 6, max_paths=50)
    assert len(full.paths) == 5 and not full.truncated
    cut = find_access_paths(p, u, r, "Read", ctx, 6, max_paths=3)
    assert len(cut.paths) == 3 and cut.truncated
    assert cut.paths == full.paths[:3]
