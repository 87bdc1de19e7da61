"""Engine decisions and witnesses against the independent path oracle."""

from __future__ import annotations

import pytest

from hyperpam.core import VertexKind
from hyperpam.engine import PrivilegeQuery, check_privilege
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


# (Rng seed, probes per policy) for two families of 60 random policies
WITNESS_DRAWS = [pytest.param(s * 7919 + 13, 4, id=str(s)) for s in range(60)] + [
    pytest.param(s * 104729 + 7, 2, id=f"enum-{s}") for s in range(60)
]


@pytest.mark.parametrize("rng_seed, k", WITNESS_DRAWS)
def test_witness_is_shortest_and_lex_min(rng_seed, k):
    rng = Rng(rng_seed)
    policy = random_policy(rng)
    ctx = random_context(rng)
    for user, op, resource in _probe_points(policy, rng, k):
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

