"""Randomized policy builders shared across the test suite."""

from __future__ import annotations

import json
from dataclasses import replace
from datetime import timedelta

from hyperpam.core import (
    ApprovalRequired,
    HyperedgeKind,
    PolicyHypergraph,
    SameAccount,
    TimeWindow,
    VertexId,
    VertexKind,
)
from hyperpam.engine import (
    DEFAULT_MAX_DEPTH,
    EvaluationContext,
    PrivilegeQuery,
    check_privilege,
)
from hyperpam.generator import EPOCH
from hyperpam.perm import PermissionSet
from hyperpam.rng import Rng
from hyperpam.serialize import dumps_policy

ACCOUNTS = ("acct-a", "acct-b", "acct-c")
APPROVAL_TAGS = ("ticket", "oncall")


def random_context(rng: Rng) -> EvaluationContext:
    return EvaluationContext(
        EPOCH + timedelta(hours=rng.randint(0, 72)),
        rng.choice(ACCOUNTS),
        frozenset(t for t in APPROVAL_TAGS if rng.random() < 0.4),
    )


def random_constraints(rng: Rng) -> list:
    out = []
    if rng.random() < 0.25:
        out.append(SameAccount())
    if rng.random() < 0.25:
        start = EPOCH + timedelta(hours=rng.randint(0, 48))
        out.append(TimeWindow(start, start + timedelta(hours=rng.randint(1, 36))))
    if rng.random() < 0.2:
        out.append(ApprovalRequired(rng.choice(APPROVAL_TAGS)))
    return out


def random_policy(
    rng: Rng,
    allow_ua_cycles: bool = True,
    max_users: int = 6,
) -> PolicyHypergraph:
    """Small chaotic policy: hierarchies, multi-member associations,
    constraints, inactive edges; always passes validate()."""
    p = PolicyHypergraph()
    pcs = [
        p.add_vertex(VertexKind.POLICY_CLASS, f"pc-{i}")
        for i in range(rng.randint(1, 2))
    ]
    users = [
        p.add_vertex(VertexKind.USER, f"u{i}", rng.choice(ACCOUNTS))
        for i in range(rng.randint(1, max_users))
    ]
    uas = [
        p.add_vertex(VertexKind.USER_ATTR, f"ua{i}", rng.choice(ACCOUNTS))
        for i in range(rng.randint(1, 6))
    ]
    resources = [
        p.add_vertex(
            VertexKind.RESOURCE,
            f"r{i}",
            rng.choice(ACCOUNTS),
            {"env": rng.choice(("production", "development"))},
        )
        for i in range(rng.randint(1, 6))
    ]
    ras = [
        p.add_vertex(VertexKind.RESOURCE_ATTR, f"ra{i}", rng.choice(ACCOUNTS))
        for i in range(rng.randint(1, 4))
    ]

    for u in users:
        for ua in rng.sample(uas, rng.randint(0, min(3, len(uas)))):
            p.add_assignment(u, ua)
    for i, ua in enumerate(uas):
        if rng.random() < 0.4 and len(uas) > 1:
            pool = uas if allow_ua_cycles else uas[i + 1 :]
            others = [x for x in pool if x != ua]
            if others:
                p.add_assignment(ua, rng.choice(others))
    for r in resources:
        for ra in rng.sample(ras, rng.randint(0, min(2, len(ras)))):
            p.add_assignment(r, ra)
    for i, ra in enumerate(ras):
        if rng.random() < 0.3 and i + 1 < len(ras):
            p.add_assignment(ra, ras[i + 1])

    perm_names = p.universe.names
    n_assoc = rng.randint(0, 6)
    for _ in range(n_assoc):
        user_side = list(rng.sample(uas, rng.randint(1, min(2, len(uas)))))
        if rng.random() < 0.2:
            user_side.append(rng.choice(users))
        res_side = list(rng.sample(ras, rng.randint(1, min(2, len(ras)))))
        if rng.random() < 0.2:
            res_side.append(rng.choice(resources))
        perms = rng.sample(list(perm_names), rng.randint(1, 3))
        eid = p.add_association(
            user_side, res_side, rng.choice(pcs), perms, random_constraints(rng)
        )
        if rng.random() < 0.15:
            p.set_active(eid, False)

    if rng.random() < 0.1:
        for e in list(p.edges()):
            if e.kind is HyperedgeKind.ASSIGNMENT and rng.random() < 0.2:
                p.set_active(e.id, False)

    assert not p.validate()
    return p


def bool_id_document(where: str) -> str:
    """A one-assignment policy document with a JSON boolean where an id
    belongs: a vertex id ("vertex"), a hyperedge id ("hyperedge") or an
    edge member ("member")."""
    p = PolicyHypergraph()
    u = p.add_vertex(VertexKind.USER, "u")
    ua = p.add_vertex(VertexKind.USER_ATTR, "ua")
    p.add_assignment(u, ua)
    obj = json.loads(dumps_policy(p))
    if where == "vertex":
        obj["vertices"][1]["id"] = True
    elif where == "hyperedge":
        obj["hyperedges"][0]["id"] = False
    else:
        obj["hyperedges"][0]["members"] = [False, 1]
    return json.dumps(obj)


def all_triple_probes(
    policy: PolicyHypergraph, ctx: EvaluationContext
) -> list[PrivilegeQuery]:
    """Every (user, op, resource) probe, each acting under the probed user's
    own account and otherwise under ``ctx``."""
    users = sorted(v.id for v in policy.vertices_of_kind(VertexKind.USER))
    resources = sorted(v.id for v in policy.vertices_of_kind(VertexKind.RESOURCE))
    return [
        PrivilegeQuery(
            u, op, r, replace(ctx, acting_account=policy.vertex(u).account)
        )
        for u in users
        for op in policy.universe.names
        for r in resources
    ]


def incident(policy: PolicyHypergraph, vid: VertexId, live_only: bool = True) -> set[int]:
    """Ids of the hyperedges the three indexes list at ``vid``, only the
    active ones unless ``live_only`` is false."""
    policy.vertex(vid)  # raises UnknownVertex for a foreign id
    ids = {
        *(eid for eid, _ in policy.assignments_from(vid)),
        *(eid for eid, _ in policy.assignments_to(vid)),
        *policy.associations_at(vid),
    }
    if live_only:
        return {e for e in ids if policy.edge(e).active}
    return ids


def co_membership_permissions(
    policy: PolicyHypergraph, user: VertexId, resource: VertexId
) -> PermissionSet:
    """Intersection of labels over active hyperedges containing both vertices.

    The empty family intersects to the full universe by convention.
    """
    common = incident(policy, user) & incident(policy, resource)
    mask = policy.universe.full_mask
    for eid in sorted(common):
        mask &= policy.edge(eid).perm_mask
    return PermissionSet(policy.universe, mask)


def effective_permissions(
    policy: PolicyHypergraph,
    user: VertexId,
    resource: VertexId,
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> PermissionSet:
    """Operations the user can apply to the resource via some valid path."""
    mask = 0
    for name in policy.universe.names:
        decision = check_privilege(
            policy, PrivilegeQuery(user, name, resource, ctx), max_depth
        )
        if decision.allowed:
            mask |= policy.universe.bit(name)
    return PermissionSet(policy.universe, mask)
