"""Reference models behind the same query contract.

Both baselines are controlled lossy projections of the policy hypergraph,
so their false positives have an explainable mechanism:

* ABAC — the attribute hierarchy is flattened into per-user tag sets and
  associations are expanded into (tag, resource) grant edges. Policy-class
  scoping and all constraints are dropped. Queries explore the full tag
  bipartite without memoization, which is what makes naive attribute
  matching cubic-shaped at detection scale.
* NGAC-DAG — assignments become directed binary edges (must be acyclic)
  and associations become flat (user-side, resource-side) records. Same-
  account and approval constraints are evaluated; time windows are dropped.

Dropping constraints only ever adds decisions, so on any policy
Allow(hypergraph) is a subset of Allow(dag) is a subset of Allow(abac), and
on constraint-free policies all three agree exactly. Traversal counters use
the same primitive units as the hypergraph engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import (
    ApprovalRequired,
    HyperedgeKind,
    PolicyHypergraph,
    SameAccount,
    VertexId,
    VertexKind,
)
from .engine import (
    AccessDecision,
    EvaluationContext,
    PrivilegeQuery,
    check_privilege,
)
from .errors import CycleDetected, UnknownVertex


def _flatten_up(
    out_edges: dict[VertexId, list[VertexId]], start: VertexId
) -> set[VertexId]:
    """Transitive targets of ``start`` (not including start)."""
    seen: set[VertexId] = set()
    stack = [start]
    while stack:
        v = stack.pop()
        for w in out_edges.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass
class AbacGraph:
    """Flat attribute-tag graph: user->tag edges and (tag, resource) grants."""

    universe: object
    user_tags: dict[VertexId, set[VertexId]]
    grants: dict[tuple[VertexId, VertexId], int]
    all_tags: list[VertexId]
    users: set[VertexId]
    resources: set[VertexId]

    @property
    def edge_count(self) -> int:
        return sum(len(t) for t in self.user_tags.values()) + len(self.grants)


def build_abac(policy: PolicyHypergraph) -> AbacGraph:
    """Lossy flattening: hierarchy closure to tag sets, constraints discarded."""
    up: dict[VertexId, list[VertexId]] = {}
    down: dict[VertexId, list[VertexId]] = {}
    for edge in policy.edges():
        if edge.kind is HyperedgeKind.ASSIGNMENT and edge.active:
            up.setdefault(edge.tail, []).append(edge.head)
            down.setdefault(edge.head, []).append(edge.tail)

    users: set[VertexId] = set()
    resources: set[VertexId] = set()
    tags: list[VertexId] = []
    for v in policy.vertices():
        if v.kind is VertexKind.USER:
            users.add(v.id)
        elif v.kind is VertexKind.RESOURCE:
            resources.add(v.id)
        elif v.kind is VertexKind.USER_ATTR:
            tags.append(v.id)

    user_tags = {
        u: {t for t in _flatten_up(up, u)} for u in sorted(users)
    }

    def resources_under(ra: VertexId, memo: dict) -> set[VertexId]:
        cached = memo.get(ra)
        if cached is None:
            cached = {
                w for w in _flatten_up(down, ra)
                if w in resources
            }
            memo[ra] = cached
        return cached

    memo: dict[VertexId, set[VertexId]] = {}
    grants: dict[tuple[VertexId, VertexId], int] = {}
    for edge in policy.edges():
        if edge.kind is not HyperedgeKind.ASSOCIATION or not edge.active:
            continue
        user_side = [
            m for m in edge.members
            if policy.vertex(m).kind in (VertexKind.USER, VertexKind.USER_ATTR)
        ]
        targets: set[VertexId] = set()
        for m in edge.members:
            kind = policy.vertex(m).kind
            if kind is VertexKind.RESOURCE:
                targets.add(m)
            elif kind is VertexKind.RESOURCE_ATTR:
                targets |= resources_under(m, memo)
        for tag in user_side:
            for rid in targets:
                key = (tag, rid)
                grants[key] = grants.get(key, 0) | edge.perm_mask
    return AbacGraph(policy.universe, user_tags, grants, sorted(tags), users, resources)


def abac_check(g: AbacGraph, q: PrivilegeQuery) -> AccessDecision:
    """Tag-matching decision via full bipartite exploration.

    Every (tag, tag) attribute combination is visited with no memoization
    and no early exit, mirroring how naive ABAC engines explore attribute
    rules; constraints were dropped at build time, so expired or scoped
    grants still answer allow.
    """
    if q.user not in g.users or q.resource not in g.resources:
        raise UnknownVertex("query names entities outside the flattened graph")
    opbit = g.universe.bit(q.op)
    ops = 0
    allowed = False

    # direct grant from a user appearing verbatim inside an association
    ops += 1
    direct = g.grants.get((q.user, q.resource))
    if direct is not None and direct & opbit:
        allowed = True

    utags = g.user_tags[q.user]
    rid = q.resource
    grants_get = g.grants.get
    tags = g.all_tags
    for a1 in tags:
        has = a1 in utags
        for a2 in tags:
            ops += 1
            if has and a2 == a1:
                mask = grants_get((a2, rid))
                if mask is not None and mask & opbit:
                    allowed = True
    return AccessDecision(allowed, None, ops)


@dataclass
class AssociationRecord:
    user_side: VertexId
    res_side: VertexId
    perm_mask: int
    same_account: Optional[tuple[str, ...]]  # member accounts to match, or None
    approvals: tuple[str, ...]


@dataclass
class NgacDag:
    """Directed binary-edge projection with flat association records."""

    universe: object
    up_user: dict[VertexId, list[VertexId]]
    up_res: dict[VertexId, list[VertexId]]
    records: list[AssociationRecord]
    users: set[VertexId]
    resources: set[VertexId]
    assignment_edges: int = 0

    @property
    def edge_count(self) -> int:
        return self.assignment_edges + len(self.records)


def build_dag(policy: PolicyHypergraph) -> NgacDag:
    """Binarize the policy; rejects cyclic assignment structure."""
    up_user: dict[VertexId, list[VertexId]] = {}
    up_res: dict[VertexId, list[VertexId]] = {}
    edges: list[tuple[VertexId, VertexId]] = []
    for edge in policy.edges():
        if edge.kind is not HyperedgeKind.ASSIGNMENT or not edge.active:
            continue
        edges.append((edge.tail, edge.head))
        side = (
            up_user
            if policy.vertex(edge.head).kind is VertexKind.USER_ATTR
            else up_res
        )
        side.setdefault(edge.tail, []).append(edge.head)

    # Kahn's check over the directed assignment graph
    indeg: dict[VertexId, int] = {}
    adj: dict[VertexId, list[VertexId]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        indeg[b] = indeg.get(b, 0) + 1
        indeg.setdefault(a, 0)
    ready = [v for v, dgr in indeg.items() if dgr == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in adj.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if done != len(indeg):
        raise CycleDetected("assignment edges contain a cycle")

    users: set[VertexId] = set()
    resources: set[VertexId] = set()
    for v in policy.vertices():
        if v.kind is VertexKind.USER:
            users.add(v.id)
        elif v.kind is VertexKind.RESOURCE:
            resources.add(v.id)

    records: list[AssociationRecord] = []
    for edge in sorted(policy.edges(), key=lambda e: e.id):
        if edge.kind is not HyperedgeKind.ASSOCIATION or not edge.active:
            continue
        same_account: Optional[tuple[str, ...]] = None
        approvals: list[str] = []
        for c in edge.constraints:
            if isinstance(c, SameAccount):
                same_account = tuple(
                    policy.vertex(m).account
                    for m in edge.members
                    if policy.vertex(m).kind is not VertexKind.POLICY_CLASS
                )
            elif isinstance(c, ApprovalRequired):
                approvals.append(c.tag)
            # TimeWindow intentionally dropped: the DAG projection keeps
            # scoping and approvals but has no temporal evaluation.
        user_side = [
            m for m in edge.members
            if policy.vertex(m).kind in (VertexKind.USER, VertexKind.USER_ATTR)
        ]
        res_side = [
            m for m in edge.members
            if policy.vertex(m).kind in (VertexKind.RESOURCE, VertexKind.RESOURCE_ATTR)
        ]
        for x in user_side:
            for y in res_side:
                records.append(
                    AssociationRecord(
                        x, y, edge.perm_mask, same_account, tuple(approvals)
                    )
                )
    return NgacDag(policy.universe, up_user, up_res, records, users, resources, len(edges))


def _closure_counted(
    up: dict[VertexId, list[VertexId]], start: VertexId
) -> tuple[set[VertexId], int]:
    seen = {start}
    stack = [start]
    ops = 0
    while stack:
        v = stack.pop()
        ops += 1  # node expansion
        for w in up.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen, ops


def dag_check(d: NgacDag, q: PrivilegeQuery) -> AccessDecision:
    """Closure both endpoints, then scan every association record."""
    if q.user not in d.users or q.resource not in d.resources:
        raise UnknownVertex("query names entities outside the DAG projection")
    opbit = d.universe.bit(q.op)
    uclo, ops_u = _closure_counted(d.up_user, q.user)
    rclo, ops_r = _closure_counted(d.up_res, q.resource)
    ops = ops_u + ops_r
    allowed = False
    acting = q.ctx.acting_account
    approvals = q.ctx.approvals
    for rec in d.records:
        ops += 1  # record scan
        if rec.user_side not in uclo or rec.res_side not in rclo:
            continue
        if not rec.perm_mask & opbit:
            continue
        if rec.same_account is not None and any(
            a != acting for a in rec.same_account
        ):
            continue
        if any(t not in approvals for t in rec.approvals):
            continue
        allowed = True
    return AccessDecision(allowed, None, ops)


MODELS = ("abac", "dag", "hyper")


@dataclass
class DetectRun:
    """Uniform measurement envelope for one model over one workload."""

    model: str
    decisions: list[bool]
    per_query_ops: list[int]
    total_traversal_ops: int
    build_time_s: float
    detect_time_s: float
    graph_size: int


def detect_all(
    model: str,
    policy: PolicyHypergraph,
    workload: Iterable[PrivilegeQuery],
) -> DetectRun:
    """Run the whole workload through one model, timing build and detect apart."""
    queries = list(workload)
    if not queries:
        raise ValueError("workload must be non-empty")
    if model == "abac":
        t0 = time.perf_counter()
        g = build_abac(policy)
        build_s = time.perf_counter() - t0
        size = g.edge_count
        t0 = time.perf_counter()
        decisions = [abac_check(g, q) for q in queries]
        detect_s = time.perf_counter() - t0
    elif model == "dag":
        t0 = time.perf_counter()
        dg = build_dag(policy)
        build_s = time.perf_counter() - t0
        size = dg.edge_count
        t0 = time.perf_counter()
        decisions = [dag_check(dg, q) for q in queries]
        detect_s = time.perf_counter() - t0
    elif model == "hyper":
        # the policy hypergraph is already the queryable structure
        build_s = 0.0
        size = policy.edge_count
        t0 = time.perf_counter()
        decisions = [check_privilege(policy, q) for q in queries]
        detect_s = time.perf_counter() - t0
    else:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    return DetectRun(
        model=model,
        decisions=[dec.allowed for dec in decisions],
        per_query_ops=[dec.traversal_ops for dec in decisions],
        total_traversal_ops=sum(dec.traversal_ops for dec in decisions),
        build_time_s=build_s,
        detect_time_s=detect_s,
        graph_size=size,
    )
