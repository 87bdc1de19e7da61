"""Privilege queries answered by valid-access-path search.

A query asks whether user ``u`` may apply operation ``op`` to resource ``r``
under a runtime context. The answer is witnessed by an alternating
vertex-hyperedge path. A path is valid when:

* it starts at the queried user and ends at the queried resource;
* consecutive vertices are distinct co-members of the hyperedge between
  them, and no vertex repeats;
* exactly one edge on it is an association (the user-to-resource bridge)
  and that association's label contains ``op``; assignments carry no label
  and are permission-transparent;
* assignment edges before the bridge are traversed tail-to-head (user
  ascending through user attributes) and those after it head-to-tail
  (descending from resource attributes to the resource), so policy-class,
  user and resource vertices never act as transit points between grants;
* every edge on the path is active and its constraints hold under the
  query context.

Decisions and detection passes use exactly two walks. An ascent climbs
live, ctx-satisfied assignments from a user through the user attributes
above it, or from a resource through the resource attributes above it, and
records each reached vertex's distance and one step back toward the start.
A descent walks down from a resource attribute through resource attributes
to the resources below it, records the same kind of step, and is memoized
per (vertex, context). A query ascends from the resource and from the user,
probes every association in the user's closure against the resource's
closure, and rebuilds paths from the recorded steps for the shortest
candidates only. Witnesses are shortest, with ties broken by the
lexicographically smallest hyperedge-id sequence, so identical inputs
always produce identical answers.

Query work is metered in implementation-neutral units so the engine can be
compared against the baseline models: +1 per adjacency fetch (every vertex
of the user's closure, and every vertex of the resource's closure short of
the depth limit), +1 per hyperedge evaluated, +1 per non-empty constraint
list evaluated, +1 per membership probe against the resource closure, and
+1 per hop of the witness's descent (it follows steps recorded on the way
up, so fan-in adds nothing). The walks read the graph's index tables
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, Optional

from .core import POLICY_CLASS, RESOURCE, RESOURCE_ATTR, USER, USER_ATTR
from .core import (
    ApprovalRequired,
    Hyperedge,
    PolicyHypergraph,
    SameAccount,
    TimeWindow,
    VertexId,
    as_utc,
)
from .errors import KindMismatch, UnknownPermission

DEFAULT_MAX_DEPTH = 8


@dataclass(frozen=True, slots=True)
class EvaluationContext:
    """Runtime facts a query is evaluated against."""

    timestamp: datetime
    acting_account: str = ""
    approvals: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "timestamp", as_utc(self.timestamp))
        object.__setattr__(self, "approvals", frozenset(self.approvals))


@dataclass(frozen=True, slots=True)
class PrivilegeQuery:
    user: VertexId
    op: str
    resource: VertexId
    ctx: EvaluationContext


@dataclass(frozen=True, slots=True)
class AccessPath:
    """Alternating v0, e1, v1, ..., ek, vk witness."""

    vertices: tuple[VertexId, ...]
    edges: tuple[int, ...]

    def __init__(self, vertices: tuple[VertexId, ...], edges: tuple[int, ...]):
        # the slots' own setters: a frozen class's generated __init__ takes twice as long
        if len(vertices) != len(edges) + 1:
            raise ValueError("path must interleave k+1 vertices with k edges")
        _set_path_vertices(self, vertices)
        _set_path_edges(self, edges)

    def __len__(self) -> int:
        return len(self.edges)

    def render(self, policy: PolicyHypergraph) -> str:
        parts = [policy.vertex(self.vertices[0]).name]
        for eid, vid in zip(self.edges, self.vertices[1:]):
            parts.append(f"-[e{eid}]-> {policy.vertex(vid).name}")
        return " ".join(parts)


_set_path_vertices, _set_path_edges = AccessPath.vertices.__set__, AccessPath.edges.__set__


@dataclass(frozen=True, slots=True)
class AccessDecision:
    allowed: bool
    witness: Optional[AccessPath]
    traversal_ops: int


def edge_satisfied(
    policy: PolicyHypergraph, edge: Hyperedge, ctx: EvaluationContext
) -> bool:
    """All constraints on the edge hold under the context."""
    for c in edge.constraints:
        if isinstance(c, TimeWindow):
            if not (c.start <= ctx.timestamp <= c.end):
                return False
        elif isinstance(c, SameAccount):
            for vid in edge.members:
                v = policy._vertices[vid]
                # a policy class is a scoping container, not a located entity
                if v.kind is not POLICY_CLASS and v.account != ctx.acting_account:
                    return False
        elif isinstance(c, ApprovalRequired):
            if c.tag not in ctx.approvals:
                return False
        else:  # pragma: no cover - constraint union is closed
            raise TypeError(f"unknown constraint {type(c).__name__}")
    return True


def _check_query(policy: PolicyHypergraph, q: PrivilegeQuery) -> int:
    """Validate the query and return the op's bitmask."""
    user = policy.vertex(q.user)
    resource = policy.vertex(q.resource)
    if user.kind is not USER:
        raise KindMismatch(f"query subject {user.name!r} is not a user")
    if resource.kind is not RESOURCE:
        raise KindMismatch(f"query target {resource.name!r} is not a resource")
    i = policy.universe._index.get(q.op)
    if i is None:
        raise UnknownPermission(f"operation {q.op!r} not in the permission universe")
    return 1 << i


# vertex -> (edge id, the vertex one level closer to the walk's start)
_Steps = dict[VertexId, tuple[int, VertexId]]


def _ascend(
    policy: PolicyHypergraph,
    start: VertexId,
    ctx: EvaluationContext,
    max_depth: float,
) -> tuple[dict[VertexId, int], _Steps, int]:
    """Distances of ``start`` and the attributes it ascends to over live,
    ctx-satisfied assignments, at most ``max_depth - 1`` hops, each
    attribute's step ``(edge id, vertex one level closer to start)``, and
    the walk's work in traversal ops.

    A user-side walk keeps the first step found in BFS order, so following
    steps back spells the lexicographically smallest shortest path read from
    ``start``. A resource-side walk keeps the smallest edge id, so following
    steps down spells the smallest shortest descent to ``start``.
    """
    edges, vertices, assign_out = policy._edges, policy._vertices, policy._assign_out
    start_kind = (vertices.get(start) or policy.vertex(start)).kind  # or UnknownVertex
    lowest = start_kind is RESOURCE or start_kind is RESOURCE_ATTR
    kind = RESOURCE_ATTR if lowest else USER_ATTR
    n = 0
    dist = {start: 0}
    step: _Steps = {}
    queue = [start]
    for v in queue:  # appended to while read: breadth-first, level by level
        d = dist[v]
        if d >= max_depth - 1:
            break
        adj = assign_out[v]
        n += 1 + len(adj)  # adjacency fetch, and each edge evaluated
        for eid, head in adj.items():
            edge = edges[eid]
            if not edge.active:
                continue
            if edge.constraints:
                n += 1
                if not edge_satisfied(policy, edge, ctx):
                    continue
            if vertices[head].kind is not kind:
                continue
            hd = dist.get(head)
            if hd is None:
                dist[head] = d + 1
                step[head] = (eid, v)
                queue.append(head)
            elif lowest and hd == d + 1 and eid < step[head][0]:
                step[head] = (eid, v)
    return dist, step, n


def _descend(
    policy: PolicyHypergraph,
    ra: VertexId,
    ctx: EvaluationContext,
    memo: dict[tuple[VertexId, EvaluationContext], tuple[dict[VertexId, int], _Steps]],
) -> tuple[dict[VertexId, int], _Steps]:
    """Resources below ``ra`` over live, ctx-satisfied assignments with their
    hop distances, and each reached vertex's first-found step ``(edge id,
    vertex one level closer to ra)``, memoized by ``(ra, ctx)``. Steps are
    first found in BFS order, so the path back up from a resource, reversed,
    is the lexicographically smallest shortest descent from ``ra``. Nothing
    is assigned to a resource, so a resource ``ra`` descends to ``{ra: 0}``.
    """
    key = (ra, ctx)
    cached = memo.get(key)
    if cached is not None:
        return cached
    edges, vertices, assign_in = policy._edges, policy._vertices, policy._assign_in
    dist = {ra: 0}
    below: dict[VertexId, int] = {ra: 0} if vertices[ra].kind is RESOURCE else {}
    step: _Steps = {}
    queue = [ra]
    for v in queue:  # appended to while read: breadth-first, level by level
        for eid, tail in assign_in[v].items():
            edge = edges[eid]
            if tail in dist or not edge.active or not edge_satisfied(policy, edge, ctx):
                continue
            kind = vertices[tail].kind
            if kind is RESOURCE:
                below[tail] = dist[v] + 1
            elif kind is RESOURCE_ATTR:
                queue.append(tail)
            else:
                continue
            dist[tail] = dist[v] + 1
            step[tail] = (eid, v)
    memo[key] = below, step
    return below, step


def _path_to(step: _Steps, v: VertexId) -> tuple[tuple[int, ...], tuple[VertexId, ...]]:
    """Edges and vertices of the recorded path from a walk's start to ``v``."""
    edges: tuple[int, ...] = ()
    verts: tuple[VertexId, ...] = (v,)
    while v in step:
        eid, v = step[v]
        edges = (eid,) + edges
        verts = (v,) + verts
    return edges, verts


def _extend(
    edges: tuple[int, ...],
    verts: tuple[VertexId, ...],
    down: _Steps,
) -> tuple[tuple[int, ...], tuple[VertexId, ...]]:
    """Extend a path ending in the resource closure by the lexicographically
    smallest shortest descent to the resource, one recorded edge per hop.
    Greedy is exact: each recorded child sits one level closer to the
    resource, so the smallest edge id at each step minimizes the sequence.
    """
    v = verts[-1]
    while v in down:
        eid, v = down[v]
        edges += (eid,)
        verts += (v,)
    return edges, verts


def check_privilege(
    policy: PolicyHypergraph,
    q: PrivilegeQuery,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> AccessDecision:
    """Decide the query; allowed iff a valid path of <= max_depth edges exists."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    opbit = _check_query(policy, q)
    ctx = q.ctx

    rdist, down, resource_ops = _ascend(policy, q.resource, ctx, max_depth)
    udist, up, user_ops = _ascend(policy, q.user, ctx, max_depth)

    edges, assoc = policy._edges, policy._assoc_incidence
    bridge_ops = 0
    # (user-side vertex, bridge, exit vertex) of the shortest candidates, none over max_depth
    shortest, candidates = max_depth, []
    for v, d in udist.items():
        ids = assoc[v]
        # each association evaluated, and the ascent's skipped last-level fetch
        bridge_ops += len(ids) + (d == max_depth - 1)
        for eid in ids:
            edge = edges[eid]
            if not edge.perm_mask & opbit or not edge.active:
                continue
            if edge.constraints:
                bridge_ops += 1
                if not edge_satisfied(policy, edge, ctx):
                    continue
            bridge_ops += len(edge.members)  # probes against the resource closure
            for m in edge.members:
                rd = rdist.get(m)
                if rd is None:
                    continue
                total = d + 1 + rd
                if total < shortest:
                    shortest, candidates = total, [(v, eid, m)]
                elif total == shortest:
                    candidates.append((v, eid, m))

    if not candidates:
        return AccessDecision(False, None, resource_ops + user_ops + bridge_ops)

    # edge sequences of distinct candidates differ, so min() ranks by edges
    witnesses, descent_ops = [], 0
    for v, bridge, exit_v in candidates:
        pedges, pverts = _path_to(up, v)
        pedges += (bridge,)
        witness = _extend(pedges, pverts + (exit_v,), down)
        descent_ops += len(witness[0]) - len(pedges)  # one op per descent hop
        witnesses.append(witness)
    path_edges, verts = min(witnesses)
    ops = resource_ops + user_ops + bridge_ops + descent_ops
    return AccessDecision(True, AccessPath(verts, path_edges), ops)


def live_grants(
    policy: PolicyHypergraph,
    subject: VertexId,
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Iterator[tuple[VertexId, int, int, int]]:
    """Every grant ``subject`` holds under ``ctx``: ``_grants_at`` at each
    vertex of one ascent from the subject, with the budget set to the descent
    hops the depth limit still allows below the grant's target. ``subject``
    may be a user or a user attribute.
    """
    closure = _ascend(policy, subject, ctx, max_depth)[0]
    for v, d in closure.items():
        budget = max_depth - d - 1
        if budget >= 0:
            yield from _grants_at(policy, v, ctx, budget)


def _grants_at(
    policy: PolicyHypergraph, v: VertexId, ctx: EvaluationContext, budget: int
) -> list[tuple[VertexId, int, int, int]]:
    """(target, budget, mask, association id) for each resource-side member
    of each active, ctx-satisfied association with a non-empty label at ``v``.
    A list: most vertices hold no association, and a generator costs more."""
    edges, vertices = policy._edges, policy._vertices
    grants = []
    for eid in policy._assoc_incidence[v]:
        edge = edges[eid]
        if not edge.active or not edge.perm_mask:
            continue
        if not edge_satisfied(policy, edge, ctx):
            continue
        for m in edge.members:
            if vertices[m].kind in (RESOURCE, RESOURCE_ATTR):
                grants.append((m, budget, edge.perm_mask, eid))
    return grants


def effective_permission_map(
    policy: PolicyHypergraph,
    subject: VertexId,
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
    _descend_memo: Optional[dict] = None,
) -> dict[VertexId, int]:
    """Permission mask per reachable resource, in one sweep from ``subject``.

    For a user subject, ``op``'s bit is set for resource ``r`` exactly when
    ``check_privilege`` allows ``op`` on ``r`` under ``ctx``; the closure and
    descent work is shared across resources. ``subject`` may also be a user
    attribute. A ``_descend_memo`` may be shared between calls under any
    contexts, since descents are keyed by ``(vertex, ctx)``.
    """
    memo = _descend_memo if _descend_memo is not None else {}
    granted: dict[VertexId, int] = {}
    for m, budget, mask, _ in live_grants(policy, subject, ctx, max_depth):
        for rid, rd in _descend(policy, m, ctx, memo)[0].items():
            if rd <= budget:
                granted[rid] = granted.get(rid, 0) | mask
    return granted
