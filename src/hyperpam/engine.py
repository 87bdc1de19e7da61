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

Search is bidirectional: the resource's attribute closure is computed
first, then a breadth-first sweep of the user's attribute closure probes
each reachable association against that closure. Witnesses are
shortest, with ties broken by the lexicographically smallest hyperedge-id
sequence, so identical inputs always produce identical answers.

Traversal work is metered in implementation-neutral units so the engine
can be compared against the baseline models: +1 per adjacency fetch, +1
per hyperedge evaluated, +1 per non-empty constraint list evaluated, +1
per membership probe against the opposite closure, and +1 per descent hop
(a descent follows edges recorded on the way up, so fan-in adds nothing).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterator, Optional

from .core import (
    ApprovalRequired,
    Hyperedge,
    HyperedgeKind,
    PolicyHypergraph,
    SameAccount,
    TimeWindow,
    VertexId,
    VertexKind,
    as_utc,
)
from .errors import KindMismatch, UnknownPermission, UnknownVertex

DEFAULT_MAX_DEPTH = 8


@dataclass(frozen=True)
class EvaluationContext:
    """Runtime facts a query is evaluated against."""

    timestamp: datetime
    acting_account: str = ""
    approvals: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "timestamp", as_utc(self.timestamp))
        object.__setattr__(self, "approvals", frozenset(self.approvals))


@dataclass(frozen=True)
class PrivilegeQuery:
    user: VertexId
    op: str
    resource: VertexId
    ctx: EvaluationContext


@dataclass(frozen=True)
class AccessPath:
    """Alternating v0, e1, v1, ..., ek, vk witness."""

    vertices: tuple[VertexId, ...]
    edges: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("path must interleave k+1 vertices with k edges")

    def __len__(self) -> int:
        return len(self.edges)

    def render(self, policy: PolicyHypergraph) -> str:
        parts = [policy.vertex(self.vertices[0]).name]
        for eid, vid in zip(self.edges, self.vertices[1:]):
            parts.append(f"-[e{eid}]-> {policy.vertex(vid).name}")
        return " ".join(parts)


@dataclass(frozen=True)
class AccessDecision:
    allowed: bool
    witness: Optional[AccessPath]
    traversal_ops: int


@dataclass
class PathSearchResult:
    paths: list[AccessPath]
    truncated: bool


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


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
                v = policy.vertex(vid)
                if v.kind is VertexKind.POLICY_CLASS:
                    continue  # scoping container, not a located entity
                if v.account != ctx.acting_account:
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
    if user.kind is not VertexKind.USER:
        raise KindMismatch(f"query subject {user.name!r} is not a user")
    if resource.kind is not VertexKind.RESOURCE:
        raise KindMismatch(f"query target {resource.name!r} is not a resource")
    if q.op not in policy.universe:
        raise UnknownPermission(f"operation {q.op!r} not in the permission universe")
    return policy.universe.bit(q.op)


def _resource_closure(
    policy: PolicyHypergraph,
    resource: VertexId,
    ctx: EvaluationContext,
    max_depth: int,
    count: _Counter,
) -> tuple[dict[VertexId, int], dict[VertexId, tuple[int, VertexId]]]:
    """Distance map of the resource and the attributes it ascends to, and
    each attribute's descent step: the smallest-id live ``(edge id, child)``
    into it from one level closer to the resource."""
    dist = {resource: 0}
    down: dict[VertexId, tuple[int, VertexId]] = {}
    frontier = [resource]
    d = 0
    while frontier and d < max_depth - 1:
        nxt: list[VertexId] = []
        for v in frontier:
            count.n += 1  # adjacency fetch
            for eid, head in policy.assignments_from(v):
                count.n += 1  # edge evaluated
                edge = policy.edge(eid)
                if not edge.active:
                    continue
                if edge.constraints:
                    count.n += 1
                    if not edge_satisfied(policy, edge, ctx):
                        continue
                if policy.vertex(head).kind is not VertexKind.RESOURCE_ATTR:
                    continue
                hd = dist.get(head)
                if hd is None:
                    dist[head] = d + 1
                    down[head] = (eid, v)
                    nxt.append(head)
                elif hd == d + 1 and eid < down[head][0]:
                    down[head] = (eid, v)
        frontier = nxt
        d += 1
    return dist, down


def _descend(
    edges: tuple[int, ...],
    verts: tuple[VertexId, ...],
    down: dict[VertexId, tuple[int, VertexId]],
    count: _Counter,
) -> tuple[tuple[int, ...], tuple[VertexId, ...]]:
    """Extend a path ending in the resource closure by the lexicographically
    smallest shortest descent to the resource, one recorded edge per hop.
    Greedy is exact: each recorded child sits one level closer to the
    resource, so the smallest edge id at each step minimizes the sequence.
    """
    v = verts[-1]
    while v in down:
        count.n += 1  # descent hop
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
    count = _Counter()
    ctx = q.ctx

    rdist, down = _resource_closure(policy, q.resource, ctx, max_depth, count)

    # (total length, prefix edge seq, prefix vertex seq, bridge edge, exit vertex)
    candidates: list[tuple[int, tuple[int, ...], tuple[VertexId, ...], int, VertexId]] = []

    seen = {q.user}
    # queue entries: (vertex, dist, prefix edges, prefix vertices incl. vertex)
    queue: list[tuple[VertexId, int, tuple[int, ...], tuple[VertexId, ...]]] = [
        (q.user, 0, (), (q.user,))
    ]
    head = 0
    while head < len(queue):
        v, d, pedges, pverts = queue[head]
        head += 1
        count.n += 1  # adjacency fetch
        if d + 1 <= max_depth:
            for eid in policy.associations_at(v):
                count.n += 1
                edge = policy.edge(eid)
                if not edge.active or not (edge.perm_mask & opbit):
                    continue
                if edge.constraints:
                    count.n += 1
                    if not edge_satisfied(policy, edge, ctx):
                        continue
                for m in edge.members:
                    count.n += 1  # probe against the resource closure
                    rd = rdist.get(m)
                    if rd is None:
                        continue
                    total = d + 1 + rd
                    if total <= max_depth:
                        candidates.append((total, pedges, pverts, eid, m))
        if d + 1 < max_depth:  # one edge must remain for the bridge
            for eid, w in policy.assignments_from(v):
                count.n += 1
                edge = policy.edge(eid)
                if not edge.active:
                    continue
                if edge.constraints:
                    count.n += 1
                    if not edge_satisfied(policy, edge, ctx):
                        continue
                if policy.vertex(w).kind is not VertexKind.USER_ATTR:
                    continue
                if w not in seen:
                    seen.add(w)
                    queue.append((w, d + 1, pedges + (eid,), pverts + (w,)))

    if not candidates:
        return AccessDecision(False, None, count.n)

    # edge sequences of distinct candidates differ, so min() ranks by edges
    shortest = min(c[0] for c in candidates)
    edges, verts = min(
        _descend(pedges + (bridge,), pverts + (exit_v,), down, count)
        for total, pedges, pverts, bridge, exit_v in candidates
        if total == shortest
    )
    return AccessDecision(True, AccessPath(verts, edges), count.n)


def find_access_paths(
    policy: PolicyHypergraph,
    user: VertexId,
    resource: VertexId,
    op: str,
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_paths: int = 64,
) -> PathSearchResult:
    """All distinct valid simple paths, shortest first, deterministic order.

    Stops after max_paths results; ``truncated`` reports whether more exist.
    """
    q = PrivilegeQuery(user, op, resource, ctx)
    opbit = _check_query(policy, q)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if max_paths < 1:
        raise ValueError("max_paths must be >= 1")

    paths: list[AccessPath] = []
    # Best-first over partial paths keyed by (length, edge seq, vertex seq):
    # pops come out in global shortest-then-lexicographic order, so completed
    # paths are emitted exactly in the contract order and truncation keeps a
    # true prefix of it.
    heap: list[
        tuple[int, tuple[int, ...], tuple[VertexId, ...], bool, bool]
    ] = [(0, (), (user,), False, False)]
    while heap:
        depth, edges, verts, crossed, complete = heapq.heappop(heap)
        if complete:
            paths.append(AccessPath(verts, edges))
            if len(paths) > max_paths:
                return PathSearchResult(paths[:max_paths], True)
            continue
        if depth >= max_depth:
            continue
        v = verts[-1]
        if not crossed:
            for eid, w in policy.assignments_from(v):
                edge = policy.edge(eid)
                if not edge.active or not edge_satisfied(policy, edge, ctx):
                    continue
                if policy.vertex(w).kind is VertexKind.USER_ATTR and w not in verts:
                    heapq.heappush(
                        heap, (depth + 1, edges + (eid,), verts + (w,), False, False)
                    )
            for eid in policy.associations_at(v):
                edge = policy.edge(eid)
                if not edge.active or not (edge.perm_mask & opbit):
                    continue
                if not edge_satisfied(policy, edge, ctx):
                    continue
                for m in set(edge.members):
                    if m == resource:
                        heapq.heappush(
                            heap, (depth + 1, edges + (eid,), verts + (m,), True, True)
                        )
                    elif (
                        policy.vertex(m).kind is VertexKind.RESOURCE_ATTR
                        and m not in verts
                    ):
                        heapq.heappush(
                            heap, (depth + 1, edges + (eid,), verts + (m,), True, False)
                        )
        else:
            for eid, tail in policy.assignments_to(v):
                edge = policy.edge(eid)
                if not edge.active or not edge_satisfied(policy, edge, ctx):
                    continue
                if tail == resource:
                    heapq.heappush(
                        heap, (depth + 1, edges + (eid,), verts + (tail,), True, True)
                    )
                elif (
                    policy.vertex(tail).kind is VertexKind.RESOURCE_ATTR
                    and tail not in verts
                ):
                    heapq.heappush(
                        heap, (depth + 1, edges + (eid,), verts + (tail,), True, False)
                    )
    return PathSearchResult(paths, False)


def _user_side_closure(
    policy: PolicyHypergraph,
    start: VertexId,
    ctx: EvaluationContext,
    max_depth: int,
) -> dict[VertexId, int]:
    """start plus the user attributes it ascends to, with distances."""
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier and d < max_depth - 1:
        nxt: list[VertexId] = []
        for v in frontier:
            for eid, w in policy.assignments_from(v):
                edge = policy.edge(eid)
                if not edge.active or not edge_satisfied(policy, edge, ctx):
                    continue
                if policy.vertex(w).kind is not VertexKind.USER_ATTR:
                    continue
                if w not in dist:
                    dist[w] = d + 1
                    nxt.append(w)
        frontier = nxt
        d += 1
    return dist


def _resources_below(
    policy: PolicyHypergraph,
    ra: VertexId,
    ctx: EvaluationContext,
    memo: dict[VertexId, dict[VertexId, int]],
) -> dict[VertexId, int]:
    """Resources reachable descending from ``ra``, with hop distances."""
    cached = memo.get(ra)
    if cached is not None:
        return cached
    found: dict[VertexId, int] = {}
    seen = {ra}
    frontier = [ra]
    d = 0
    while frontier:
        nxt: list[VertexId] = []
        for v in frontier:
            for eid, tail in policy.assignments_to(v):
                edge = policy.edge(eid)
                if not edge.active or not edge_satisfied(policy, edge, ctx):
                    continue
                kind = policy.vertex(tail).kind
                if kind is VertexKind.RESOURCE:
                    if tail not in found:
                        found[tail] = d + 1
                elif kind is VertexKind.RESOURCE_ATTR and tail not in seen:
                    seen.add(tail)
                    nxt.append(tail)
        frontier = nxt
        d += 1
    memo[ra] = found
    return found


def live_grants(
    policy: PolicyHypergraph,
    subject: VertexId,
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Iterator[tuple[VertexId, int, int]]:
    """Every grant ``subject`` holds under ``ctx``, as (target, budget, mask).

    Walks the subject's attribute closure once and yields, for each active,
    ctx-satisfied association with a non-empty label, each resource or
    resource-attribute member with the number of descent hops the depth
    limit still allows below it. ``subject`` may be a user or a user
    attribute.
    """
    closure = _user_side_closure(policy, subject, ctx, max_depth)
    for v, d in closure.items():
        budget = max_depth - d - 1
        if budget < 0:
            continue
        for eid in policy.associations_at(v):
            edge = policy.edge(eid)
            if not edge.active or not edge.perm_mask:
                continue
            if not edge_satisfied(policy, edge, ctx):
                continue
            for m in edge.members:
                if policy.vertex(m).kind in (VertexKind.RESOURCE, VertexKind.RESOURCE_ATTR):
                    yield m, budget, edge.perm_mask


def effective_permission_map(
    policy: PolicyHypergraph,
    subject: VertexId,
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
    _descend_memo: Optional[dict[VertexId, dict[VertexId, int]]] = None,
) -> dict[VertexId, int]:
    """Permission mask per reachable resource, in one sweep from ``subject``.

    For a user subject, ``op``'s bit is set for resource ``r`` exactly when
    ``check_privilege`` allows ``op`` on ``r`` under ``ctx``; the closure and
    descent work is shared across resources. ``subject`` may also be a user
    attribute. A ``_descend_memo`` shared between calls must only be shared
    between calls with equal contexts.
    """
    memo = _descend_memo if _descend_memo is not None else {}
    granted: dict[VertexId, int] = {}
    for m, budget, mask in live_grants(policy, subject, ctx, max_depth):
        if policy.vertex(m).kind is VertexKind.RESOURCE:
            granted[m] = granted.get(m, 0) | mask
        else:
            for rid, rd in _resources_below(policy, m, ctx, memo).items():
                if rd <= budget:
                    granted[rid] = granted.get(rid, 0) | mask
    return granted
