"""The query kernel against its earlier, plainer form.

``check_privilege`` and ``_ascend`` below, with the ``edge_satisfied``,
``_check_query``, ``_Counter`` and ``_extend`` they use, are the engine's
walks as they were written before the walks read the graph's index tables
directly and returned their counts. They are kept verbatim as the reference: the engine's kernel must
give the same decision, witness and ``traversal_ops`` for every query at
every depth limit, and its ascents the same distances, steps and counts.
"""

from __future__ import annotations

import math

import pytest

from hyperpam import engine
from hyperpam.bench import build_workload
from hyperpam.core import (
    RESOURCE_SIDE_KINDS,
    ApprovalRequired,
    Hyperedge,
    PolicyHypergraph,
    SameAccount,
    TimeWindow,
    VertexId,
    VertexKind,
)
from hyperpam.engine import (
    DEFAULT_MAX_DEPTH,
    AccessDecision,
    AccessPath,
    EvaluationContext,
    PrivilegeQuery,
    _path_to,
    _Steps,
)
from hyperpam.errors import KindMismatch, UnknownPermission, UnknownVertex
from hyperpam.generator import EPOCH, config_for_scale, generate, make_fixture_usecase
from hyperpam.perm import PermissionSet
from hyperpam.rng import Rng

from .builders import all_triple_probes, random_context, random_policy
from .test_descent import _out_of_order_policy, _tie_policy
from .test_engine import build_iam_example

DEPTHS = range(1, 9)


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

def _ascend(
    policy: PolicyHypergraph,
    start: VertexId,
    ctx: EvaluationContext,
    max_depth: float,
    count: _Counter,
) -> tuple[dict[VertexId, int], _Steps]:
    """Distances of ``start`` and the attributes it ascends to over live,
    ctx-satisfied assignments, at most ``max_depth - 1`` hops, and each
    attribute's step ``(edge id, vertex one level closer to start)``.

    A user-side walk keeps the first step found in BFS order, so following
    steps back spells the lexicographically smallest shortest path read from
    ``start``. A resource-side walk keeps the smallest edge id, so following
    steps down spells the smallest shortest descent to ``start``.
    """
    lowest = policy.vertex(start).kind in RESOURCE_SIDE_KINDS
    kind = VertexKind.RESOURCE_ATTR if lowest else VertexKind.USER_ATTR
    dist = {start: 0}
    step: _Steps = {}
    queue = [start]
    for v in queue:  # appended to while read: breadth-first, level by level
        d = dist[v]
        if d >= max_depth - 1:
            break
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
            if policy.vertex(head).kind is not kind:
                continue
            hd = dist.get(head)
            if hd is None:
                dist[head] = d + 1
                step[head] = (eid, v)
                queue.append(head)
            elif lowest and hd == d + 1 and eid < step[head][0]:
                step[head] = (eid, v)
    return dist, step

def _extend(
    edges: tuple[int, ...],
    verts: tuple[VertexId, ...],
    down: _Steps,
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

    rdist, down = _ascend(policy, q.resource, ctx, max_depth, count)
    udist, up = _ascend(policy, q.user, ctx, max_depth, count)

    # (total length, user-side vertex, bridge edge, exit vertex)
    candidates: list[tuple[int, VertexId, int, VertexId]] = []
    for v, d in udist.items():
        if d == max_depth - 1:
            count.n += 1  # adjacency fetch the ascent skips at its last level
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
                    candidates.append((total, v, eid, m))

    if not candidates:
        return AccessDecision(False, None, count.n)

    # edge sequences of distinct candidates differ, so min() ranks by edges
    shortest = min(c[0] for c in candidates)
    witnesses = []
    for total, v, bridge, exit_v in candidates:
        if total == shortest:
            pedges, pverts = _path_to(up, v)
            witnesses.append(_extend(pedges + (bridge,), pverts + (exit_v,), down, count))
    edges, verts = min(witnesses)
    return AccessDecision(True, AccessPath(verts, edges), count.n)


def _answer(decide, policy, q, max_depth):
    d = decide(policy, q, max_depth)
    witness = (d.witness.vertices, d.witness.edges) if d.witness else None
    return d.allowed, witness, d.traversal_ops


def _assert_kernel_matches(policy, queries, depths=DEPTHS):
    """Same answers from both kernels to every query at every depth limit,
    and the same ascent from every vertex; returns the allowed count."""
    allowed = 0
    for max_depth in depths:
        for q in queries:
            want = _answer(check_privilege, policy, q, max_depth)
            assert _answer(engine.check_privilege, policy, q, max_depth) == want, (q, max_depth)
            allowed += want[0]
    contexts = {q.ctx for q in queries}
    for ctx in contexts:
        for v in policy.vertices():
            if v.kind is VertexKind.POLICY_CLASS:
                continue
            for max_depth in (*depths, math.inf):
                ref_count = _Counter()
                want = _ascend(policy, v.id, ctx, max_depth, ref_count)
                dist, step, ops = engine._ascend(policy, v.id, ctx, max_depth)
                assert (dist, step) == want
                assert ops == ref_count.n, (v, max_depth)
    return allowed


def _probes(policy, ctx):
    """Every (user, op, resource) probe under the user's own account and
    under ``ctx`` as it is."""
    own = all_triple_probes(policy, ctx)
    return own + [PrivilegeQuery(q.user, q.op, q.resource, ctx) for q in own]


@pytest.mark.parametrize("ua_cycles", [True, False], ids=["ua-cycles", "ua-dag"])
@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_reference_on_random_policies(seed, ua_cycles):
    rng = Rng(seed * 7717 + 29)
    policy = random_policy(rng, allow_ua_cycles=ua_cycles)
    _assert_kernel_matches(policy, _probes(policy, random_context(rng)))


@pytest.mark.parametrize("build", [_tie_policy, _out_of_order_policy, build_iam_example])
def test_kernel_matches_reference_on_hand_built_policies(build):
    policy, _ = build()
    ctx = EvaluationContext(EPOCH, "a")
    assert _assert_kernel_matches(policy, _probes(policy, ctx)) > 0


def test_kernel_matches_reference_at_the_depth_limit():
    # a path exactly max_depth long is allowed and one edge longer is not;
    # dropping the length filter at the bridge passes streams of generated
    # queries but not this
    policy, ids = build_iam_example()
    q = PrivilegeQuery(ids["alice"], "Read", ids["bucket"], EvaluationContext(EPOCH, "acct-dev"))
    answers = [_answer(engine.check_privilege, policy, q, d) for d in DEPTHS]
    assert [a[0] for a in answers] == [False, False] + [True] * 6
    _assert_kernel_matches(policy, [q])


@pytest.mark.parametrize("seed", range(10))
def test_kernel_matches_reference_under_raw_inserts_and_removals(seed):
    rng = Rng(seed * 7919 + 5)
    policy = random_policy(rng)
    ctx = random_context(rng)
    edges = list(policy.edges())
    rng.shuffle(edges)
    for e in edges[: len(edges) // 3]:
        policy.remove_hyperedge(e.id)
    _assert_kernel_matches(policy, _probes(policy, ctx))
    for e in edges[: len(edges) // 3][::-1]:  # back in, reusing the freed ids
        perms = PermissionSet(policy.universe, e.perm_mask)
        policy.add_raw_hyperedge(e.kind, e.members, perms, e.constraints, e.active, _id=e.id)
    _assert_kernel_matches(policy, _probes(policy, ctx))


@pytest.mark.parametrize("case", ["standard", "fixture"])
def test_kernel_matches_reference_on_generated_streams(case):
    if case == "fixture":
        policy, gt = make_fixture_usecase()
    else:
        policy, gt = generate(config_for_scale(400, seed=1234))
    queries = build_workload(policy, gt, "per_user", None, 1234)
    assert _assert_kernel_matches(policy, queries) > 0


def test_kernel_rejects_what_the_reference_rejects():
    policy, ids = build_iam_example()
    ctx = EvaluationContext(EPOCH, "acct-dev")
    bad = [
        (PrivilegeQuery(9999, "Read", ids["bucket"], ctx), UnknownVertex),
        (PrivilegeQuery(ids["alice"], "Read", 9999, ctx), UnknownVertex),
        (PrivilegeQuery(ids["alice"], "Fly", ids["bucket"], ctx), UnknownPermission),
        (PrivilegeQuery(ids["dev"], "Read", ids["bucket"], ctx), KindMismatch),
        (PrivilegeQuery(ids["alice"], "Read", ids["s3"], ctx), KindMismatch),
    ]
    for q, error in bad:
        for decide in (check_privilege, engine.check_privilege):
            with pytest.raises(error):
                decide(policy, q)
    for decide in (check_privilege, engine.check_privilege):
        with pytest.raises(ValueError):
            decide(policy, bad[0][0], 0)
