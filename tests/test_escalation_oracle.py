"""Escalation detection against two references.

``detect_escalations_per_user`` and ``sensitive_resources_below`` are the
earlier implementation, kept verbatim: a breadth-first search over (vertex,
chained) states from every user, with a memo of shortest lexicographically
smallest descents per resource attribute. On acyclic role hierarchies the
scan must render byte-equal findings for every tag present in the policy.
On a cyclic hierarchy that search can miss a chain (see
``test_cycle_back_into_a_held_role_is_reported``), so there the reference is
``escalations_by_enumeration``, built on the exhaustive path enumerator.
"""

from __future__ import annotations

import pytest

from hyperpam.core import PolicyHypergraph, VertexId, VertexKind
from hyperpam.detect import EscalationFinding, detect_escalations, findings_to_jsonl
from hyperpam.engine import DEFAULT_MAX_DEPTH, AccessPath, EvaluationContext, edge_satisfied
from hyperpam.generator import EPOCH, config_for_scale, generate
from hyperpam.rng import Rng

from .builders import random_context, random_policy
from .oracle import enumerate_paths

DEPTHS = (1, 2, 3, 4, 8)


def sensitive_resources_below(
    policy: PolicyHypergraph,
    ra: VertexId,
    ctx: EvaluationContext,
    tag_key: str,
    tag_value: str,
    memo: dict[VertexId, dict[VertexId, tuple[int, tuple[int, ...], tuple[VertexId, ...]]]],
) -> dict[VertexId, tuple[int, tuple[int, ...], tuple[VertexId, ...]]]:
    """Sensitive resources under ``ra`` with shortest lex-min descents."""
    cached = memo.get(ra)
    if cached is not None:
        return cached
    found: dict[VertexId, tuple[int, tuple[int, ...], tuple[VertexId, ...]]] = {}
    seen = {ra}
    # (vertex, depth, edge seq, vertex seq); FIFO with id-ordered expansion keeps
    # first arrival = shortest + lexicographically smallest
    queue: list[tuple[VertexId, int, tuple[int, ...], tuple[VertexId, ...]]] = [
        (ra, 0, (), ())
    ]
    head = 0
    while head < len(queue):
        v, d, eseq, vseq = queue[head]
        head += 1
        for eid, tail in policy.assignments_to(v):
            edge = policy.edge(eid)
            if not edge.active or not edge_satisfied(policy, edge, ctx):
                continue
            vert = policy.vertex(tail)
            if vert.kind is VertexKind.RESOURCE:
                if tail not in found and vert.tags.get(tag_key) == tag_value:
                    found[tail] = (d + 1, eseq + (eid,), vseq + (tail,))
            elif vert.kind is VertexKind.RESOURCE_ATTR and tail not in seen:
                seen.add(tail)
                queue.append((tail, d + 1, eseq + (eid,), vseq + (tail,)))
    memo[ra] = found
    return found


def detect_escalations_per_user(
    policy: PolicyHypergraph,
    sensitive_tag: tuple[str, str],
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[EscalationFinding]:
    """Role-chaining paths from any user to any sensitive-tagged resource.

    Findings are ordered by (user id, path length, edge ids, target).
    Exhaustive on acyclic attribute hierarchies; a cyclic hierarchy (which
    the rest of the toolchain rejects) is scanned conservatively.
    """
    tag_key, tag_value = sensitive_tag
    if not tag_key or not tag_value:
        raise ValueError("sensitive tag key and value must be non-empty")

    descend_memo: dict = {}
    findings: list[EscalationFinding] = []

    users = sorted(v.id for v in policy.vertices_of_kind(VertexKind.USER))
    for uid in users:
        # BFS over (vertex, chained) where chained means the prefix already
        # crossed >= 2 user attributes; a vertex may be reached once per flag
        # (a direct role plus a chained route to the same role are distinct).
        best: dict[VertexId, tuple[int, tuple[int, ...], tuple[VertexId, ...]]] = {}
        seen: set[tuple[VertexId, bool]] = {(uid, False)}
        queue: list[tuple[VertexId, int, tuple[int, ...], tuple[VertexId, ...]]] = [
            (uid, 0, (), (uid,))
        ]
        head = 0
        while head < len(queue):
            v, d, pedges, pverts = queue[head]
            head += 1
            if d >= 2 and d + 1 <= max_depth:
                for eid in policy.associations_at(v):
                    edge = policy.edge(eid)
                    if not edge.active or not edge.perm_mask:
                        continue
                    if not edge_satisfied(policy, edge, ctx):
                        continue
                    for m in sorted(set(edge.members)):
                        mk = policy.vertex(m).kind
                        if mk is VertexKind.RESOURCE:
                            if policy.vertex(m).tags.get(tag_key) != tag_value:
                                continue
                            hits = {m: (0, (), ())}
                        elif mk is VertexKind.RESOURCE_ATTR:
                            hits = sensitive_resources_below(
                                policy, m, ctx, tag_key, tag_value, descend_memo
                            )
                        else:
                            continue
                        for rid, (rd, seq_e, seq_v) in hits.items():
                            total = d + 1 + rd
                            if total > max_depth:
                                continue
                            if rd:
                                verts = pverts + (m,) + seq_v
                            else:
                                verts = pverts + (rid,)
                            cand = (total, pedges + (eid,) + seq_e, verts)
                            cur = best.get(rid)
                            if cur is None or cand[:2] < cur[:2]:
                                best[rid] = cand
            if d + 1 < max_depth:
                for eid, w in policy.assignments_from(v):
                    edge = policy.edge(eid)
                    if not edge.active or not edge_satisfied(policy, edge, ctx):
                        continue
                    if policy.vertex(w).kind is not VertexKind.USER_ATTR:
                        continue
                    key = (w, d + 1 >= 2)
                    if key not in seen and w not in pverts:
                        seen.add(key)
                        queue.append((w, d + 1, pedges + (eid,), pverts + (w,)))

        for rid in sorted(best):
            total, eseq, vseq = best[rid]
            path = AccessPath(vseq, eseq)
            chained = tuple(
                v for v in vseq if policy.vertex(v).kind is VertexKind.USER_ATTR
            )
            findings.append(EscalationFinding(uid, path, chained, rid))

    findings.sort(key=lambda f: (f.user, len(f.path.edges), f.path.edges, f.target))
    return findings


def escalations_by_enumeration(
    policy: PolicyHypergraph,
    sensitive_tag: tuple[str, str],
    ctx: EvaluationContext,
    max_depth: int,
) -> list[EscalationFinding]:
    """Per (user, sensitive resource), the shortest, lexicographically smallest
    valid path crossing two or more user attributes, over every operation."""
    key, value = sensitive_tag
    ops = policy.universe.names
    resources = sorted(
        v.id for v in policy.vertices_of_kind(VertexKind.RESOURCE) if v.tags.get(key) == value
    )
    findings = []
    for user in sorted(v.id for v in policy.vertices_of_kind(VertexKind.USER)):
        for rid in resources:
            chains = [
                (len(edges), edges, verts)
                for op in ops
                for verts, edges in enumerate_paths(policy, user, rid, op, ctx, max_depth)
                if sum(policy.vertex(v).kind is VertexKind.USER_ATTR for v in verts) >= 2
            ]
            if chains:
                _, edges, verts = min(chains)
                chained = tuple(v for v in verts if policy.vertex(v).kind is VertexKind.USER_ATTR)
                findings.append(EscalationFinding(user, AccessPath(verts, edges), chained, rid))
    findings.sort(key=lambda f: (f.user, len(f.path.edges), f.path.edges, f.target))
    return findings


def _tags(policy: PolicyHypergraph) -> list[tuple[str, str]]:
    return sorted(
        {
            item
            for v in policy.vertices_of_kind(VertexKind.RESOURCE)
            for item in v.tags.items()
        }
    )


def _assert_same(policy, ctx, reference, depths=DEPTHS) -> int:
    """Byte-equal findings for every tag and depth; returns the finding count."""
    total = 0
    for tag in _tags(policy):
        for depth in depths:
            fast = detect_escalations(policy, tag, ctx, depth)
            out = findings_to_jsonl(policy, escalations=fast)
            ref = reference(policy, tag, ctx, depth)
            assert out == findings_to_jsonl(policy, escalations=ref), (tag, depth)
            total += len(fast)
    return total


def test_random_acyclic_policies_match_per_user_pass():
    found = 0
    for seed in range(150):
        rng = Rng(31_337 + seed)
        policy = random_policy(rng, allow_ua_cycles=False)
        found += _assert_same(policy, random_context(rng), detect_escalations_per_user)
    assert found, "cases must produce findings to compare"


@pytest.mark.parametrize("cycles", [False, True])
def test_random_policies_match_enumeration(cycles):
    found = 0
    for seed in range(150):
        rng = Rng(31_337 + seed)
        policy = random_policy(rng, allow_ua_cycles=cycles)
        found += _assert_same(policy, random_context(rng), escalations_by_enumeration)
    assert found, "cases must produce findings to compare"


def test_cycle_back_into_a_held_role_is_reported():
    """u holds w and b; w -> x, b -> x and x -> w. The only chain to r runs
    u -> b -> x -> w and on through w's grant, revisiting no vertex. The per-user pass reaches x
    first through w, cannot step back into w from there, and never tries x
    through b again, so it misses the chain."""
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    u = p.add_vertex(VertexKind.USER, "u", "a")
    w, b, x = (p.add_vertex(VertexKind.USER_ATTR, name, "a") for name in ("w", "b", "x"))
    r = p.add_vertex(VertexKind.RESOURCE, "r", "a", {"env": "production"})
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra", "a")
    r_ra = p.add_assignment(r, ra)
    p.add_assignment(u, w)
    u_b = p.add_assignment(u, b)
    p.add_assignment(w, x)
    b_x = p.add_assignment(b, x)
    x_w = p.add_assignment(x, w)
    grant = p.add_association([w], [ra], pc, ["Read"])
    assert not p.validate()
    ctx = EvaluationContext(EPOCH, "a")
    tag = ("env", "production")
    found = detect_escalations(p, tag, ctx)
    assert [(f.path.vertices, f.path.edges) for f in found] == [
        ((u, b, x, w, ra, r), (u_b, b_x, x_w, grant, r_ra))
    ]
    assert _assert_same(p, ctx, escalations_by_enumeration) == 1  # depth 8 only
    assert detect_escalations_per_user(p, tag, ctx) == []


@pytest.mark.parametrize(
    "profile,n,seed",
    [
        ("standard", 200, 1),
        ("standard", 300, 1234),
        ("sqrt-grouping", 150, 1),
        ("sqrt-grouping", 300, 7),
    ],
)
def test_generated_policies_match_per_user_pass(profile, n, seed):
    policy, gt = generate(config_for_scale(n, seed=seed, profile=profile))
    found = _assert_same(policy, gt.context_for(0), detect_escalations_per_user)
    # sqrt-grouping builds no role hierarchy, so it can hold no chain
    if profile == "standard":
        assert found, "case must produce findings to compare"
