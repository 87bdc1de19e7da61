"""Detection passes: escalation chains, over-privilege, attack windows.

Escalation: a user that reaches a sensitive-tagged resource over a path
crossing two or more distinct user attributes is chaining roles; one
finding is reported per (user, target) with the shortest such path.

Over-privilege: each grant a subject holds is compared against the masks
ground truth requires, and any strict excess is a finding. Required masks
may sit on resource attributes. A grant whose mask is already required on
its target attribute (or on an attribute above it) leaves no excess on any
resource below, so it is skipped without expansion. Only the remaining
grants are expanded to resources, and the excess is reported per resource.
A subject may inherit a role's requirement; then the role's grants are
walked and checked once per pass, and each holder re-checks only the
grants that exceed the role's own requirement.

Cost: the paper states O(n log n) detection. Every pass must read every
edge, and edges can grow faster than n (as n^1.5 on the sqrt-grouping
profile), so the honest form of that claim is "linear in policy size"
(vertices plus edges) when findings are few. The escalation pass ascends
from each directly held role once per pass; the over-privilege pass is
linear when users inherit their roles' requirements, as the generator's
ledger has them do.

Attack window: time-window constraints give every just-in-time grant a
hard expiry; expired edges can be reported or revoked in one removal each,
independent of how many principals they served.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Callable, Iterator, Optional

from .core import (
    HyperedgeKind,
    PolicyHypergraph,
    TimeWindow,
    VertexId,
    VertexKind,
    as_utc,
)
from .engine import (
    DEFAULT_MAX_DEPTH,
    AccessPath,
    EvaluationContext,
    _ascend,
    _Counter,
    _descend,
    _grants_at,
    _path_to,
    edge_satisfied,
    effective_permission_map,  # noqa: F401 - perfbench/tracing.py wraps it under this module
    live_grants,
)
from .errors import GroundTruthMismatch
from .perm import PermissionSet


@dataclass(frozen=True, slots=True)
class EscalationFinding:
    user: VertexId
    path: AccessPath
    chained_attributes: tuple[VertexId, ...]
    target: VertexId

    def remediation(self, policy: PolicyHypergraph) -> str:
        """Suggestion string; the tool never mutates policies on its own."""
        first_chain_edge = self.path.edges[1]
        e = policy.edge(first_chain_edge)
        a = policy.vertex(e.tail).name
        b = policy.vertex(e.head).name
        return (
            f"remove role-hierarchy assignment e{first_chain_edge} "
            f"({a} -> {b}) or add an approval constraint to the granting association"
        )


@dataclass(frozen=True, slots=True)
class OverPrivilegeFinding:
    """Per resource, the operations ``subject`` holds beyond what it requires."""

    subject: VertexId
    excess: dict[VertexId, PermissionSet]


@dataclass(frozen=True)
class RequiredPermissions:
    """Required permission masks per subject, keyed by resource or resource attribute.

    Subjects may be users or user attributes; masks use the owning policy's
    permission universe. An entry on a resource attribute requires its mask
    on every resource below that attribute, where "below" follows active,
    context-satisfied assignment edges downward with no depth limit. So the
    requirement on resource r is the OR of the entry on r and the entries on
    every attribute r ascends to.

    ``inherits`` maps a subject to subjects whose requirement it also has,
    one level deep: s requires, on every vertex, the OR of its own entries
    and the requirement of each subject in ``inherits[s]``. Keys and listed
    subjects must be subjects of ``by_subject``, and a listed subject may
    not inherit in turn. A user that inherits its roles lets the
    over-privilege pass check each role's grants once per pass instead of
    once per holder.
    """

    by_subject: dict[VertexId, dict[VertexId, int]]
    inherits: dict[VertexId, tuple[VertexId, ...]] = field(default_factory=dict)


@dataclass
class AttackWindowReport:
    now: datetime
    horizon: timedelta
    expired: list[int] = field(default_factory=list)
    expiring: list[int] = field(default_factory=list)


def detect_escalations(
    policy: PolicyHypergraph,
    sensitive_tag: tuple[str, str],
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[EscalationFinding]:
    """Role-chaining paths from any user to any sensitive-tagged resource.

    Each finding is the shortest valid path from the user to the target
    that crosses two or more user attributes, ties broken by the smallest
    edge-id sequence. This holds on cyclic role hierarchies too, which
    ``PolicyHypergraph.validate`` accepts. Findings are ordered by (user id,
    path length, edge ids, target). Each role a user holds directly is
    ascended once per pass, and what it reaches is shared by its holders.
    """
    tag_key, tag_value = sensitive_tag
    if not tag_key or not tag_value:
        raise ValueError("sensitive tag key and value must be non-empty")

    descend_memo: dict = {}
    # vertex -> {sensitive resource: (edges, vertices) from the vertex down}
    sensitive: dict[VertexId, dict] = {}

    def tagged(v: VertexId) -> bool:
        return policy.vertex(v).tags.get(tag_key) == tag_value

    def sensitive_below(m: VertexId) -> dict:
        if m not in sensitive:
            kind = policy.vertex(m).kind
            if kind is VertexKind.RESOURCE_ATTR:
                below, step = _descend(policy, m, ctx, descend_memo)
                sensitive[m] = {rid: _path_to(step, rid) for rid in below if tagged(rid)}
            else:
                sensitive[m] = {m: ((), (m,))} if kind is VertexKind.RESOURCE and tagged(m) else {}
        return sensitive[m]

    # role -> {sensitive resource: (length from a holder, edges, vertices)}
    # over paths that start at the role and cross one more user attribute
    role_hits: dict[VertexId, dict] = {}

    def chained_from(role: VertexId):
        best = role_hits.get(role)
        if best is not None:
            return best
        best = role_hits[role] = {}
        dist, up = _ascend(policy, role, ctx, max_depth - 1, _Counter())
        for w, k in dist.items():
            if not k:
                continue
            pedges, pverts = _path_to(up, w)
            for eid in policy.associations_at(w):
                edge = policy.edge(eid)
                if not edge.active or not edge.perm_mask:
                    continue
                if not edge_satisfied(policy, edge, ctx):
                    continue
                for m in edge.members:
                    for rid, (dedges, dverts) in sensitive_below(m).items():
                        # user -> role, k hops up, the bridge, the descent
                        total = 2 + k + len(dedges)
                        if total > max_depth:
                            continue
                        cand = (total, pedges + (eid,) + dedges, pverts + dverts)
                        cur = best.get(rid)
                        if cur is None or cand[:2] < cur[:2]:
                            best[rid] = cand
        return best

    findings: list[EscalationFinding] = []
    for uid in sorted(v.id for v in policy.vertices_of_kind(VertexKind.USER)):
        best: dict[VertexId, tuple[int, tuple[int, ...], tuple[VertexId, ...]]] = {}
        for eid, role in policy.assignments_from(uid):
            edge = policy.edge(eid)
            if not edge.active or not edge_satisfied(policy, edge, ctx):
                continue
            if policy.vertex(role).kind is not VertexKind.USER_ATTR:
                continue
            for rid, (total, edges, verts) in chained_from(role).items():
                cand = (total, (eid,) + edges)
                cur = best.get(rid)
                if cur is None or cand < cur[:2]:
                    best[rid] = cand + ((uid,) + verts,)

        for rid in sorted(best):
            total, eseq, vseq = best[rid]
            path = AccessPath(vseq, eseq)
            chained = tuple(
                v for v in vseq if policy.vertex(v).kind is VertexKind.USER_ATTR
            )
            findings.append(EscalationFinding(uid, path, chained, rid))

    findings.sort(key=lambda f: (f.user, len(f.path.edges), f.path.edges, f.target))
    return findings


def detect_over_privileged(
    policy: PolicyHypergraph,
    ground_truth: RequiredPermissions,
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[OverPrivilegeFinding]:
    """Subjects whose effective permissions strictly exceed the required facts.

    Every resource below attribute a requires at least the entries on a and
    on a's ancestors, and a depth budget only removes resources, so a grant
    on a whose mask those entries cover is skipped. Other grants are
    expanded to the resources below them.

    A subject s that inherits h and holds h through a live direct
    assignment gets h's grants from one walk of h per pass, one hop shorter,
    filtered to the grants that exceed h's own requirement: s requires at
    least what h requires on every vertex, so a grant h's requirement covers
    is covered for s too. Every other grant (s's own associations, and the
    walks of heads s holds but does not inherit) is checked against s's
    requirement directly. When every user inherits the roles it holds, a
    pass walks each role at most twice (as a subject and as a head), and
    each user costs its assignments plus the role grants it re-checks, so
    the pass is linear in policy size when findings are few.
    """
    by_subject, inherits = ground_truth.by_subject, ground_truth.inherits
    for subject in sorted(by_subject):
        if not policy.has_vertex(subject):
            raise GroundTruthMismatch(f"ground truth names unknown vertex {subject}")
        for rid in by_subject[subject]:
            if not policy.has_vertex(rid):
                raise GroundTruthMismatch(f"ground truth names unknown vertex {rid}")
            kind = policy.vertex(rid).kind
            if kind not in (VertexKind.RESOURCE, VertexKind.RESOURCE_ATTR):
                raise GroundTruthMismatch(
                    f"required key {rid} is a {kind.value}, "
                    "wants resource or resource attribute"
                )
        kind = policy.vertex(subject).kind
        if kind not in (VertexKind.USER, VertexKind.USER_ATTR):
            raise GroundTruthMismatch(
                f"subject {subject} is a {kind.value}, wants user or user attribute"
            )
    # every by_subject key is a known user or user attribute by now
    for subject in sorted(inherits):
        for v in (subject, *inherits[subject]):
            if v not in by_subject:
                raise GroundTruthMismatch(f"inherits names {v}, which is not a subject")
        for h in inherits[subject]:
            if inherits.get(h):
                raise GroundTruthMismatch(f"{subject} inherits {h}, which inherits in turn")

    # v -> v plus every resource attribute it ascends to, with no depth limit
    lineages: dict[VertexId, tuple[VertexId, ...]] = {}

    def need_of(
        subject: VertexId, parents: list[Callable[[VertexId], int]]
    ) -> Callable[[VertexId], int]:
        """v -> OR of the subject's entries on v and on everything v ascends
        to, and of each parent's need on v."""
        required = by_subject[subject]
        required_up: dict[VertexId, int] = {}

        def need(v: VertexId) -> int:
            mask = required_up.get(v)
            if mask is None:
                mask = 0
                if required:
                    line = lineages.get(v)
                    if line is None:
                        line = lineages[v] = tuple(
                            _ascend(policy, v, ctx, math.inf, _Counter())[0]
                        )
                    for a in line:
                        mask |= required.get(a, 0)
                for parent in parents:
                    mask |= parent(v)
                required_up[v] = mask
            return mask

        return need

    # kept for the whole pass, since every holder of a head reads its need
    heads = {h for hs in inherits.values() for h in hs}
    head_needs = {h: need_of(h, []) for h in heads}

    # inherited head -> its grants one hop up that exceed its own requirement
    head_grants: dict[VertexId, list[tuple[VertexId, int, int]]] = {}

    def grants_of(subject: VertexId) -> Iterator[tuple[VertexId, int, int]]:
        if not inherits.get(subject):
            yield from live_grants(policy, subject, ctx, max_depth)
            return
        yield from _grants_at(policy, subject, ctx, max_depth - 1)
        mine = set(inherits[subject])
        held = set()
        for eid, h in policy.assignments_from(subject):
            edge = policy.edge(eid)
            if edge.active and edge_satisfied(policy, edge, ctx):
                held.add(h)
        for h in held:
            if h not in mine:
                yield from live_grants(policy, h, ctx, max_depth - 1)
                continue
            if h not in head_grants:
                need_h = head_needs[h]
                head_grants[h] = [
                    g for g in live_grants(policy, h, ctx, max_depth - 1)
                    if g[2] & ~need_h(g[0])
                ]
            yield from head_grants[h]

    below_memo: dict = {}
    findings: list[OverPrivilegeFinding] = []
    for subject in sorted(by_subject):
        need = head_needs.get(subject)
        if need is None:
            need = need_of(subject, [head_needs[h] for h in inherits.get(subject, ())])
        excess: dict[VertexId, int] = {}
        for target, budget, mask in grants_of(subject):
            if not mask & ~need(target):
                continue
            if policy.vertex(target).kind is VertexKind.RESOURCE:
                below = {target: 0}
            else:
                below = _descend(policy, target, ctx, below_memo)[0]
            for rid, rd in below.items():
                if rd <= budget:
                    extra = mask & ~need(rid)
                    if extra:
                        excess[rid] = excess.get(rid, 0) | extra
        if excess:
            uni = policy.universe
            findings.append(
                OverPrivilegeFinding(
                    subject, {r: PermissionSet(uni, excess[r]) for r in sorted(excess)}
                )
            )
    return findings


def _edge_expiry(edge) -> Optional[datetime]:
    ends = [c.end for c in edge.constraints if isinstance(c, TimeWindow)]
    return min(ends) if ends else None


def attack_window_report(
    policy: PolicyHypergraph,
    now: datetime,
    expiring_within: timedelta = timedelta(hours=24),
) -> AttackWindowReport:
    """Active time-window edges that have expired or will within the horizon."""
    now = as_utc(now)
    report = AttackWindowReport(now=now, horizon=expiring_within)
    for edge in policy.edges():
        if not edge.active:
            continue
        end = _edge_expiry(edge)
        if end is None:
            continue
        if end < now:
            report.expired.append(edge.id)
        elif end <= now + expiring_within:
            report.expiring.append(edge.id)
    report.expired.sort()
    report.expiring.sort()
    return report


def revoke_expired(policy: PolicyHypergraph, now: datetime) -> int:
    """Remove every active edge whose time window has lapsed; returns the count."""
    expired = attack_window_report(policy, now, timedelta(0)).expired
    for eid in expired:
        policy.remove_hyperedge(eid)
    return len(expired)


def findings_to_jsonl(
    policy: PolicyHypergraph,
    escalations: list[EscalationFinding] = (),
    over_privileged: list[OverPrivilegeFinding] = (),
) -> str:
    """One finding per line, stable field order, diff-friendly."""
    lines = []
    for f in escalations:
        lines.append(
            json.dumps(
                {
                    "kind": "escalation",
                    "user": f.user,
                    "user_name": policy.vertex(f.user).name,
                    "path_vertices": list(f.path.vertices),
                    "path_edges": list(f.path.edges),
                    "chained_attributes": [
                        policy.vertex(v).name for v in f.chained_attributes
                    ],
                    "target": f.target,
                    "target_name": policy.vertex(f.target).name,
                    "rendering": f.path.render(policy),
                    "remediation": f.remediation(policy),
                },
                separators=(",", ":"),
            )
        )
    for f in over_privileged:
        lines.append(
            json.dumps(
                {
                    "kind": "over_privilege",
                    "subject": f.subject,
                    "subject_name": policy.vertex(f.subject).name,
                    "excess": {
                        policy.vertex(r).name: list(p.names())
                        for r, p in sorted(f.excess.items())
                    },
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
