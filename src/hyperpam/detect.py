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

Attack window: time-window constraints give every just-in-time grant a
hard expiry; expired edges can be reported or revoked in one removal each,
independent of how many principals they served.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Optional

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
    _Counter,
    _resource_closure,
    _resources_below,
    edge_satisfied,
    effective_permission_map,  # noqa: F401 - perfbench/tracing.py wraps it under this module
    live_grants,
)
from .errors import GroundTruthMismatch
from .perm import PermissionSet


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    """

    by_subject: dict[VertexId, dict[VertexId, int]]


@dataclass
class AttackWindowReport:
    now: datetime
    horizon: timedelta
    expired: list[int] = field(default_factory=list)
    expiring: list[int] = field(default_factory=list)


def _sensitive_resources_below(
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


def detect_escalations(
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
                            hits = _sensitive_resources_below(
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
    """
    # v -> v plus every resource attribute it ascends to, with no depth limit
    lineages: dict[VertexId, tuple[VertexId, ...]] = {}
    below_memo: dict = {}
    findings: list[OverPrivilegeFinding] = []
    for subject in sorted(ground_truth.by_subject):
        if not policy.has_vertex(subject):
            raise GroundTruthMismatch(f"ground truth names unknown vertex {subject}")
        required = ground_truth.by_subject[subject]
        for rid in required:
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
        # v -> OR of the subject's entries on v and on everything v ascends to
        required_up: dict[VertexId, int] = {}

        def need(v: VertexId) -> int:
            mask = required_up.get(v)
            if mask is None:
                line = lineages.get(v)
                if line is None:
                    line = lineages[v] = tuple(
                        _resource_closure(policy, v, ctx, math.inf, _Counter())[0]
                    )
                mask = 0
                for a in line:
                    mask |= required.get(a, 0)
                required_up[v] = mask
            return mask

        excess: dict[VertexId, int] = {}
        for target, budget, mask in live_grants(policy, subject, ctx, max_depth):
            if not mask & ~need(target):
                continue
            if policy.vertex(target).kind is VertexKind.RESOURCE:
                below = {target: 0}
            else:
                below = _resources_below(policy, target, ctx, below_memo)
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
