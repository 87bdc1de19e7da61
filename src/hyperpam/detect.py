"""Detection passes: escalation chains, over-privilege, attack windows.

Escalation: a user that reaches a sensitive-tagged resource over a path
crossing two or more distinct user attributes is chaining roles; one
finding is reported per (user, target) with the shortest such path.

Over-privilege: a subject's excess on a resource is what its live grants
give there beyond what ground truth requires there, and any non-empty
excess is a finding. Required masks may sit on resource attributes, and a
grant whose mask is already required on its target leaves no excess below
it, so it is not expanded. A subject may inherit a role's requirement.
Then the role's excess over its own requirement is computed once per pass,
per resource, and each holder masks it with its own requirement.

Cost: the paper states O(n log n) detection. Every pass must read every
edge, and edges can grow faster than n (as n^1.5 on the sqrt-grouping
profile), so the honest form of that claim is "linear in policy size"
(vertices plus edges) when findings are few. The escalation pass ascends
from each user attribute a user is assigned to once per pass. The
over-privilege pass walks each inherited role once per pass, and a holder
costs its assignments plus one requirement lookup per resource in its
roles' excess, so it is linear when users inherit their roles'
requirements, as the generator's ledger has them do.

Attack window: time-window constraints give every just-in-time grant a
hard expiry; expired edges can be reported or revoked in one removal each,
independent of how many principals they served.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Iterable, Optional

from .core import RESOURCE, RESOURCE_ATTR, USER_ATTR
from .core import (
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
    _descend,
    _grants_at,
    _path_to,
    edge_satisfied,
    effective_permission_map,  # noqa: F401 - perfbench/tracing.py wraps it under this module
    live_grants,
)
from .errors import GroundTruthMismatch, UnknownVertex
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
    and the entries of each subject in ``inherits[s]``. Keys and listed
    subjects must be subjects of ``by_subject``, and a listed subject may
    not inherit in turn. The over-privilege pass computes a listed
    subject's excess once per pass and shares it with every holder.
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
    path length, edge ids, target). Each user attribute a user is assigned
    to is ascended once per pass, and the paths it starts are shared by all
    its holders.
    """
    tag_key, tag_value = sensitive_tag
    if not tag_key or not tag_value:
        raise ValueError("sensitive tag key and value must be non-empty")

    edges, vertices, assoc = policy._edges, policy._vertices, policy._assoc_incidence
    descend_memo: dict = {}
    # vertex -> {sensitive resource: (edges, vertices) from the vertex down}
    sensitive: dict[VertexId, dict] = {}

    def tagged(v: VertexId) -> bool:
        return vertices[v].tags.get(tag_key) == tag_value

    def sensitive_below(m: VertexId) -> dict:
        if m not in sensitive:
            kind = vertices[m].kind
            if kind is RESOURCE_ATTR:
                below, step = _descend(policy, m, ctx, descend_memo)
                sensitive[m] = {rid: _path_to(step, rid) for rid in below if tagged(rid)}
            else:
                sensitive[m] = {m: ((), (m,))} if kind is RESOURCE and tagged(m) else {}
        return sensitive[m]

    def chained_from(role: VertexId) -> dict:
        """{sensitive resource: (length from a holder, edges, vertices, chained
        user attributes)} over the paths that start at ``role``, a user
        attribute, and cross one more user attribute."""
        best: dict = {}
        if vertices[role].kind is not USER_ATTR:
            return best
        dist, up, _ = _ascend(policy, role, ctx, max_depth - 1)
        for w, k in dist.items():
            if not k:
                continue
            pedges, pverts = _path_to(up, w)
            for eid in assoc[w]:
                edge = edges[eid]
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
        for rid, (total, path_edges, verts) in best.items():
            chained = tuple(v for v in verts if vertices[v].kind is USER_ATTR)
            best[rid] = (total, path_edges, verts, chained)
        return best

    # every role a user is assigned to -> chained_from(role), once per pass
    role_hits: dict[VertexId, dict] = {}
    findings: list[EscalationFinding] = []
    for uid in sorted(v.id for v in policy.vertices_of_kind(VertexKind.USER)):
        # target -> (the role's hit, the user's assignment edge to the role)
        best: dict[VertexId, tuple] = {}
        for eid, role in policy._assign_out[uid].items():
            hits = role_hits.get(role)
            if hits is None:
                hits = role_hits[role] = chained_from(role)
            if not hits:
                continue
            edge = edges[eid]
            if not edge.active or not edge_satisfied(policy, edge, ctx):
                continue
            for rid, hit in hits.items():
                cur = best.get(rid)
                # (length, edge ids) order, where the user's edge comes first
                if cur is None or (hit[0], eid, hit[1]) < (cur[0][0], cur[1], cur[0][1]):
                    best[rid] = (hit, eid)
        if not best:
            continue
        # users come in id order, so sorting each user's findings orders them all
        for _, eid, _, rid, hit in sorted(
            (hit[0], eid, hit[1], rid, hit) for rid, (hit, eid) in best.items()
        ):
            path = AccessPath((uid,) + hit[2], (eid,) + hit[1])
            findings.append(EscalationFinding(uid, path, hit[3], rid))
    return findings


def detect_over_privileged(
    policy: PolicyHypergraph,
    ground_truth: RequiredPermissions,
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[OverPrivilegeFinding]:
    """Subjects whose effective permissions strictly exceed the required facts.

    A grant reaches the resources below its target within its depth budget.
    The requirement on a resource includes the requirement on every
    attribute it ascends to, so a grant whose mask the requirement on its
    target covers is not expanded.

    Each subject h that another subject inherits is walked once per pass.
    The walk checks h itself and, with every budget one hop shorter, gives
    h's excess over its own requirement per resource. A subject s that
    inherits h and holds it through a live direct assignment masks that
    excess with its own requirement on each resource. This is exact: s
    requires at least what h requires, and a resource below a grant's
    target requires at least what the target does. Every other grant of s
    (its own associations, and the walks of heads it holds but does not
    inherit) is checked against s's requirement directly. Findings with the
    same excess mask share one ``PermissionSet``.
    """
    by_subject, inherits = ground_truth.by_subject, ground_truth.inherits
    vertex = policy.vertex
    subjects = sorted(by_subject)
    for subject in subjects:
        try:
            subject_kind = vertex(subject).kind
            for rid in by_subject[subject]:
                kind = vertex(rid).kind
                if kind not in (VertexKind.RESOURCE, VertexKind.RESOURCE_ATTR):
                    raise GroundTruthMismatch(
                        f"required key {rid} is a {kind.value}, "
                        "wants resource or resource attribute"
                    )
        except UnknownVertex:
            unknown = next(v for v in (subject, *by_subject[subject]) if not policy.has_vertex(v))
            raise GroundTruthMismatch(f"ground truth names unknown vertex {unknown}") from None
        if subject_kind not in (VertexKind.USER, VertexKind.USER_ATTR):
            raise GroundTruthMismatch(
                f"subject {subject} is a {subject_kind.value}, wants user or user attribute"
            )
    # every by_subject key is a known user or user attribute by now
    for subject in sorted(inherits):
        heads = inherits[subject]
        for v in (subject, *heads):
            if v not in by_subject:
                raise GroundTruthMismatch(f"inherits names {v}, which is not a subject")
        for h in heads:
            if inherits.get(h):
                raise GroundTruthMismatch(f"{subject} inherits {h}, which inherits in turn")

    # v -> v plus every resource attribute it ascends to, with no depth limit
    lineages: dict[VertexId, tuple[VertexId, ...]] = {}

    def need(entries: dict[VertexId, int], v: VertexId) -> int:
        """OR of ``entries`` on v and on every attribute v ascends to."""
        if not entries:
            return 0
        line = lineages.get(v)
        if line is None:
            line = lineages[v] = tuple(_ascend(policy, v, ctx, math.inf)[0])
        mask = 0
        for a in line:
            mask |= entries.get(a, 0)
        return mask

    below_memo: dict = {}

    def excess_of(
        grants: Iterable[tuple[VertexId, int, int]], entries: dict[VertexId, int]
    ) -> dict[VertexId, int]:
        """Per resource, the OR of the grants' masks beyond what ``entries`` require."""
        excess: dict[VertexId, int] = {}
        for target, budget, mask in grants:
            if not mask & ~need(entries, target):
                continue
            if policy._vertices[target].kind is RESOURCE:
                below = {target: 0}
            else:
                below = _descend(policy, target, ctx, below_memo)[0]
            for rid, rd in below.items():
                if rd <= budget:
                    extra = mask & ~need(entries, rid)
                    if extra:
                        excess[rid] = excess.get(rid, 0) | extra
        return excess

    # subject that inherits nothing -> its live grants, walked once for its
    # own check and, one hop shorter, for its holders'
    walks: dict[VertexId, list[tuple[VertexId, int, int]]] = {}

    def grants_of(s: VertexId) -> list[tuple[VertexId, int, int]]:
        if s not in walks:
            walks[s] = list(live_grants(policy, s, ctx, max_depth))
        return walks[s]

    # inherited head -> its per-resource excess over its one-hop-shorter walk
    head_excess: dict[VertexId, dict[VertexId, int]] = {}
    # one shared PermissionSet per distinct excess mask
    sets: dict[int, PermissionSet] = {}
    findings: list[OverPrivilegeFinding] = []
    for subject in subjects:
        mine = inherits.get(subject)
        if not mine:
            excess = excess_of(grants_of(subject), by_subject[subject])
        else:
            grants = list(_grants_at(policy, subject, ctx, max_depth - 1))
            shared = []
            held = set()
            for eid, h in policy._assign_out[subject].items():
                if h in mine:
                    if h not in head_excess:
                        # the walk one hop shorter: budgets drop by one
                        head_excess[h] = excess_of(
                            ((t, b - 1, m) for t, b, m in grants_of(h) if b), by_subject[h]
                        )
                    if not head_excess[h]:
                        continue  # nothing of h's to check, whether h is held or not
                edge = policy._edges[eid]
                if edge.active and edge_satisfied(policy, edge, ctx):
                    held.add(h)
            for h in held:
                if h in mine:
                    shared.append(head_excess[h])
                else:
                    grants.extend(live_grants(policy, h, ctx, max_depth - 1))
            if not grants and not shared:
                continue
            entries = dict(by_subject[subject])
            for h in mine:
                for a, m in by_subject[h].items():
                    entries[a] = entries.get(a, 0) | m
            excess = excess_of(grants, entries)
            for per_rid in shared:
                for rid, m in per_rid.items():
                    extra = m & ~need(entries, rid)
                    if extra:
                        excess[rid] = excess.get(rid, 0) | extra
        if excess:
            out = {}
            for rid in sorted(excess):
                mask = excess[rid]
                pset = sets.get(mask)
                if pset is None:
                    pset = sets[mask] = PermissionSet(policy.universe, mask)
                out[rid] = pset
            findings.append(OverPrivilegeFinding(subject, out))
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
        if not edge.active or not edge.constraints:
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
