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
once from each user attribute users hold, sorts its hits once, and visits
only holders of roles with hits. The over-privilege pass reads each
subject's own associations and walks each inherited role once, so a role
that is also a subject is read twice. A subject costs its associations and
assignments plus at most one requirement lookup per resource in its
inherited roles' excess (when it copies one role's findings map, only
below attributes where it requires more), so the pass is linear when
users inherit their roles' requirements, as the generator's ledger has
them do. Both passes pause the cyclic collector, whose full collections
would scan every container of the policy.

Attack window: time-window constraints give every just-in-time grant a
hard expiry; expired edges can be reported or revoked in one removal each,
independent of how many principals they served.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from functools import cache, partial
from itertools import chain, repeat
from typing import Iterable, Optional

from .core import RESOURCE, RESOURCE_ATTR, USER, USER_ATTR
from .core import (
    PolicyHypergraph,
    TimeWindow,
    VertexId,
    _collector_paused,
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
from .errors import GroundTruthMismatch
from .perm import PermissionSet


@dataclass(frozen=True, slots=True)
class EscalationFinding:
    user: VertexId
    path: AccessPath
    chained_attributes: tuple[VertexId, ...]
    target: VertexId

    def __init__(self, user, path, chained_attributes, target):
        _set_user(self, user)
        _set_path(self, path)
        _set_chained(self, chained_attributes)
        _set_target(self, target)

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


_set_user, _set_path, _set_chained, _set_target = (
    getattr(EscalationFinding, f).__set__ for f in EscalationFinding.__slots__
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


@_collector_paused()
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
    path length, edge ids, target). Each user attribute held by users is
    ascended once per pass, and its sorted hits serve every holder; only
    holders of a role with hits are visited.
    """
    tag_key, tag_value = sensitive_tag
    if not tag_key or not tag_value:
        raise ValueError("sensitive tag key and value must be non-empty")

    edges, vertices, assign_in = policy._edges, policy._vertices, policy._assign_in
    descend_memo: dict = {}
    # vertex -> {sensitive resource: (edges, vertices) from the vertex down}
    sensitive: dict[VertexId, dict] = {}

    def tagged(v: VertexId) -> bool:
        return vertices[v].tags.get(tag_key) == tag_value

    def sensitive_below(m: VertexId) -> dict:
        if m not in sensitive:
            below, step = _descend(policy, m, ctx, descend_memo)
            sensitive[m] = {rid: _path_to(step, rid) for rid in below if tagged(rid)}
        return sensitive[m]

    def chained_from(role: VertexId) -> list:
        """(length from a holder, edges, sensitive resource, vertices, chained
        user attributes) of the shortest path to each sensitive resource from
        ``role`` across one more user attribute, sorted by the first three."""
        best: dict = {}
        dist, up, _ = _ascend(policy, role, ctx, max_depth - 1)
        for w, k in dist.items():
            if not k:
                continue
            pedges, pverts = _path_to(up, w)
            # user -> role, k hops up, the bridge: the descent may take the rest
            for m, budget, _, eid in _grants_at(policy, w, ctx, max_depth - 2 - k):
                for rid, (dedges, dverts) in sensitive_below(m).items():
                    if len(dedges) > budget:
                        continue
                    cand = (2 + k + len(dedges), pedges + (eid,) + dedges, pverts + dverts)
                    cur = best.get(rid)
                    if cur is None or cand[:2] < cur[:2]:
                        best[rid] = cand
        return sorted(
            (total, path, rid, verts, tuple(v for v in verts if vertices[v].kind is USER_ATTR))
            for rid, (total, path, verts) in best.items()
        )

    # user -> [(assignment edge, its role's hits)] over live edges to roles with hits
    held: dict[VertexId, list] = {}
    for role in policy.vertices_of_kind(USER_ATTR):
        tails = assign_in[role.id]
        hits = any(vertices[t].kind is USER for t in tails.values()) and chained_from(role.id)
        if not hits:
            continue
        for eid, uid in tails.items():
            edge = edges[eid]
            if vertices[uid].kind is USER and edge.active and edge_satisfied(policy, edge, ctx):
                held.setdefault(uid, []).append((eid, hits))

    findings: list[EscalationFinding] = []
    for uid in sorted(held):
        pairs = chain.from_iterable(zip(repeat(eid), hits) for eid, hits in held[uid])
        if len(held[uid]) > 1:
            # a target's first hit in (length, edge ids, target) order is its best
            best: dict[VertexId, tuple] = {}
            for eid, hit in sorted(pairs, key=lambda p: (p[1][0], p[0], p[1][1], p[1][2])):
                best.setdefault(hit[2], (eid, hit))
            pairs = best.values()
        for eid, (_, path_edges, rid, verts, chained) in pairs:
            path = AccessPath((uid,) + verts, (eid,) + path_edges)
            findings.append(EscalationFinding(uid, path, chained, rid))
    return findings


@_collector_paused()
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

    Every subject s takes the same steps: the grants of its own
    associations, then, one hop up, each head it holds through a live,
    ctx-satisfied direct assignment. These are checked against s's
    requirement, except for a head h that s inherits: h is walked once per
    pass, one hop short, to give its excess over its own requirement per
    resource, and s masks that excess with its own requirement. This is
    exact: s requires at least what h requires, and a resource below a
    grant's target requires at least what the target does. When such an h
    is s's only source of excess, s copies h's findings map and re-masks
    only the resources below an attribute where s requires more than h.
    Findings with the same excess mask share one ``PermissionSet``.
    """
    by_subject, inherits = ground_truth.by_subject, ground_truth.inherits
    vertices = policy._vertices
    subjects = sorted(by_subject)
    for subject in subjects:
        try:
            subject_kind = vertices[subject].kind
            for rid in by_subject[subject]:
                kind = vertices[rid].kind
                if kind is not RESOURCE and kind is not RESOURCE_ATTR:
                    raise GroundTruthMismatch(
                        f"required key {rid} is a {kind.value}, "
                        "wants resource or resource attribute"
                    )
        except KeyError as exc:
            raise GroundTruthMismatch(f"ground truth names unknown vertex {exc.args[0]}") from None
        if subject_kind is not USER and subject_kind is not USER_ATTR:
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

    def lineage(v: VertexId) -> tuple[VertexId, ...]:
        line = lineages.get(v)
        if line is None:
            line = lineages[v] = tuple(_ascend(policy, v, ctx, math.inf)[0])
        return line

    def need(entries: dict[VertexId, int], v: VertexId) -> int:
        """OR of ``entries`` on v and on every attribute v ascends to."""
        if not entries:
            return 0
        mask = 0
        for a in lineage(v):
            mask |= entries.get(a, 0)
        return mask

    below_memo: dict = {}

    def excess_of(
        grants: Iterable[tuple[VertexId, int, int, int]], entries: dict[VertexId, int]
    ) -> dict[VertexId, int]:
        """Per resource, the OR of the grants' masks beyond what ``entries`` require."""
        excess: dict[VertexId, int] = {}
        for target, budget, mask, _ in grants:
            if not mask & ~need(entries, target):
                continue
            for rid, rd in _descend(policy, target, ctx, below_memo)[0].items():
                if rd <= budget:
                    extra = mask & ~need(entries, rid)
                    if extra:
                        excess[rid] = excess.get(rid, 0) | extra
        return excess

    # one shared PermissionSet per distinct excess mask
    permission_set = cache(partial(PermissionSet, policy.universe))
    # inherited head -> (its excess per resource, that excess's findings map,
    # attribute -> the excess resources at or below it)
    head_excess: dict[VertexId, tuple] = {}

    def head_record(h: VertexId) -> tuple:
        excess = excess_of(live_grants(policy, h, ctx, max_depth - 1), by_subject[h])
        below: dict[VertexId, list[VertexId]] = {}
        for rid in excess:
            for a in lineage(rid):
                below.setdefault(a, []).append(rid)
        return excess, {rid: permission_set(excess[rid]) for rid in sorted(excess)}, below

    findings: list[OverPrivilegeFinding] = []
    edges, assign_out = policy._edges, policy._assign_out
    for subject in subjects:
        mine = inherits.get(subject, ())
        # the subject's own associations, then one hop up to each live head
        grants = _grants_at(policy, subject, ctx, max_depth - 1)
        shared = []
        for eid, h in assign_out[subject].items():
            if h in mine:
                hx = head_excess.get(h)
                if hx is None:
                    hx = head_excess[h] = head_record(h)
                if not hx[0]:
                    continue  # nothing of h's to check, whether h is held or not
            edge = edges[eid]
            if not edge.active or not edge_satisfied(policy, edge, ctx):
                continue
            if h in mine:
                shared.append((h, hx))
            else:
                grants.extend(live_grants(policy, h, ctx, max_depth - 1))
        if not grants and not shared:
            continue
        entries = dict(by_subject[subject])
        for h in mine:
            for a, m in by_subject[h].items():
                entries[a] = entries.get(a, 0) | m
        if not grants and len(shared) == 1:
            h, (hx, out, below) = shared[0]
            out, own = dict(out), by_subject[h]
            for a, m in entries.items():
                if m & ~own.get(a, 0):
                    for rid in below.get(a, ()):
                        extra = hx[rid] & ~need(entries, rid)
                        if extra:
                            out[rid] = permission_set(extra)
                        else:
                            out.pop(rid, None)
        else:
            excess = excess_of(grants, entries)
            for _, (hx, _, _) in shared:
                for rid, m in hx.items():
                    extra = m & ~need(entries, rid)
                    if extra:
                        excess[rid] = excess.get(rid, 0) | extra
            out = {rid: permission_set(excess[rid]) for rid in sorted(excess)}
        if out:
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
