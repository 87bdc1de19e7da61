"""Labeled policy hypergraph.

Vertices partition into users, user attributes (roles/groups), resources,
resource attributes (types/classifications), and policy classes. Hyperedges
come in two kinds:

* Assignment — a directed 2-member membership link (user->attribute,
  resource->attribute, or attribute->attribute for hierarchies). Carries no
  permissions.
* Association — a grant: one or more user-side members, one or more
  resource-side members, exactly one policy class, and a non-empty
  permission label. Resource-side members are usually resource attributes
  but may include concrete resources, and user-side members may include
  concrete users, so a single hyperedge can span
  {user, role, resource, type, policy class}.

Constraints (same-account, time-window, approval-required) attach to
hyperedges; queries carry the runtime facts that decide them. The graph
keeps one exact index per relation the walks follow: assignments out of and
into each vertex, and the associations each vertex is a member of. A
vertex's incident edges are the union of the three, so no fourth index
repeats them. Removing one hyperedge revokes every path through it at a
cost proportional only to the edge's own member count.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from types import MappingProxyType
from typing import ItemsView, Iterable, Iterator, KeysView, Optional, Union

from .errors import (
    DuplicateName,
    EmptyPermissions,
    KindMismatch,
    UnknownEdge,
    UnknownPermission,
    UnknownVertex,
)
from .perm import DEFAULT_PERMISSIONS, PermissionSet, PermissionUniverse

VertexId = int
HyperedgeId = int


class VertexKind(Enum):
    USER = "user"
    USER_ATTR = "user_attr"
    RESOURCE = "resource"
    RESOURCE_ATTR = "resource_attr"
    POLICY_CLASS = "policy_class"


# module globals for walks that test kinds per step: cheaper to read than VertexKind.X
USER, USER_ATTR, POLICY_CLASS = VertexKind.USER, VertexKind.USER_ATTR, VertexKind.POLICY_CLASS
RESOURCE, RESOURCE_ATTR = VertexKind.RESOURCE, VertexKind.RESOURCE_ATTR

USER_SIDE_KINDS = frozenset({VertexKind.USER, VertexKind.USER_ATTR})
RESOURCE_SIDE_KINDS = frozenset({VertexKind.RESOURCE, VertexKind.RESOURCE_ATTR})

# Legal (from, to) kind pairs for assignment hyperedges.
ASSIGNMENT_PAIRS = frozenset(
    {
        (VertexKind.USER, VertexKind.USER_ATTR),
        (VertexKind.RESOURCE, VertexKind.RESOURCE_ATTR),
        (VertexKind.USER_ATTR, VertexKind.USER_ATTR),
        (VertexKind.RESOURCE_ATTR, VertexKind.RESOURCE_ATTR),
    }
)
# The same pairs by kind value, for validate's hot loop: a str hash is cached,
# while every Enum hash is a Python-level call.
_ASSIGNMENT_VALUE_PAIRS = frozenset((a._value_, b._value_) for a, b in ASSIGNMENT_PAIRS)


class HyperedgeKind(Enum):
    ASSIGNMENT = "assignment"
    ASSOCIATION = "association"


@dataclass(frozen=True, slots=True)
class Vertex:
    id: VertexId
    kind: VertexKind
    name: str
    account: str = ""
    tags: dict[str, str] = field(default_factory=dict)


def as_utc(ts: datetime) -> datetime:
    """Normalize to an aware UTC instant; naive datetimes are taken as UTC."""
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass(frozen=True)
class SameAccount:
    """All non-policy-class members must live in the acting account."""

    kind = "same_account"


@dataclass(frozen=True)
class TimeWindow:
    """Edge is usable during [start, end], inclusive on both ends."""

    start: datetime
    end: datetime
    kind = "time_window"

    def __post_init__(self):
        object.__setattr__(self, "start", as_utc(self.start))
        object.__setattr__(self, "end", as_utc(self.end))
        if not self.start < self.end:
            raise ValueError("time window start must precede end")


@dataclass(frozen=True)
class ApprovalRequired:
    """The context must carry this approval tag."""

    tag: str
    kind = "approval_required"


Constraint = Union[SameAccount, TimeWindow, ApprovalRequired]


@dataclass(slots=True)
class Hyperedge:
    id: HyperedgeId
    kind: HyperedgeKind
    # For assignments the order is semantic: (from, to). Association member
    # order is normalized at creation and has no meaning beyond determinism.
    members: tuple[VertexId, ...]
    perm_mask: int = 0
    constraints: tuple[Constraint, ...] = ()
    active: bool = True

    @property
    def tail(self) -> VertexId:
        """Assignment source ('from' vertex)."""
        return self.members[0]

    @property
    def head(self) -> VertexId:
        """Assignment target ('to' vertex)."""
        return self.members[1]


@dataclass(frozen=True)
class Violation:
    """One well-formedness failure; data, not an exception."""

    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}({self.subject}): {self.detail}"


# Every vertex with no entries in an index points at this one empty mapping,
# so a policy does not hold thousands of empty dicts. _own_entries swaps in a
# fresh dict before the first insert; the mapping is read-only, so a write
# that skips _own_entries raises instead of reaching every empty vertex.
_NO_ENTRIES: MappingProxyType = MappingProxyType({})


_collector_lock = threading.Lock()


@contextmanager
def _collector_paused():
    """Switch the cyclic garbage collector off, then back to how it was. A lock
    makes each read-and-switch one step, so threads leave it on if it was on."""
    with _collector_lock:
        was_enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            with _collector_lock:
                gc.enable()


def _own_entries(index: dict, vid: VertexId) -> dict:
    adj = index[vid]
    if adj is _NO_ENTRIES:
        adj = index[vid] = {}
    return adj


def _sort_by_id(adj: dict) -> None:
    items = sorted(adj.items())
    adj.clear()
    adj.update(items)


class PolicyHypergraph:
    """Vertex/hyperedge store with one exact index per traversed relation.

    Mutation requires exclusive access; once built, the structure may be
    read concurrently from any number of threads.
    """

    def __init__(self, permission_universe: Iterable[str] = DEFAULT_PERMISSIONS):
        self.universe = (
            permission_universe
            if isinstance(permission_universe, PermissionUniverse)
            else PermissionUniverse(permission_universe)
        )
        self._vertices: dict[VertexId, Vertex] = {}
        self._edges: dict[HyperedgeId, Hyperedge] = {}
        self._name_index: dict[tuple[VertexKind, str], VertexId] = {}
        # Assignment adjacency (edge id -> neighbour) and per-vertex association
        # ids (edge id -> None), all in ascending id order, keep traversal from
        # scanning an attribute's whole fan or sorting what it visits.
        self._assign_out: dict[VertexId, dict[HyperedgeId, VertexId]] = {}
        self._assign_in: dict[VertexId, dict[HyperedgeId, VertexId]] = {}
        self._assoc_incidence: dict[VertexId, dict[HyperedgeId, None]] = {}
        self._next_vertex_id = 0
        self._next_edge_id = 0

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        kind: VertexKind,
        name: str,
        account: str = "",
        tags: Optional[dict[str, str]] = None,
        _id: Optional[VertexId] = None,
    ) -> VertexId:
        if not name:
            raise DuplicateName("vertex name must be non-empty")
        key = (kind, name)
        if key in self._name_index:
            raise DuplicateName(f"{kind.value} named {name!r} already exists")
        vid = self._next_vertex_id if _id is None else _id
        if vid in self._vertices:
            raise DuplicateName(f"vertex id {vid} already in use")
        self._next_vertex_id = max(self._next_vertex_id, vid + 1)
        self._vertices[vid] = Vertex(vid, kind, name, account, dict(tags or {}))
        self._assign_out[vid] = self._assign_in[vid] = self._assoc_incidence[vid] = _NO_ENTRIES
        self._name_index[key] = vid
        return vid

    def vertex(self, vid: VertexId) -> Vertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise UnknownVertex(f"no vertex with id {vid}") from None

    def has_vertex(self, vid: VertexId) -> bool:
        return vid in self._vertices

    def vertex_named(self, kind: VertexKind, name: str) -> Vertex:
        try:
            return self._vertices[self._name_index[(kind, name)]]
        except KeyError:
            raise UnknownVertex(f"no {kind.value} named {name!r}") from None

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def vertices_of_kind(self, kind: VertexKind) -> list[Vertex]:
        return [v for v in self._vertices.values() if v.kind is kind]

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    # ------------------------------------------------------------------
    # hyperedges
    # ------------------------------------------------------------------
    def _new_edge(self, edge: Hyperedge) -> HyperedgeId:
        eid, members = edge.id, edge.members
        self._edges[eid] = edge
        if edge.kind is HyperedgeKind.ASSIGNMENT:
            if len(members) != 2:  # validate() reports it; no index holds it
                return eid
            tail, head = members
            out = _own_entries(self._assign_out, tail)
            into = _own_entries(self._assign_in, head)
            out[eid] = head
            into[eid] = tail
            touched = (out, into)
        else:
            index = self._assoc_incidence
            touched = [_own_entries(index, vid) for vid in set(members)]
            for ids in touched:
                ids[eid] = None
        if eid + 1 < self._next_edge_id:  # an older id, via add_raw_hyperedge
            for adj in touched:
                _sort_by_id(adj)
        return eid

    def _require_vertices(self, ids: Iterable[VertexId]) -> None:
        for vid in ids:
            if vid not in self._vertices:
                raise UnknownVertex(f"no vertex with id {vid}")

    def add_assignment(self, from_id: VertexId, to_id: VertexId) -> HyperedgeId:
        self._require_vertices((from_id, to_id))
        if from_id == to_id:
            raise KindMismatch("assignment cannot link a vertex to itself")
        pair = (self._vertices[from_id].kind, self._vertices[to_id].kind)
        if pair not in ASSIGNMENT_PAIRS:
            raise KindMismatch(
                f"illegal assignment {pair[0].value} -> {pair[1].value}"
            )
        eid = self._next_edge_id
        self._next_edge_id += 1
        return self._new_edge(
            Hyperedge(eid, HyperedgeKind.ASSIGNMENT, (from_id, to_id))
        )

    def add_association(
        self,
        user_attrs: Iterable[VertexId],
        res_attrs: Iterable[VertexId],
        pc: VertexId,
        perms: Union[PermissionSet, Iterable[str]],
        constraints: Iterable[Constraint] = (),
    ) -> HyperedgeId:
        user_side = sorted(set(user_attrs))
        res_side = sorted(set(res_attrs))
        self._require_vertices(user_side + res_side + [pc])
        if self._vertices[pc].kind is not VertexKind.POLICY_CLASS:
            raise KindMismatch("association scope must be a policy class vertex")
        kinds_u = {self._vertices[v].kind for v in user_side}
        kinds_r = {self._vertices[v].kind for v in res_side}
        if not kinds_u <= USER_SIDE_KINDS or VertexKind.USER_ATTR not in kinds_u:
            raise KindMismatch(
                "association user side needs at least one user attribute and "
                "only user-side vertices"
            )
        if not kinds_r <= RESOURCE_SIDE_KINDS or VertexKind.RESOURCE_ATTR not in kinds_r:
            raise KindMismatch(
                "association resource side needs at least one resource attribute "
                "and only resource-side vertices"
            )
        if not isinstance(perms, PermissionSet):
            mask = self.universe.mask_of(perms)
        elif perms.universe == self.universe:
            mask = perms.mask
        else:
            raise UnknownPermission("permission set is over another permission universe")
        if mask == 0:
            raise EmptyPermissions("association must grant at least one permission")
        eid = self._next_edge_id
        self._next_edge_id += 1
        members = tuple(user_side) + tuple(res_side) + (pc,)
        return self._new_edge(
            Hyperedge(
                eid,
                HyperedgeKind.ASSOCIATION,
                members,
                perm_mask=mask,
                constraints=tuple(constraints),
            )
        )

    def add_raw_hyperedge(
        self,
        kind: HyperedgeKind,
        members: Iterable[VertexId],
        perms: Union[PermissionSet, Iterable[str]] = (),
        constraints: Iterable[Constraint] = (),
        active: bool = True,
        _id: Optional[HyperedgeId] = None,
    ) -> HyperedgeId:
        """Low-level edge insertion for deserialization and tests.

        Only member existence is enforced here; run validate() to check the
        structural invariants.
        """
        vertices, ids = self._vertices, []
        try:
            for vid in members:  # the vertex's own id object, not an equal copy
                ids.append(vertices[vid].id)
        except KeyError:
            raise UnknownVertex(f"no vertex with id {vid}") from None
        members = tuple(ids)
        if not isinstance(perms, PermissionSet):
            mask = self.universe.mask_of(perms) if perms else 0
        elif perms.universe == self.universe:
            mask = perms.mask
        else:
            raise UnknownPermission("permission set is over another permission universe")
        eid = self._next_edge_id if _id is None else _id
        if eid in self._edges:
            raise DuplicateName(f"hyperedge id {eid} already in use")
        if eid >= self._next_edge_id:
            self._next_edge_id = eid + 1
        return self._new_edge(
            Hyperedge(eid, kind, members, mask, tuple(constraints), active)
        )

    def edge(self, eid: HyperedgeId) -> Hyperedge:
        try:
            return self._edges[eid]
        except KeyError:
            raise UnknownEdge(f"no hyperedge with id {eid}") from None

    def edges(self) -> Iterator[Hyperedge]:
        return iter(self._edges.values())

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def remove_hyperedge(self, eid: HyperedgeId) -> None:
        """Remove the edge and every index entry that mentions it.

        Cost is proportional to the edge's member count, not to how many
        principals gained access through it nor to any attribute's fan-in.
        """
        edge = self.edge(eid)
        del self._edges[eid]
        if edge.kind is HyperedgeKind.ASSOCIATION:
            for vid in set(edge.members):
                del self._assoc_incidence[vid][eid]
        elif len(edge.members) == 2:
            del self._assign_out[edge.tail][eid]
            del self._assign_in[edge.head][eid]

    def set_active(self, eid: HyperedgeId, active: bool) -> None:
        self.edge(eid).active = bool(active)

    # unchecked read-only views of the three indexes (ascending edge ids), for tests;
    # the walks in engine and detect read _edges, _vertices and the tables directly
    def assignments_from(self, vid: VertexId) -> ItemsView[HyperedgeId, VertexId]:
        return self._assign_out[vid].items()

    def assignments_to(self, vid: VertexId) -> ItemsView[HyperedgeId, VertexId]:
        return self._assign_in[vid].items()

    def associations_at(self, vid: VertexId) -> KeysView[HyperedgeId]:
        return self._assoc_incidence[vid].keys()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> list[Violation]:
        """Check every structural invariant; an empty list means well-formed.

        The three indexes the walks read must hold exactly what the edges
        imply: (edge, head) out of each two-member assignment's tail, (edge,
        tail) into its head, and each association at each of its members.
        """
        out: list[Violation] = []
        vertices, assign_out, assign_in = self._vertices, self._assign_out, self._assign_in
        assoc = self._assoc_incidence
        # The indexes are exact iff they hold every entry the edges imply and
        # no more entries than that. Only when they do not does
        # _index_violations scan them both ways to say what is wrong.
        entries = 0
        indexed = True
        for eid, edge in self._edges.items():
            members = edge.members
            if edge.kind is HyperedgeKind.ASSIGNMENT and len(members) == 2:
                tail, head = members
                from_v, to_v = vertices.get(tail), vertices.get(head)
                # a plain assignment (most edges) needs only this one test
                if (
                    edge.perm_mask
                    or edge.constraints
                    or from_v is None
                    or to_v is None
                    or tail == head
                    or (from_v.kind._value_, to_v.kind._value_) not in _ASSIGNMENT_VALUE_PAIRS
                ):
                    self._edge_violations(eid, edge, out)
                entries += 2
                indexed = (
                    indexed
                    and assign_out[tail].get(eid) == head
                    and assign_in[head].get(eid) == tail
                )
                continue
            self._edge_violations(eid, edge, out)
            if edge.kind is HyperedgeKind.ASSOCIATION:
                for vid in set(members):
                    entries += 1
                    indexed = indexed and eid in assoc[vid]
        if not indexed or entries != sum(
            sum(map(len, index.values())) for index in (assign_out, assign_in, assoc)
        ):
            self._index_violations(out)
        return out

    def _edge_violations(self, eid: HyperedgeId, edge: Hyperedge, out: list[Violation]) -> None:
        subject = f"edge:{eid}"
        missing = [v for v in edge.members if v not in self._vertices]
        if missing:
            out.append(
                Violation("DanglingMember", subject, f"unknown vertices {missing}")
            )
            return
        kinds = [self._vertices[v].kind for v in edge.members]
        if edge.kind is HyperedgeKind.ASSIGNMENT:
            if len(edge.members) != 2:
                out.append(
                    Violation(
                        "BadAssignmentShape",
                        subject,
                        f"assignment has {len(edge.members)} members, wants 2",
                    )
                )
                return
            if edge.members[0] == edge.members[1]:
                out.append(
                    Violation("SelfAssignment", subject, "links a vertex to itself")
                )
            if (kinds[0], kinds[1]) not in ASSIGNMENT_PAIRS:
                out.append(
                    Violation(
                        "IllegalKindPair",
                        subject,
                        f"{kinds[0].value} -> {kinds[1].value}",
                    )
                )
            if edge.perm_mask != 0:
                out.append(
                    Violation(
                        "AssignmentHasPermissions",
                        subject,
                        "assignments carry no permission label",
                    )
                )
        else:
            pcs = [k for k in kinds if k is VertexKind.POLICY_CLASS]
            if len(pcs) == 0:
                out.append(
                    Violation("MissingPolicyClass", subject, "no policy class member")
                )
            elif len(pcs) > 1:
                out.append(
                    Violation(
                        "TooManyPolicyClasses",
                        subject,
                        f"{len(pcs)} policy class members, wants exactly 1",
                    )
                )
            if VertexKind.USER_ATTR not in kinds:
                out.append(
                    Violation(
                        "MissingUserAttribute", subject, "no user attribute member"
                    )
                )
            if VertexKind.RESOURCE_ATTR not in kinds:
                out.append(
                    Violation(
                        "MissingResourceAttribute",
                        subject,
                        "no resource attribute member",
                    )
                )
            if edge.perm_mask == 0:
                out.append(
                    Violation("EmptyPermissions", subject, "association grants nothing")
                )
        if edge.perm_mask & ~self.universe.full_mask:
            out.append(
                Violation(
                    "UnknownPermissionBits",
                    subject,
                    "permission mask outside the declared universe",
                )
            )
        for c in edge.constraints:
            if isinstance(c, TimeWindow) and not c.start < c.end:
                out.append(
                    Violation("BadTimeWindow", subject, "start must precede end")
                )

    def _index_violations(self, out: list[Violation]) -> None:
        """Report index entries that are wrong or missing, scanning both ways."""
        want = {}  # (index name, vertex, edge id) -> the entry's value
        for eid, edge in self._edges.items():
            if edge.kind is HyperedgeKind.ASSOCIATION:
                for vid in set(edge.members):
                    want["association", vid, eid] = None
            elif len(edge.members) == 2:
                tail, head = edge.members
                want["out-assignment", tail, eid] = head
                want["in-assignment", head, eid] = tail
        indexes = {
            "out-assignment": self._assign_out,
            "in-assignment": self._assign_in,
            "association": self._assoc_incidence,
        }
        for name, index in indexes.items():
            for vid, adj in index.items():
                for eid, value in adj.items():
                    if ((name, vid, eid), value) not in want.items():
                        detail = f"{name} index lists edge {eid}, which does not match it"
                        out.append(Violation("IncidenceMismatch", f"vertex:{vid}", detail))
        for (name, vid, eid), value in want.items():
            # a dangling member is reported as such, not as a missing entry
            if vid in self._vertices and (eid, value) not in indexes[name][vid].items():
                detail = f"{name} index lacks edge {eid} or has it wrong"
                out.append(Violation("IncidenceMismatch", f"vertex:{vid}", detail))
