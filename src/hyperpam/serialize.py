"""Policy JSON serialization.

One UTF-8 JSON document per policy:

    {"permission_universe": [str, ...],
     "vertices": [{"id", "kind", "name", "account", "tags"}, ...],
     "hyperedges": [{"id", "kind", "members", "permissions",
                     "constraints", "active"}, ...]}

Vertex kinds serialize as user|user_attr|resource|resource_attr|policy_class,
edge kinds as assignment|association. Assignment member arrays are ordered
(from, to). Constraint objects carry a "kind" discriminator; time windows use
RFC 3339 timestamps. Output field order and entity order (by id) are fixed so
equal policies serialize to identical bytes. Loading validates the document
and raises SchemaError on any structural violation.
"""

from __future__ import annotations

import json
import os
import secrets
from datetime import datetime
from operator import itemgetter
from typing import Any

from .core import (
    ApprovalRequired,
    Constraint,
    Hyperedge,
    HyperedgeKind,
    PolicyHypergraph,
    SameAccount,
    TimeWindow,
    VertexKind,
)
from .errors import ParseError, SchemaError


def _rfc3339(ts: datetime) -> str:
    return ts.isoformat()


def parse_rfc3339(text: str) -> datetime:
    if not isinstance(text, str):
        raise SchemaError(f"timestamp must be an RFC3339 string, got {type(text).__name__}")
    try:
        return datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise SchemaError(f"bad RFC3339 timestamp {text!r}: {exc}") from None


def constraint_to_obj(c: Constraint) -> dict[str, Any]:
    if isinstance(c, SameAccount):
        return {"kind": "same_account"}
    if isinstance(c, TimeWindow):
        return {"kind": "time_window", "start": _rfc3339(c.start), "end": _rfc3339(c.end)}
    if isinstance(c, ApprovalRequired):
        return {"kind": "approval_required", "tag": c.tag}
    raise SchemaError(f"unknown constraint type {type(c).__name__}")


def constraint_from_obj(obj: dict[str, Any], where: str) -> Constraint:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: constraint must be an object")
    kind = obj.get("kind")
    if kind == "same_account":
        return SameAccount()
    if kind == "time_window":
        try:
            return TimeWindow(parse_rfc3339(obj["start"]), parse_rfc3339(obj["end"]))
        except KeyError as exc:
            raise SchemaError(f"{where}: time_window missing {exc}") from None
        except (ValueError, SchemaError) as exc:
            raise SchemaError(f"{where}: {exc}") from None
    if kind == "approval_required":
        tag = obj.get("tag")
        if not isinstance(tag, str) or not tag:
            raise SchemaError(f"{where}: approval_required needs a non-empty tag")
        return ApprovalRequired(tag)
    raise SchemaError(f"{where}: unknown constraint kind {kind!r}")


def policy_to_obj(policy: PolicyHypergraph) -> dict[str, Any]:
    vertices = []
    for v in sorted(policy.vertices(), key=lambda v: v.id):
        if v.kind is VertexKind.PERMISSION:
            raise SchemaError("permission vertices are not serializable")
        vertices.append(
            {
                "id": v.id,
                "kind": v.kind.value,
                "name": v.name,
                "account": v.account,
                "tags": {k: v.tags[k] for k in sorted(v.tags)},
            }
        )
    hyperedges = []
    for e in sorted(policy.edges(), key=lambda e: e.id):
        hyperedges.append(
            {
                "id": e.id,
                "kind": e.kind.value,
                "members": list(e.members),
                "permissions": list(policy.universe.names_of(e.perm_mask)),
                "constraints": [constraint_to_obj(c) for c in e.constraints],
                "active": e.active,
            }
        )
    return {
        "permission_universe": list(policy.universe.names),
        "vertices": vertices,
        "hyperedges": hyperedges,
    }


def dumps_policy(policy: PolicyHypergraph) -> str:
    return json.dumps(policy_to_obj(policy), separators=(",", ":"), sort_keys=False)


def _expect(obj: Any, key: str, types, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if not isinstance(value, types) or (type(value) is bool and types is int):
        raise SchemaError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


def policy_from_obj(obj: Any) -> PolicyHypergraph:
    universe = _expect(obj, "permission_universe", list, "$")
    if not all(isinstance(p, str) for p in universe):
        raise SchemaError("$.permission_universe: entries must be strings")
    policy = PolicyHypergraph(universe)

    kind_by_value = {k.value: k for k in VertexKind if k is not VertexKind.PERMISSION}
    for i, vobj in enumerate(_expect(obj, "vertices", list, "$")):
        where = f"$.vertices[{i}]"
        vid = _expect(vobj, "id", int, where)
        kind_s = _expect(vobj, "kind", str, where)
        if kind_s not in kind_by_value:
            raise SchemaError(f"{where}.kind: unknown vertex kind {kind_s!r}")
        name = _expect(vobj, "name", str, where)
        account = _expect(vobj, "account", str, where)
        tags = _expect(vobj, "tags", dict, where)
        if not all(isinstance(k, str) and isinstance(t, str) for k, t in tags.items()):
            raise SchemaError(f"{where}.tags: keys and values must be strings")
        try:
            policy.add_vertex(kind_by_value[kind_s], name, account, tags, _id=vid)
        except Exception as exc:
            raise SchemaError(f"{where}: {exc}") from None

    edge_kinds = {k.value: k for k in HyperedgeKind}
    edges = []
    for i, eobj in enumerate(_expect(obj, "hyperedges", list, "$")):
        where = f"$.hyperedges[{i}]"
        eid = _expect(eobj, "id", int, where)
        kind_s = _expect(eobj, "kind", str, where)
        if kind_s not in edge_kinds:
            raise SchemaError(f"{where}.kind: unknown hyperedge kind {kind_s!r}")
        members = _expect(eobj, "members", list, where)
        if not all(type(m) is int for m in members):
            raise SchemaError(f"{where}.members: entries must be vertex ids")
        perms = _expect(eobj, "permissions", list, where)
        constraints = [
            constraint_from_obj(c, f"{where}.constraints[{j}]")
            for j, c in enumerate(_expect(eobj, "constraints", list, where))
        ]
        active = _expect(eobj, "active", bool, where)
        edges.append((eid, where, edge_kinds[kind_s], members, perms, constraints, active))
    # in id order, so no adjacency insert has to re-sort (see core._new_edge)
    edges.sort(key=itemgetter(0))
    for eid, where, kind, members, perms, constraints, active in edges:
        try:
            policy.add_raw_hyperedge(kind, members, perms, constraints, active, _id=eid)
        except Exception as exc:
            raise SchemaError(f"{where}: {exc}") from None

    violations = policy.validate()
    if violations:
        raise SchemaError(
            "document violates policy invariants: "
            + "; ".join(str(v) for v in violations[:8])
        )
    return policy


def loads_policy(text: str | bytes) -> PolicyHypergraph:
    try:
        obj = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return policy_from_obj(obj)


def save_policy(policy: PolicyHypergraph, path: str) -> None:
    """Write the policy to ``path`` atomically.

    The document goes to a new file in the same directory, which then
    replaces ``path`` in one rename, so a failed write leaves any previous
    file at ``path`` intact.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    # O_EXCL never reuses a stray file; mode 0o666 lets the umask decide
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(dumps_policy(policy))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_policy(path: str) -> PolicyHypergraph:
    with open(path, "rb") as fh:
        return loads_policy(fh.read())
