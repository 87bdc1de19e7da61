"""Simplified cloud-IAM document ingestion.

Accepts one JSON document describing users, roles (with assume-role trust
lists), permission policies, and resources, and lowers it onto the policy
hypergraph: trust relations become assignment hyperedges, each policy entry
becomes one association per (role, resource type, policy class), and action
strings map onto the fixed permission universe through a static table.
Unknown actions are hard errors; silently dropping a permission would
corrupt every downstream detection.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Optional

from .core import PolicyHypergraph, VertexKind
from .errors import ParseError, SchemaError, UnknownAction, UnresolvedReference
from .serialize import constraint_from_obj

MAX_DOCUMENT_BYTES = 64 * 1024 * 1024

# AWS-style action names to universe permissions; canonical names pass through.
ACTION_MAP = {
    "s3:GetObject": "Read",
    "s3:ListBucket": "List",
    "s3:PutObject": "Write",
    "s3:DeleteObject": "Delete",
    "ec2:DescribeInstances": "List",
    "ec2:StartInstances": "Execute",
    "ec2:RunInstances": "RunInstances",
    "ec2:TerminateInstances": "Delete",
    "rds:DescribeDBInstances": "List",
    "rds:ExecuteStatement": "Execute",
    "dynamodb:GetItem": "Read",
    "dynamodb:PutItem": "Write",
    "lambda:InvokeFunction": "Execute",
    "iam:PassRole": "PassRole",
    "sts:AssumeRole": "AssumeRole",
}


@dataclass(frozen=True)
class IamUser:
    name: str
    account: str = ""
    tags: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class IamRole:
    name: str
    account: str = ""
    assumable_by: tuple[str, ...] = ()
    tags: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class IamResource:
    name: str
    account: str = ""
    type: str = ""
    tags: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class IamPolicyEntry:
    role: str
    actions: tuple[str, ...]
    resources: tuple[str, ...]
    policy_class: str = "aws"
    constraints: tuple = ()


@dataclass(frozen=True)
class IamDocument:
    users: tuple[IamUser, ...]
    roles: tuple[IamRole, ...]
    policies: tuple[IamPolicyEntry, ...]
    resources: tuple[IamResource, ...]


def _objects(obj: dict, key: str) -> list[tuple[dict, str]]:
    """The entries of list ``obj[key]`` with their paths; each must be an object."""
    out = []
    for i, item in enumerate(obj[key]):
        where = f"$.{key}[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(f"{where}: must be an object")
        out.append((item, where))
    return out


def _str_field(obj: dict, key: str, where: str, default: Optional[str] = None) -> str:
    if key not in obj:
        if default is not None:
            return default
        raise SchemaError(f"{where}: missing required field {key!r}")
    v = obj[key]
    if not isinstance(v, str):
        raise SchemaError(f"{where}.{key}: wrong type {type(v).__name__}")
    return v


def _tags_field(obj: dict, where: str) -> dict[str, str]:
    tags = obj.get("tags", {})
    if not isinstance(tags, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in tags.items()
    ):
        raise SchemaError(f"{where}.tags: must map strings to strings")
    return dict(tags)


def _str_list(obj: dict, key: str, where: str, default=None) -> tuple[str, ...]:
    if key not in obj:
        if default is not None:
            return tuple(default)
        raise SchemaError(f"{where}: missing required field {key!r}")
    v = obj[key]
    if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
        raise SchemaError(f"{where}.{key}: must be a list of strings")
    return tuple(v)


def parse_iam(data: bytes | str) -> IamDocument:
    """Parse and structurally validate an IAM document."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    if len(raw) > MAX_DOCUMENT_BYTES:
        raise ParseError(
            f"document is {len(raw)} bytes; the ingest limit is {MAX_DOCUMENT_BYTES}"
        )
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON document: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError("$: document root must be an object")
    for key in ("users", "roles", "policies", "resources"):
        if key not in obj:
            raise SchemaError(f"$: missing required field {key!r}")
        if not isinstance(obj[key], list):
            raise SchemaError(f"$.{key}: must be a list")

    users = tuple(
        IamUser(
            _str_field(u, "name", where),
            _str_field(u, "account", where, ""),
            _tags_field(u, where),
        )
        for u, where in _objects(obj, "users")
    )
    roles = tuple(
        IamRole(
            _str_field(r, "name", where),
            _str_field(r, "account", where, ""),
            _str_list(r, "assumable_by", where, ()),
            _tags_field(r, where),
        )
        for r, where in _objects(obj, "roles")
    )
    resources = tuple(
        IamResource(
            _str_field(r, "name", where),
            _str_field(r, "account", where, ""),
            _str_field(r, "type", where),
            _tags_field(r, where),
        )
        for r, where in _objects(obj, "resources")
    )
    policies = []
    for p, where in _objects(obj, "policies"):
        constraints = p.get("constraints", [])
        if not isinstance(constraints, list):
            raise SchemaError(f"{where}.constraints: must be a list")
        policies.append(
            IamPolicyEntry(
                _str_field(p, "role", where),
                _str_list(p, "actions", where),
                _str_list(p, "resources", where),
                _str_field(p, "policy_class", where, "aws"),
                tuple(
                    constraint_from_obj(c, f"{where}.constraints[{j}]")
                    for j, c in enumerate(constraints)
                ),
            )
        )
    return IamDocument(users, roles, tuple(policies), resources)


def _matching(pattern: str, names: list[str], declared: dict[str, int]) -> list[str]:
    """The declared resource names that ``pattern`` matches.

    A pattern is an exact name or a prefix with one trailing ``*``; nothing
    fancier. ``names`` holds the keys of ``declared`` in sorted order, where
    the names with a given prefix form one contiguous run.
    """
    if not pattern.endswith("*"):
        return [pattern] if pattern in declared else []
    prefix = pattern[:-1]
    start = end = bisect_left(names, prefix)
    while end < len(names) and names[end].startswith(prefix):
        end += 1
    return names[start:end]


def map_action(action: str, universe) -> str:
    if action in ACTION_MAP:
        return ACTION_MAP[action]
    if action in universe:
        return action
    raise UnknownAction(f"no mapping for action {action!r}")


def to_hypergraph(doc: IamDocument) -> PolicyHypergraph:
    """Lower a parsed document onto a policy hypergraph."""
    policy = PolicyHypergraph()

    users: dict[str, int] = {}
    for u in doc.users:
        users[u.name] = policy.add_vertex(VertexKind.USER, u.name, u.account, u.tags)

    roles: dict[str, int] = {}
    for r in doc.roles:
        roles[r.name] = policy.add_vertex(VertexKind.USER_ATTR, r.name, r.account, r.tags)

    type_ids: dict[str, int] = {}
    resources: dict[str, int] = {}
    res_type: dict[str, str] = {}
    for r in doc.resources:
        if not r.type:
            raise UnresolvedReference(f"resource {r.name!r} has no type")
        if r.type not in type_ids:
            type_ids[r.type] = policy.add_vertex(
                VertexKind.RESOURCE_ATTR, r.type, r.account, {}
            )
        rid = policy.add_vertex(VertexKind.RESOURCE, r.name, r.account, r.tags)
        policy.add_assignment(rid, type_ids[r.type])
        resources[r.name] = rid
        res_type[r.name] = r.type

    for r in doc.roles:
        for principal in r.assumable_by:
            if principal == r.name:
                raise UnresolvedReference(
                    f"role {r.name!r} cannot be assumable by itself"
                )
            if principal in users:
                policy.add_assignment(users[principal], roles[r.name])
            elif principal in roles:
                policy.add_assignment(roles[principal], roles[r.name])
            else:
                raise UnresolvedReference(
                    f"role {r.name!r} trusts unknown principal {principal!r}"
                )

    names = sorted(resources)
    pcs: dict[str, int] = {}
    for entry in doc.policies:
        if entry.role not in roles:
            raise UnresolvedReference(f"policy names unknown role {entry.role!r}")
        if entry.policy_class not in pcs:
            pcs[entry.policy_class] = policy.add_vertex(
                VertexKind.POLICY_CLASS, entry.policy_class
            )
        perms = sorted({map_action(a, policy.universe) for a in entry.actions})
        matched_types: set[str] = set()
        for pattern in entry.resources:
            hits = _matching(pattern, names, resources)
            if not hits:
                raise UnresolvedReference(
                    f"policy for role {entry.role!r}: pattern {pattern!r} "
                    f"matches no declared resource"
                )
            matched_types.update(res_type[name] for name in hits)
        for type_name in sorted(matched_types):
            policy.add_association(
                [roles[entry.role]],
                [type_ids[type_name]],
                pcs[entry.policy_class],
                perms,
                entry.constraints,
            )

    violations = policy.validate()
    if violations:  # pragma: no cover - construction should preclude this
        raise UnresolvedReference(
            "lowered policy is invalid: " + "; ".join(map(str, violations[:5]))
        )
    return policy
