"""Seeded synthetic policy generator with labeled ground truth.

Produces AWS-flavored policies: users assigned to roles (1-5 each,
uniform), roles granted permission sets (Zipf-sized) over resource types,
resources bucketed into a fixed type census, entities spread over a few
synthetic accounts, and a slice of grants carrying time-window or
same-account constraints. Every policy ships with a ground-truth ledger,
``GroundTruth``, holding the construction's grants and full provenance for
every injected violation. What a principal is supposed to reach is derived
from it arithmetically, never from the query engine, so detector output
can be scored for false positives.

Two profiles:

* ``standard`` — roles scale as a fixed ratio of users, resources as half;
  the shape used for detection benchmarks.
* ``sqrt-grouping`` — ceil(sqrt(n)) user and resource groups with each
  entity assigned to about a quarter of them and all group pairs cross
  associated; the shape that exhibits superlinear hyperedge growth for the
  size study. Groups stand in for roles and types, so the role, type,
  constraint and injection settings are ignored.

Both profiles and the fixture share one private builder, ``_Draft``. Each of
its steps adds a resource, a user or a grant to the policy together with its
ledger rows, or injects a violation together with its record. Only the
injections draw from the random stream they are given; each profile makes
its other draws itself, in its own order, before the step that uses them.

In the standard profile and the fixture, injected violations keep
attribution exact by construction: escalation chains land on reserved
grant-free elevated roles and target production types that ordinary grants
never touch, and excess grants use permissions withheld from the ordinary
pool. When constrained grants are enabled, the standard profile places one
deliberately expired grant and one cross-account scoped grant on reserved
types so that at least one unambiguous false-positive source exists for the
lossy baseline models.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Any, Optional

from .core import (
    PolicyHypergraph,
    SameAccount,
    TimeWindow,
    VertexId,
    VertexKind,
    as_utc,
)
from .detect import RequiredPermissions
from .engine import EvaluationContext
from .errors import ConfigInvalid, InsufficientEntities, SchemaError, UnknownPermission
from .perm import PermissionSet, PermissionUniverse
from .rng import Rng, zipf_sample
from .serialize import _decode, _expect, parse_rfc3339

EPOCH = datetime(2025, 6, 1, tzinfo=timezone.utc)
EVAL_TS = EPOCH + timedelta(days=45)
ACTIVE_WINDOW = (EPOCH, EPOCH + timedelta(days=365))
EXPIRED_WINDOW = (EPOCH, EPOCH + timedelta(days=10))

# Ordinary role grants draw from the first six permissions; Delete and
# RunInstances are reserved for injected excess so that excess facts can
# never collide with intended ones.
BASE_PERM_POOL = ("Read", "Write", "Execute", "List", "PassRole", "AssumeRole")
EXCESS_PERM_CYCLE = (("Delete",), ("RunInstances",), ("Delete", "RunInstances"))
# the fixed policy shape of the module docstring
ASSIGNMENTS_PER_USER = (1, 5)
TYPES_PER_ROLE = (4, 9)
MAX_PERMS_PER_ROLE = 10
ZIPF_S = 1.0
ACCOUNTS = tuple(f"acct-{i}" for i in range(4))

PROFILES = ("standard", "sqrt-grouping")


@dataclass
class GenConfig:
    n_users: int
    n_roles: int
    n_resources: int
    n_resource_types: int = 15
    pct_temporal: float = 0.2
    pct_scoped: float = 0.1
    injected_chains: int = 0
    injected_excess: int = 0
    profile: str = "standard"
    seed: int = 0

    def validate(self) -> None:
        if min(self.n_users, self.n_roles, self.n_resources) < 0:
            raise ConfigInvalid("entity counts must be >= 0")
        for name in ("pct_temporal", "pct_scoped"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigInvalid(f"{name} must be in [0, 1]")
        if self.injected_chains < 0 or self.injected_excess < 0:
            raise ConfigInvalid("injection counts must be >= 0")
        if self.profile not in PROFILES:
            raise ConfigInvalid(f"unknown profile {self.profile!r}")
        if self.injected_chains and self.n_roles < self.injected_chains + 1:
            raise ConfigInvalid("chains need a spare role each plus one base role")


def config_for_scale(n: int, seed: int = 0, profile: str = "standard") -> GenConfig:
    """Scale-parameter template: n users, n/10 roles, n/2 resources."""
    return GenConfig(
        n_users=n,
        n_roles=max(1, round(0.1 * n)),
        n_resources=max(1, n // 2),
        injected_chains=2,
        injected_excess=2,
        profile=profile,
        seed=seed,
    )


@dataclass(frozen=True)
class Grant:
    """One role-to-type association, with the facts needed to re-evaluate
    its constraints arithmetically (no graph search)."""

    role: VertexId
    type_id: VertexId
    mask: int
    edge: int
    window: Optional[tuple[datetime, datetime]] = None
    same_account: bool = False
    member_accounts: tuple[str, ...] = ()

    def satisfied(self, ctx: EvaluationContext) -> bool:
        if self.window is not None:
            if not (self.window[0] <= ctx.timestamp <= self.window[1]):
                return False
        if self.same_account:
            if any(a != ctx.acting_account for a in self.member_accounts):
                return False
        return True


@dataclass(frozen=True)
class ChainRecord:
    assignment_edge: int
    association_edge: int
    source_role: VertexId
    target_role: VertexId
    type_id: VertexId
    mask: int
    finding_users: tuple[VertexId, ...]
    fact_users: tuple[VertexId, ...]


@dataclass(frozen=True)
class ExcessRecord:
    role: VertexId
    type_id: VertexId
    mask: int
    association_edge: int
    users: tuple[VertexId, ...]


@dataclass
class GroundTruth:
    """Construction ledger: intended grants plus injected violations.

    ``dumps`` writes the ledger as it is held, one UTF-8 JSON document:

        {"eval_timestamp": RFC 3339,
         "users": [[id, account, [role, ...]], ...],
         "grants": [[role, type, [permission, ...], edge,
                     null | [start, end], same_account, [account, ...]], ...],
         "resource_types": [[resource, [type, ...]], ...],
         "chains": [[assignment_edge, association_edge, source_role,
                     target_role, type, [permission, ...],
                     [finding user, ...], [fact user, ...]], ...],
         "excess": [[role, type, [permission, ...], association_edge,
                     [user, ...]], ...]}

    A row lists a record's fields in declaration order (``_LEDGER_ROWS``).
    Ids are the policy's vertex and hyperedge ids, permissions are names
    from its universe, and a timestamp without a UTC offset is read as UTC,
    as in policy files. Rows keep the order they are held in, so equal
    ledgers serialize to identical bytes. A grant is written once, not once
    per user and resource it reaches, so the file is O(grants + user-role
    pairs + resource-type pairs). ``loads`` reads this shape back and raises
    SchemaError, naming the field, on any other; undecodable text raises
    ParseError. ``resources_by_type`` is derived from ``resource_types``.
    """

    eval_timestamp: datetime
    user_roles: dict[VertexId, tuple[VertexId, ...]]
    user_account: dict[VertexId, str]
    grants: list[Grant]
    resource_types: dict[VertexId, tuple[VertexId, ...]]
    chains: list[ChainRecord] = field(default_factory=list)
    excess: list[ExcessRecord] = field(default_factory=list)
    _grants_by_role: dict[VertexId, list[Grant]] = field(init=False, compare=False)
    resources_by_type: dict[VertexId, tuple[VertexId, ...]] = field(init=False, compare=False)

    def __post_init__(self):
        self._grants_by_role = {}
        for g in self.grants:
            self._grants_by_role.setdefault(g.role, []).append(g)
        by_type: dict[VertexId, list[VertexId]] = {}
        for rid, types in self.resource_types.items():
            for tid in types:
                by_type.setdefault(tid, []).append(rid)
        self.resources_by_type = {t: tuple(by_type[t]) for t in sorted(by_type)}

    def context_for(self, user: VertexId) -> EvaluationContext:
        """Canonical evaluation context: generation epoch, acting as the user."""
        return EvaluationContext(self.eval_timestamp, self.user_account.get(user, ""))

    def is_intended(self, user: VertexId, opbit: int, resource: VertexId,
                    ctx: EvaluationContext) -> bool:
        types = self.resource_types.get(resource, ())
        for role in self.user_roles.get(user, ()):
            for g in self._grants_by_role.get(role, ()):
                if g.type_id in types and g.mask & opbit and g.satisfied(ctx):
                    return True
        return False

    def is_violation_fact(self, user: VertexId, opbit: int, resource: VertexId) -> bool:
        types = self.resource_types.get(resource, ())
        for c in self.chains:
            if c.type_id in types and c.mask & opbit and user in c.fact_users:
                return True
        for e in self.excess:
            if e.type_id in types and e.mask & opbit and user in e.users:
                return True
        return False

    def required_permissions(self, ctx: EvaluationContext) -> RequiredPermissions:
        """Required masks per role, keyed by resource type; users inherit them.

        A role requires, on each type it is granted, the OR of the masks of
        its grants that ``ctx`` satisfies. A user has no entries of its own
        and inherits the requirement of each of its roles that has grants,
        so the result holds O(grants + user-role pairs) entries, and the
        over-privilege pass checks each role's grants once per pass.
        """
        by_subject: dict[VertexId, dict[VertexId, int]] = {}
        for role, grants in self._grants_by_role.items():
            acc: dict[VertexId, int] = {}
            for g in grants:
                if g.satisfied(ctx):
                    acc[g.type_id] = acc.get(g.type_id, 0) | g.mask
            by_subject[role] = acc
        inherits: dict[VertexId, tuple[VertexId, ...]] = {}
        for user, roles in self.user_roles.items():
            by_subject[user] = {}
            inherits[user] = tuple(r for r in roles if r in self._grants_by_role)
        return RequiredPermissions(by_subject, inherits)

    def dumps(self, universe_names: tuple[str, ...]) -> str:
        def rows(key: str, records: list) -> list[list]:
            return [
                [[n for i, n in enumerate(universe_names) if v >> i & 1] if kind == "p" else v
                 for kind, v in zip(_LEDGER_ROWS[key], astuple(rec))]
                for rec in records
            ]

        obj = {
            "eval_timestamp": self.eval_timestamp,
            "users": [(u, self.user_account.get(u, ""), r) for u, r in self.user_roles.items()],
            "grants": rows("grants", self.grants),
            "resource_types": list(self.resource_types.items()),
            "chains": rows("chains", self.chains),
            "excess": rows("excess", self.excess),
        }
        return json.dumps(obj, separators=(",", ":"), default=datetime.isoformat)

    @classmethod
    def loads(cls, text: str | bytes, universe: PermissionUniverse) -> "GroundTruth":
        """Read back what ``dumps`` wrote (see the class docstring)."""
        root = _decode(text)

        def rows(key: str) -> list[list]:
            shape, out = _LEDGER_ROWS[key], []
            for i, row in enumerate(_expect(root, key, list, "$")):
                if type(row) is not list or len(row) != len(shape):
                    raise SchemaError(f"$.{key}[{i}]: want a list of {len(shape)} fields")
                out.append([  # an id, bool or string of the right type is taken as it is
                    v if type(v) is _SCALARS.get(kind)
                    else _load_cell(kind, v, universe, f"$.{key}[{i}][{j}]")
                    for j, (kind, v) in enumerate(zip(shape, row))
                ])
            return out

        eval_ts = _expect(root, "eval_timestamp", str, "$")
        users = rows("users")
        return cls(
            _load_cell("t", eval_ts, universe, "$.eval_timestamp"),
            {u: roles for u, _, roles in users},
            {u: account for u, account, _ in users},
            [Grant(*row) for row in rows("grants")],
            dict(rows("resource_types")),
            [ChainRecord(*row) for row in rows("chains")],
            [ExcessRecord(*row) for row in rows("excess")],
        )


# Ledger row shapes, one letter per field: i an id, b a bool, s a string,
# t a timestamp, I a list of ids, S a list of strings, p permission names
# (held as a mask), w null or a [start, end] window.
_LEDGER_ROWS = {"users": "isI", "grants": "iipiwbS", "resource_types": "iI",
                "chains": "iiiiipII", "excess": "iipiI"}
# shape -> (JSON type, shape of each item)
_CELLS = {"i": (int, ""), "b": (bool, ""), "s": (str, ""), "t": (str, ""),
          "I": (list, "i"), "S": (list, "s"), "p": (list, "s"), "w": (list, "t")}
_SCALARS = {"i": int, "b": bool, "s": str}


def _load_cell(kind: str, value: Any, universe: PermissionUniverse, where: str) -> Any:
    """A ledger field of shape ``kind``, checked; errors name it by ``where``."""
    want, item = _CELLS[kind]
    if type(value) is not want:
        if kind == "w" and value is None:
            return None
        raise SchemaError(f"{where}: want {want.__name__}, got {type(value).__name__}")
    if kind == "t":
        try:
            return as_utc(parse_rfc3339(value))
        except SchemaError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    if not item:
        return value
    if kind == "w" and len(value) != 2:
        raise SchemaError(f"{where}: want null or [start, end]")
    scalar = _SCALARS.get(item)
    if scalar is None or any(type(v) is not scalar for v in value):
        value = [_load_cell(item, v, universe, f"{where}[{j}]") for j, v in enumerate(value)]
    items = tuple(value)
    try:
        return universe.mask_of(items) if kind == "p" else items
    except UnknownPermission as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _type_census(cfg: GenConfig) -> tuple[int, int]:
    """(production type count, reserved dev canary count)."""
    n = cfg.n_resource_types
    want_prod = cfg.injected_chains > 0
    prod = max(3, round(0.2 * n)) if n >= 5 else (1 if want_prod else 0)
    reserved = (1 if cfg.pct_temporal > 0 else 0) + (1 if cfg.pct_scoped > 0 else 0)
    if n - prod - reserved < 1:
        raise ConfigInvalid(
            f"{n} resource types cannot host {prod} production + "
            f"{reserved} reserved types and still leave one for ordinary grants"
        )
    return prod, reserved


class _Draft:
    """A policy under construction, with the ledger rows that describe it.

    Each step adds graph elements and their ledger rows together, so the
    ledger and the policy cannot drift apart. Only the injections draw random
    numbers; every other draw is the caller's, made before the step, so each
    profile keeps its own draw order.
    """

    def __init__(self, policy_class: str):
        self.policy = PolicyHypergraph()
        self.pc = self.policy.add_vertex(VertexKind.POLICY_CLASS, policy_class)
        self.resource_types: dict[VertexId, tuple[VertexId, ...]] = {}
        self.user_roles: dict[VertexId, tuple[VertexId, ...]] = {}
        self.user_account: dict[VertexId, str] = {}
        self.role_users: dict[VertexId, list[VertexId]] = {}  # roles with users only
        self.grants: list[Grant] = []
        self.chains: list[ChainRecord] = []
        self.excess: list[ExcessRecord] = []

    def resource(self, name: str, account: str, types: list[VertexId],
                 tags: Optional[dict[str, str]] = None) -> VertexId:
        """A resource assigned to ``types``; tags default to the first
        type's env and name."""
        if tags is None:
            first = self.policy.vertex(types[0])
            tags = {"env": first.tags["env"], "type": first.name}
        rid = self.policy.add_vertex(VertexKind.RESOURCE, name, account=account, tags=tags)
        for tid in types:
            self.policy.add_assignment(rid, tid)
        self.resource_types[rid] = tuple(types)
        return rid

    def user(self, name: str, account: str, roles: list[VertexId]) -> VertexId:
        uid = self.policy.add_vertex(VertexKind.USER, name, account=account)
        for role in roles:
            self.policy.add_assignment(uid, role)
            self.role_users.setdefault(role, []).append(uid)
        self.user_roles[uid] = tuple(roles)
        self.user_account[uid] = account
        return uid

    def _associate(self, role: VertexId, tid: VertexId, mask: int, constraints=()) -> int:
        perms = PermissionSet(self.policy.universe, mask)
        return self.policy.add_association([role], [tid], self.pc, perms, constraints)

    def grant(self, role: VertexId, tid: VertexId, mask: int,
              window: Optional[tuple[datetime, datetime]] = None, scoped: bool = False) -> None:
        """An intended grant, with its ``Grant`` row."""
        constraints = [TimeWindow(*window)] if window else []
        if scoped:
            constraints.append(SameAccount())
        eid = self._associate(role, tid, mask, constraints)
        vertex = self.policy.vertex
        accounts = (vertex(role).account, vertex(tid).account) if scoped else ()
        self.grants.append(Grant(role, tid, mask, eid, window, scoped, accounts))

    def inject_chain(self, rng: Rng, sources: list[VertexId], target: VertexId,
                     prod_types: list[VertexId]) -> ChainRecord:
        """Assign a random role of ``sources`` to the grant-free ``target``,
        and grant ``target`` Read and Write on a random one of ``prod_types``
        that has resources."""
        if not sources:
            raise InsufficientEntities("no role with assigned users to chain from")
        filled = {t for types in self.resource_types.values() for t in types}
        populated = [t for t in prod_types if t in filled]
        if not populated:
            raise InsufficientEntities("no production type with resources to target")
        source = rng.choice(sources)
        tid = rng.choice(populated)
        mask = self.policy.universe.mask_of(["Read", "Write"])
        assoc = self._associate(target, tid, mask)
        assign = self.policy.add_assignment(source, target)
        finding = tuple(sorted(self.role_users.get(source, ())))
        affected = tuple(sorted(set(finding) | set(self.role_users.get(target, ()))))
        record = ChainRecord(assign, assoc, source, target, tid, mask, finding, affected)
        self.chains.append(record)
        return record

    def inject_excess(self, rng: Rng, count: int, exclude: tuple[VertexId, ...] = ()) -> None:
        """Give ``count`` granted roles, outside ``exclude``, a withheld
        permission on one of their granted types."""
        by_role: dict[VertexId, list[Grant]] = {}
        for g in self.grants:
            by_role.setdefault(g.role, []).append(g)
        eligible = sorted(r for r in by_role if r not in exclude)
        if count > len(eligible):
            raise InsufficientEntities(
                f"cannot inject {count} excess grants over {len(eligible)} granted roles"
            )
        universe = self.policy.universe
        for i, role in enumerate(sorted(rng.sample(eligible, count))):
            tid = rng.choice(by_role[role]).type_id
            mask = universe.mask_of(EXCESS_PERM_CYCLE[i % len(EXCESS_PERM_CYCLE)])
            eid = self._associate(role, tid, mask)
            users = tuple(self.role_users.get(role, ()))
            self.excess.append(ExcessRecord(role, tid, mask, eid, users))

    def finish(self) -> tuple[PolicyHypergraph, GroundTruth]:
        assert not self.policy.validate(), "generator produced an invalid policy"
        return self.policy, GroundTruth(EVAL_TS, self.user_roles, self.user_account, self.grants,
                                        self.resource_types, self.chains, self.excess)


def generate(cfg: GenConfig) -> tuple[PolicyHypergraph, GroundTruth]:
    """Deterministic policy + ground truth for the config's seed."""
    cfg.validate()
    if cfg.profile == "sqrt-grouping":
        return _generate_sqrt(cfg)
    return _generate_standard(cfg)


def _generate_standard(cfg: GenConfig) -> tuple[PolicyHypergraph, GroundTruth]:
    root = Rng(cfg.seed)
    draft = _Draft("cloud")
    policy = draft.policy

    prod_count, _reserved = _type_census(cfg)
    n_dev = cfg.n_resource_types - prod_count
    rng_t = root.split("types")
    type_ids = [
        policy.add_vertex(
            VertexKind.RESOURCE_ATTR,
            f"type-{i:02d}",
            account=rng_t.choice(ACCOUNTS),
            tags={"env": "production" if i >= n_dev else "development"},
        )
        for i in range(cfg.n_resource_types)
    ]
    dev_types, prod_types = type_ids[:n_dev], type_ids[n_dev:]
    jit_type = dev_types[0] if cfg.pct_temporal > 0 else None
    scoped_type = dev_types[1 if cfg.pct_temporal > 0 else 0] if cfg.pct_scoped > 0 else None
    base_types = [t for t in dev_types if t not in (jit_type, scoped_type)]

    rng_r = root.split("resources")
    width = max(4, len(str(max(cfg.n_resources, 1))))
    for i in range(cfg.n_resources):
        draft.resource(f"res-{i:0{width}d}", rng_r.choice(ACCOUNTS), [type_ids[i % len(type_ids)]])

    rng_role = root.split("roles")
    role_ids = [
        policy.add_vertex(VertexKind.USER_ATTR, f"role-{i:03d}", account=rng_role.choice(ACCOUNTS))
        for i in range(cfg.n_roles)
    ]
    # the last roles are reserved, grant-free, as chain targets
    n_base = cfg.n_roles - cfg.injected_chains
    base_roles, elevated = role_ids[:n_base], role_ids[n_base:]

    rng_u = root.split("users")
    rng_assign = root.split("assignments")
    lo, hi = ASSIGNMENTS_PER_USER
    uwidth = max(4, len(str(max(cfg.n_users, 1))))
    for i in range(cfg.n_users):
        acct = rng_u.choice(ACCOUNTS)
        mine = []
        if base_roles:
            k = rng_assign.randint(lo, min(hi, len(base_roles)))
            mine = sorted(rng_assign.sample(base_roles, k))
        draft.user(f"user-{i:0{uwidth}d}", acct, mine)

    universe = policy.universe
    rng_grant = root.split("grants")
    lo, hi = TYPES_PER_ROLE
    for role in base_roles if base_types else ():
        p = min(zipf_sample(rng_grant, MAX_PERMS_PER_ROLE, ZIPF_S), len(BASE_PERM_POOL))
        mask = universe.mask_of(rng_grant.sample(BASE_PERM_POOL, p))
        t = rng_grant.randint(lo, max(lo, min(hi, len(base_types))))
        for tid in sorted(rng_grant.sample(base_types, min(t, len(base_types)))):
            window = None
            if rng_grant.random() < cfg.pct_temporal:
                window = ACTIVE_WINDOW if rng_grant.random() < 0.5 else EXPIRED_WINDOW
            draft.grant(role, tid, mask, window, rng_grant.random() < cfg.pct_scoped)

    # Canary constrained grants on reserved types: deterministic false-positive
    # sources for the constraint-dropping baselines (see module docstring).
    roles_with_users = [r for r in base_roles if r in draft.role_users]
    read_mask = universe.mask_of(["Read"])
    if jit_type is not None and roles_with_users:
        draft.grant(roles_with_users[0], jit_type, read_mask, EXPIRED_WINDOW)
    if scoped_type is not None and roles_with_users:
        target_acct = policy.vertex(scoped_type).account
        pick = next(
            (r for r in roles_with_users if policy.vertex(r).account != target_acct),
            roles_with_users[0],
        )
        draft.grant(pick, scoped_type, read_mask, scoped=True)

    rng_chain = root.split("chains")
    for target in elevated:
        draft.inject_chain(rng_chain, roles_with_users, target, prod_types)
    # every granted role is a base role: elevated roles get no grants
    draft.inject_excess(root.split("excess"), cfg.injected_excess)
    return draft.finish()


def _generate_sqrt(cfg: GenConfig) -> tuple[PolicyHypergraph, GroundTruth]:
    """sqrt-grouping profile: ceil(sqrt(n)) groups each side, cross associated."""
    root = Rng(cfg.seed)
    draft = _Draft("cloud")
    policy = draft.policy
    g = max(1, math.isqrt(cfg.n_users - 1) + 1) if cfg.n_users > 1 else 1
    per_entity = max(1, round(g / 4))  # never above g

    rng_g = root.split("groups")
    ua_groups = [
        policy.add_vertex(
            VertexKind.USER_ATTR, f"ua-group-{i:03d}", account=rng_g.choice(ACCOUNTS)
        )
        for i in range(g)
    ]
    ra_groups = [
        policy.add_vertex(
            VertexKind.RESOURCE_ATTR,
            f"ra-group-{i:03d}",
            account=rng_g.choice(ACCOUNTS),
            tags={"env": "development"},
        )
        for i in range(g)
    ]

    rng_r = root.split("resources")
    width = max(4, len(str(max(cfg.n_resources, 1))))
    for i in range(cfg.n_resources):
        acct = rng_r.choice(ACCOUNTS)
        mine = sorted(rng_r.sample(ra_groups, per_entity))
        draft.resource(f"res-{i:0{width}d}", acct, mine, tags={"env": "development"})

    rng_u = root.split("users")
    uwidth = max(4, len(str(max(cfg.n_users, 1))))
    for i in range(cfg.n_users):
        acct = rng_u.choice(ACCOUNTS)
        draft.user(f"user-{i:0{uwidth}d}", acct, sorted(rng_u.sample(ua_groups, per_entity)))

    universe = policy.universe
    rng_grant = root.split("grants")
    for ua in ua_groups:
        for ra in ra_groups:
            p = min(zipf_sample(rng_grant, MAX_PERMS_PER_ROLE, ZIPF_S), len(BASE_PERM_POOL))
            draft.grant(ua, ra, universe.mask_of(rng_grant.sample(BASE_PERM_POOL, p)))
    return draft.finish()


FIXTURE_TYPE_NAMES = (
    "s3-bucket-dev-a",
    "s3-bucket-dev-b",
    "s3-bucket-dev-c",
    "s3-bucket-dev-d",
    "s3-bucket-dev-e",
    "s3-bucket-dev-f",
    "ec2-instance-dev-a",
    "ec2-instance-dev-b",
    "ec2-instance-dev-c",
    "ec2-instance-dev-d",
    "ec2-instance-dev-e",
    "shared-services",
    "s3-bucket-prod",
    "ec2-instance-prod",
    "rds-database",
)
FIXTURE_PROD_TYPES = ("s3-bucket-prod", "ec2-instance-prod", "rds-database")


def make_fixture_usecase() -> tuple[PolicyHypergraph, GroundTruth]:
    """Deterministic multi-account fixture: 250 users, 45 roles, 400
    resources over 15 types, with one injected role-chaining escalation
    (Alice, Developer -> PowerUser -> ProductionDB) and 8 injected
    over-privilege grants."""
    rng = Rng(0x20250601)
    draft = _Draft("aws")
    policy = draft.policy

    type_ids = {
        name: policy.add_vertex(
            VertexKind.RESOURCE_ATTR,
            name,
            account=rng.choice(ACCOUNTS),
            tags={"env": "production" if name in FIXTURE_PROD_TYPES else "development"},
        )
        for name in FIXTURE_TYPE_NAMES
    }
    dev_type_names = [n for n in FIXTURE_TYPE_NAMES if n not in FIXTURE_PROD_TYPES]

    def add_resource(name: str, type_name: str) -> None:
        draft.resource(name, rng.choice(ACCOUNTS), [type_ids[type_name]])

    add_resource("ProductionDB", "rds-database")
    s3_dev = [n for n in dev_type_names if n.startswith("s3-")]
    for i in range(1, 171):
        add_resource(f"bucket-{i:03d}", s3_dev[(i - 1) % len(s3_dev)])
    for i in range(171, 181):
        add_resource(f"bucket-{i:03d}", "s3-bucket-prod")
    ec2_dev = [n for n in dev_type_names if n.startswith("ec2-")]
    for i in range(1, 211):
        add_resource(f"instance-{i:03d}", ec2_dev[(i - 1) % len(ec2_dev)])
    for i in range(211, 220):
        add_resource(f"instance-{i:03d}", "ec2-instance-prod")

    developer = policy.add_vertex(VertexKind.USER_ATTR, "Developer", account=ACCOUNTS[0])
    power_user = policy.add_vertex(VertexKind.USER_ATTR, "PowerUser", account=ACCOUNTS[0])
    other_roles = [
        policy.add_vertex(
            VertexKind.USER_ATTR, f"role-{i:02d}", account=rng.choice(ACCOUNTS)
        )
        for i in range(2, 45)
    ]

    # Every user's account is drawn before any user's roles.
    user_accounts = [ACCOUNTS[0]] + [rng.choice(ACCOUNTS) for _ in range(1, 250)]
    for i, acct in enumerate(user_accounts):
        if i < 12:  # Alice plus eleven colleagues hold Developer
            mine = [developer]
        else:
            mine = sorted(rng.sample(other_roles, rng.randint(1, 3)))
        draft.user(f"user-{i:03d}" if i else "Alice", acct, mine)

    universe = policy.universe

    def add_grant(role: VertexId, type_name: str, perms: tuple[str, ...]) -> None:
        draft.grant(role, type_ids[type_name], universe.mask_of(perms))

    add_grant(developer, "s3-bucket-dev-a", ("Read", "List"))
    add_grant(developer, "s3-bucket-dev-b", ("Read", "Write", "List"))
    perm_menu = (("Read",), ("Read", "List"), ("Read", "Write"), ("Read", "Write", "List"))
    for role in other_roles:
        for type_name in sorted(rng.sample(dev_type_names, rng.randint(2, 4))):
            add_grant(role, type_name, perm_menu[rng.u64() % len(perm_menu)])

    # The unintended role inheritance: Developer chains into the grant-free
    # PowerUser role, which alone reaches the production database type.
    draft.inject_chain(rng, [developer], power_user, [type_ids["rds-database"]])
    draft.inject_excess(rng, 8, exclude=(developer,))
    return draft.finish()
