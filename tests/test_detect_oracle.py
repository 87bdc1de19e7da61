"""Attribute-granular over-privilege detection against the resource-granular pass.

``detect_over_privileged_by_resource`` is the earlier implementation, kept
verbatim as the reference: it expands every grant to every resource below
it and compares masks one resource at a time. The fast pass must render
byte-equal findings given the same requirements, where the reference gets
them expanded to resources, either from the generator's ledger or through
the graph by a linear edge scan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from datetime import timedelta

import pytest

from hyperpam.core import HyperedgeKind, PolicyHypergraph, SameAccount, TimeWindow, VertexId, VertexKind
from hyperpam.detect import RequiredPermissions, detect_over_privileged, findings_to_jsonl
from hyperpam.engine import DEFAULT_MAX_DEPTH, EvaluationContext, effective_permission_map
from hyperpam.errors import GroundTruthMismatch
from hyperpam.generator import EPOCH, EVAL_TS, config_for_scale, generate, make_fixture_usecase
from hyperpam.perm import PermissionSet
from hyperpam.rng import Rng

from .builders import random_context, random_policy
from .oracle import constraints_hold


@dataclass(frozen=True)
class OverPrivilegeFinding:
    subject: VertexId
    granted: dict[VertexId, PermissionSet]
    required: dict[VertexId, PermissionSet]
    excess: dict[VertexId, PermissionSet]


def detect_over_privileged_by_resource(
    policy: PolicyHypergraph,
    ground_truth: RequiredPermissions,
    ctx: EvaluationContext,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[OverPrivilegeFinding]:
    """Subjects whose effective permissions strictly exceed the required facts."""
    memo: dict = {}
    findings: list[OverPrivilegeFinding] = []
    for subject in sorted(ground_truth.by_subject):
        if not policy.has_vertex(subject):
            raise GroundTruthMismatch(f"ground truth names unknown vertex {subject}")
        required = ground_truth.by_subject[subject]
        for rid in required:
            if not policy.has_vertex(rid):
                raise GroundTruthMismatch(f"ground truth names unknown vertex {rid}")
        kind = policy.vertex(subject).kind
        if kind not in (VertexKind.USER, VertexKind.USER_ATTR):
            raise GroundTruthMismatch(
                f"subject {subject} is a {kind.value}, wants user or user attribute"
            )
        granted = effective_permission_map(
            policy, subject, ctx, max_depth, _descend_memo=memo
        )
        excess = {}
        for rid, mask in sorted(granted.items()):
            extra = mask & ~required.get(rid, 0)
            if extra:
                excess[rid] = extra
        if excess:
            uni = policy.universe
            findings.append(
                OverPrivilegeFinding(
                    subject,
                    {r: PermissionSet(uni, m) for r, m in sorted(granted.items())},
                    {r: PermissionSet(uni, m) for r, m in sorted(required.items())},
                    {r: PermissionSet(uni, m) for r, m in excess.items()},
                )
            )
    return findings


def required_from_ledger(gt, ctx: EvaluationContext) -> RequiredPermissions:
    """Per role and per user, the ledger's grants expanded to their resources."""
    by_subject: dict[VertexId, dict[VertexId, int]] = {}
    role_masks: dict[VertexId, dict[VertexId, int]] = {}
    for role, grants in gt._grants_by_role.items():
        acc: dict[VertexId, int] = {}
        for g in grants:
            if not g.satisfied(ctx):
                continue
            for rid in gt.resources_by_type.get(g.type_id, ()):
                acc[rid] = acc.get(rid, 0) | g.mask
        role_masks[role] = acc
        by_subject[role] = acc
    for user, roles in gt.user_roles.items():
        acc = {}
        for role in roles:
            for rid, mask in role_masks.get(role, {}).items():
                acc[rid] = acc.get(rid, 0) | mask
        by_subject[user] = acc
    return RequiredPermissions(by_subject)


def required_through_graph(
    policy: PolicyHypergraph, required: RequiredPermissions, ctx: EvaluationContext
) -> RequiredPermissions:
    """Each attribute entry copied onto every resource below it (linear edge scans)."""
    live = [
        e
        for e in policy.edges()
        if e.kind is HyperedgeKind.ASSIGNMENT and e.active and constraints_hold(policy, e, ctx)
    ]
    by_subject = {}
    for subject, entries in required.by_subject.items():
        acc: dict[VertexId, int] = {}
        for key, mask in entries.items():
            seen, frontier = {key}, [key]
            while frontier:
                v = frontier.pop()
                if policy.vertex(v).kind is VertexKind.RESOURCE:
                    acc[v] = acc.get(v, 0) | mask
                    continue
                for e in live:
                    if e.head == v and e.tail not in seen:
                        seen.add(e.tail)
                        frontier.append(e.tail)
        by_subject[subject] = acc
    return RequiredPermissions(by_subject)


def _assert_same(policy, required, expanded, ctx, max_depth=DEFAULT_MAX_DEPTH) -> str:
    fast = detect_over_privileged(policy, required, ctx, max_depth)
    ref = detect_over_privileged_by_resource(policy, expanded, ctx, max_depth)
    out = findings_to_jsonl(policy, over_privileged=fast)
    assert out == findings_to_jsonl(policy, over_privileged=ref)
    return out


def _thinned(gt, every: int):
    """The ledger minus every ``every``-th grant, so those grants become excess."""
    kept = [g for i, g in enumerate(gt.grants) if i % every]
    return replace(gt, grants=kept)


@pytest.mark.parametrize(
    "profile,n,seed",
    [
        ("standard", 200, 1),
        ("standard", 500, 7),
        ("standard", 300, 1234),
        ("sqrt-grouping", 150, 1),
        ("sqrt-grouping", 300, 7),
    ],
)
def test_generated_policies_match_resource_granular_pass(profile, n, seed):
    policy, gt = generate(config_for_scale(n, seed=seed, profile=profile))
    ctx = gt.context_for(0)
    for ledger in (gt, _thinned(gt, 7)):
        out = _assert_same(
            policy, ledger.required_permissions(ctx), required_from_ledger(ledger, ctx), ctx
        )
        if ledger is not gt or profile == "standard":
            assert out, "case must produce findings to compare"


def test_fixture_matches_resource_granular_pass():
    policy, gt = make_fixture_usecase()
    for user in (0, max(gt.user_roles)):
        ctx = gt.context_for(user)
        out = _assert_same(
            policy, gt.required_permissions(ctx), required_from_ledger(gt, ctx), ctx
        )
        assert out


@pytest.mark.parametrize("seed", range(60))
def test_random_policies_match_resource_granular_pass(seed):
    rng = Rng(90_210 + seed)
    policy = random_policy(rng)
    ctx = random_context(rng)
    names = policy.universe.names
    targets = [
        v.id
        for v in policy.vertices()
        if v.kind in (VertexKind.RESOURCE, VertexKind.RESOURCE_ATTR)
    ]
    subjects = [
        v.id for v in policy.vertices() if v.kind in (VertexKind.USER, VertexKind.USER_ATTR)
    ]
    by_subject = {}
    for s in subjects:
        picks = rng.sample(targets, rng.randint(0, min(3, len(targets))))
        by_subject[s] = {
            t: policy.universe.mask_of(rng.sample(list(names), rng.randint(1, 4)))
            for t in picks
        }
    required = RequiredPermissions(by_subject)
    for depth in (2, 3, DEFAULT_MAX_DEPTH):
        _assert_same(policy, required, required_through_graph(policy, required, ctx), ctx, depth)
    inherited = RequiredPermissions(by_subject, _random_inherits(rng, policy, subjects))
    flat = required_through_graph(policy, flattened(inherited), ctx)
    for depth in (2, 3, DEFAULT_MAX_DEPTH):
        _assert_same(policy, inherited, flat, ctx, depth)


def flattened(required: RequiredPermissions) -> RequiredPermissions:
    """Each subject's entries OR-ed with those of every subject it inherits."""
    by_subject = {}
    for subject, entries in required.by_subject.items():
        acc = dict(entries)
        for head in required.inherits.get(subject, ()):
            for key, mask in required.by_subject[head].items():
                acc[key] = acc.get(key, 0) | mask
        by_subject[subject] = acc
    return RequiredPermissions(by_subject)


def _random_inherits(rng: Rng, policy: PolicyHypergraph, subjects: list) -> dict:
    """One-level inheritance: about half the subjects are heads; most others
    list heads they are assigned to (live or not) and heads they are not,
    user attributes and users alike."""
    heads = [s for s in subjects if rng.random() < 0.5]
    inherits = {}
    for s in subjects:
        if s in heads or rng.random() < 0.25:
            continue
        held = [h for _, h in policy.assignments_from(s) if h in heads]
        others = [h for h in heads if h not in held]
        picks = rng.sample(held, rng.randint(0, len(held)))
        picks += rng.sample(others, rng.randint(0, min(2, len(others))))
        inherits[s] = tuple(picks)
    return inherits


CTX = EvaluationContext(EVAL_TS, "acct-a")


class _Case:
    """A small policy with one user ``u`` holding role ``ua``."""

    def __init__(self):
        self.p = PolicyHypergraph()
        self.pc = self.p.add_vertex(VertexKind.POLICY_CLASS, "pc")
        self.u = self.p.add_vertex(VertexKind.USER, "u", "acct-a")
        self.ua = self.p.add_vertex(VertexKind.USER_ATTR, "ua", "acct-a")
        self.p.add_assignment(self.u, self.ua)

    def ra(self, name):
        return self.p.add_vertex(VertexKind.RESOURCE_ATTR, name, "acct-a")

    def r(self, name, *attrs):
        rid = self.p.add_vertex(VertexKind.RESOURCE, name, "acct-a")
        for a in attrs:
            self.p.add_assignment(rid, a)
        return rid

    def grant(self, targets, perms, constraints=(), role=None):
        return self.p.add_association(
            [role or self.ua], list(targets), self.pc, list(perms), list(constraints)
        )

    def mask(self, *perms):
        return self.p.universe.mask_of(perms)

    def excess(self, required, max_depth=DEFAULT_MAX_DEPTH, ctx=CTX, inherits=None):
        """Check against the reference; return {subject name: {resource name: ops}}."""
        req = RequiredPermissions(required, inherits or {})
        flat = required_through_graph(self.p, flattened(req), ctx)
        _assert_same(self.p, req, flat, ctx, max_depth)
        vertex = self.p.vertex
        return {
            vertex(f.subject).name: {vertex(r).name: p.names() for r, p in f.excess.items()}
            for f in detect_over_privileged(self.p, req, ctx, max_depth)
        }


def test_resource_under_two_attributes_requires_both_entries():
    c = _Case()
    a, b = c.ra("a"), c.ra("b")
    c.r("shared", a, b)
    c.r("only_a", a)
    c.grant([a], ["Read", "Write"])
    req = {c.ua: {a: c.mask("Read"), b: c.mask("Write")}}
    assert c.excess(req) == {"ua": {"only_a": ("Write",)}}


def test_entry_on_parent_attribute_covers_child_grants():
    c = _Case()
    parent, child = c.ra("parent"), c.ra("child")
    c.p.add_assignment(child, parent)
    c.r("leaf", child)
    c.grant([child], ["Read"])
    c.grant([parent], ["Read"])
    req = {c.ua: {parent: c.mask("Read")}}
    assert c.excess(req) == {}
    c.grant([child], ["Write"])
    assert c.excess(req) == {"ua": {"leaf": ("Write",)}}


def test_direct_resource_association():
    c = _Case()
    a = c.ra("a")
    r = c.r("r", a)
    # an association needs one resource attribute; "empty" has no resources
    c.grant([c.ra("empty"), r], ["Read", "Delete"])
    assert c.excess({c.ua: {a: c.mask("Read")}}) == {"ua": {"r": ("Delete",)}}
    assert c.excess({c.ua: {r: c.mask("Read", "Delete")}}) == {}


def test_role_chain_respects_the_depth_budget():
    c = _Case()
    upper = c.p.add_vertex(VertexKind.USER_ATTR, "upper", "acct-a")
    c.p.add_assignment(c.ua, upper)
    a = c.ra("a")
    deep_attr = c.ra("deep_attr")
    c.p.add_assignment(deep_attr, a)
    c.r("near", a)
    c.r("deep", deep_attr)
    direct = c.r("direct")
    c.grant([a, direct], ["Write"], role=upper)
    # u -> ua -> upper -> a -> near is four edges, so at depth 3 only the
    # directly granted resource is in reach of the user
    assert c.excess({c.u: {}, c.ua: {}, upper: {}}, max_depth=3) == {
        "u": {"direct": ("Write",)},
        "ua": {"direct": ("Write",), "near": ("Write",)},
        "upper": {"deep": ("Write",), "direct": ("Write",), "near": ("Write",)},
    }


def test_expired_window_grants_nothing():
    c = _Case()
    a = c.ra("a")
    c.r("r", a)
    c.grant([a], ["Delete"], [TimeWindow(EPOCH, EPOCH + timedelta(days=1))])
    c.grant([a], ["Read"], [TimeWindow(EPOCH, EVAL_TS + timedelta(days=1))])
    assert c.excess({c.ua: {a: c.mask("Read")}}) == {}
    assert c.excess({c.u: {}, c.ua: {}}) == {"u": {"r": ("Read",)}, "ua": {"r": ("Read",)}}


def test_same_account_grant_follows_the_acting_account():
    c = _Case()
    a = c.ra("a")
    c.r("r", a)
    c.grant([a], ["Write"], [SameAccount()])
    req = {c.ua: {a: c.mask("Read")}}
    assert c.excess(req) == {"ua": {"r": ("Write",)}}
    assert c.excess(req, ctx=EvaluationContext(EVAL_TS, "acct-b")) == {}


def test_deactivated_type_assignment_drops_the_requirement():
    c = _Case()
    a, b = c.ra("a"), c.ra("b")
    r = c.r("r", b)
    off = c.p.add_assignment(r, a)
    c.grant([b], ["Read", "Write"])
    req = {c.ua: {a: c.mask("Write"), b: c.mask("Read")}}
    assert c.excess(req) == {}
    c.p.set_active(off, False)
    assert c.excess(req) == {"ua": {"r": ("Write",)}}


def test_required_keys_must_be_resources_or_resource_attributes():
    c = _Case()
    wrong_kind = f"required key {c.ua} is a user_attr, wants resource or resource attribute"
    _mismatch(c, {c.u: {c.ua: 1}}, {}, wrong_kind)
    _mismatch(c, {c.u: {10_000_000: 1}}, {}, "ground truth names unknown vertex 10000000")


def test_inherited_head_held_through_a_dead_assignment_grants_nothing():
    c = _Case()
    a = c.ra("a")
    c.r("r", a)
    c.grant([a], ["Read", "Write"])
    lapsed = c.p.add_vertex(VertexKind.USER, "lapsed", "acct-a")
    c.p.add_raw_hyperedge(
        HyperedgeKind.ASSIGNMENT, (lapsed, c.ua), (),
        [TimeWindow(EPOCH, EPOCH + timedelta(days=1))],
    )
    off = c.p.add_vertex(VertexKind.USER, "off", "acct-a")
    c.p.set_active(c.p.add_assignment(off, c.ua), False)
    required = {c.ua: {a: c.mask("Read")}, c.u: {}, lapsed: {}, off: {}}
    inherits = {c.u: (c.ua,), lapsed: (c.ua,), off: (c.ua,)}
    assert c.excess(required, inherits=inherits) == {
        "ua": {"r": ("Write",)},
        "u": {"r": ("Write",)},
    }
    # the holder's own requirement still counts against the inherited grants
    required[c.u] = {a: c.mask("Write")}
    assert c.excess(required, inherits=inherits) == {"ua": {"r": ("Write",)}}


def test_holder_checks_its_own_and_uninherited_grants():
    c = _Case()
    other = c.p.add_vertex(VertexKind.USER_ATTR, "other", "acct-a")
    c.p.add_assignment(c.u, other)
    a = c.ra("a")
    c.r("r", a)
    c.grant([a], ["Read"])
    c.grant([a], ["Write"], role=other)
    c.p.add_association([c.ua, c.u], [a], c.pc, ["Delete"])
    required = {c.ua: {a: c.mask("Read", "Delete")}, other: {a: c.mask("Write")}, c.u: {}}
    assert c.excess(required, inherits={c.u: (c.ua,)}) == {"u": {"r": ("Write",)}}
    assert c.excess(required, inherits={c.u: (c.ua, other)}) == {}
    assert c.excess(required, inherits={c.u: (other,)}) == {"u": {"r": ("Read", "Delete")}}
    # u -> a -> r is two edges; u -> ua -> a -> r is three
    assert c.excess(required, max_depth=2, inherits={c.u: (other,)}) == {"u": {"r": ("Delete",)}}
    assert c.excess(required, max_depth=1, inherits={c.u: (other,)}) == {}


def _mismatch(c: _Case, by_subject, inherits, message: str):
    with pytest.raises(GroundTruthMismatch, match=f"^{re.escape(message)}$"):
        detect_over_privileged(c.p, RequiredPermissions(by_subject, inherits), CTX)


def test_inherits_must_name_subjects_that_do_not_inherit():
    c = _Case()
    a = c.ra("a")
    upper = c.p.add_vertex(VertexKind.USER_ATTR, "upper", "acct-a")
    both = {c.u: {}, c.ua: {}, upper: {}}
    not_subject = "inherits names {}, which is not a subject".format
    not_user = f"subject {a} is a resource_attr, wants user or user attribute"
    # unknown key
    _mismatch(c, both, {10_000_000: (c.ua,)}, not_subject(10_000_000))
    # key is no user or user attribute
    _mismatch(c, {**both, a: {}}, {a: (c.ua,)}, not_user)
    _mismatch(c, {**both, a: {}}, {}, not_user)  # the same, as a subject
    _mismatch(c, {c.ua: {}}, {c.u: (c.ua,)}, not_subject(c.u))  # key has no requirement
    _mismatch(c, both, {c.u: (10_000_000,)}, not_subject(10_000_000))  # unknown value
    _mismatch(c, both, {c.u: (a,)}, not_subject(a))  # value is no user or user attribute
    _mismatch(c, {c.u: {}}, {c.u: (c.ua,)}, not_subject(c.ua))  # value has no requirement
    # value inherits in turn
    _mismatch(
        c, both, {c.u: (c.ua,), c.ua: (upper,)}, f"{c.u} inherits {c.ua}, which inherits in turn"
    )
    # a subject inheriting itself
    _mismatch(c, both, {c.u: (c.u,)}, f"{c.u} inherits {c.u}, which inherits in turn")
    detect_over_privileged(c.p, RequiredPermissions(both, {c.u: (c.ua, upper)}), CTX)


def materialized_required_permissions(gt, ctx: EvaluationContext) -> RequiredPermissions:
    """The ledger's requirement with each user's roles OR-ed into its own entries."""
    by_subject: dict[VertexId, dict[VertexId, int]] = {}
    role_masks: dict[VertexId, dict[VertexId, int]] = {}
    for role, grants in gt._grants_by_role.items():
        acc: dict[VertexId, int] = {}
        for g in grants:
            if g.satisfied(ctx):
                acc[g.type_id] = acc.get(g.type_id, 0) | g.mask
        role_masks[role] = acc
        by_subject[role] = acc
    for user, roles in gt.user_roles.items():
        acc = {}
        for role in roles:
            for tid, mask in role_masks.get(role, {}).items():
                acc[tid] = acc.get(tid, 0) | mask
        by_subject[user] = acc
    return RequiredPermissions(by_subject)


@pytest.mark.parametrize(
    "profile,n,seed",
    [("standard", 300, 1), ("standard", 500, 1234), ("sqrt-grouping", 300, 7)],
)
def test_ledger_requirement_flattens_to_the_materialized_one(profile, n, seed):
    policy, gt = generate(config_for_scale(n, seed=seed, profile=profile))
    for ledger in (gt, _thinned(gt, 7)):
        for user in (0, max(gt.user_roles)):
            for ctx in (gt.context_for(user), EvaluationContext(EPOCH, "")):
                required = ledger.required_permissions(ctx)
                assert all(not required.by_subject[u] for u in gt.user_roles)
                assert flattened(required) == materialized_required_permissions(ledger, ctx)
    policy, gt = make_fixture_usecase()
    ctx = gt.context_for(0)
    assert flattened(gt.required_permissions(ctx)) == materialized_required_permissions(gt, ctx)
