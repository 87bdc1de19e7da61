"""Malformed policy, IAM and ground-truth documents of any shape end in a
PolicyError.

Each loader is fed mutations of a valid document: a value anywhere in the
JSON tree replaced by arbitrary JSON or deleted, or a slice of its bytes
overwritten. Whatever the loader makes of the input, nothing but a
``PolicyError`` may escape. ``load_policy`` decodes a file's bytes itself,
so it is fed the same inputs through a file. A ground-truth ledger that
loads is also put to use: its required permissions drive the over-privilege
pass over the policy it was made for.
"""

from __future__ import annotations

import copy
import json
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperpam.core import ApprovalRequired, PolicyHypergraph, SameAccount, TimeWindow, VertexKind
from hyperpam.detect import detect_over_privileged
from hyperpam.errors import ParseError, PolicyError
from hyperpam.generator import EPOCH, GroundTruth, make_fixture_usecase
from hyperpam.ingest import parse_iam, to_hypergraph
from hyperpam.serialize import constraint_to_obj, dumps_policy, load_policy, loads_policy

FUZZ = settings(max_examples=150, deadline=timedelta(seconds=2))

CONSTRAINTS = [SameAccount(), TimeWindow(EPOCH, EPOCH + timedelta(hours=2)), ApprovalRequired("t")]


def _policy_document() -> dict:
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    u = p.add_vertex(VertexKind.USER, "u", "a")
    role = p.add_vertex(VertexKind.USER_ATTR, "role", "a")
    boss = p.add_vertex(VertexKind.USER_ATTR, "boss", "a")
    r = p.add_vertex(VertexKind.RESOURCE, "r", "a", {"env": "production"})
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra", "a")
    p.add_assignment(u, role)
    p.add_assignment(role, boss)
    p.add_assignment(r, ra)
    p.add_association([boss], [ra], pc, ["Read", "Write"], CONSTRAINTS)
    return json.loads(dumps_policy(p))


POLICY = _policy_document()

IAM = {
    "users": [{"name": "Alice", "account": "a", "tags": {"team": "x"}}],
    "roles": [
        {"name": "Dev", "account": "a", "assumable_by": ["Alice"]},
        {"name": "Ops", "account": "a", "assumable_by": ["Dev"]},
    ],
    "policies": [
        {
            "role": "Ops",
            "actions": ["s3:GetObject", "s3:PutObject"],
            "resources": ["b*"],
            "policy_class": "AWS",
            "constraints": [constraint_to_obj(c) for c in CONSTRAINTS],
        }
    ],
    "resources": [{"name": "b1", "account": "a", "type": "s3", "tags": {"env": "prod"}}],
}

def _fixture_ledger():
    """The fixture policy, and its ledger trimmed to Alice, one colleague,
    the grants of their roles, a few resources, the chain and one excess."""
    policy, gt = make_fixture_usecase()
    users = list(gt.user_roles)[:2]
    roles = {r for u in users for r in gt.user_roles[u]} | {gt.excess[0].role}
    trimmed = GroundTruth(
        gt.eval_timestamp,
        {u: gt.user_roles[u] for u in users},
        {u: gt.user_account[u] for u in users},
        [g for g in gt.grants if g.role in roles],
        dict(list(gt.resource_types.items())[:3]),
        gt.chains,
        gt.excess[:1],
    )
    return policy, json.loads(trimmed.dumps(policy.universe.names))


FIXTURE, LEDGER = _fixture_ledger()

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated(draw, doc: dict) -> str:
    """``doc`` with one to three values replaced or deleted, as JSON text."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        # descend with probability 3/4 per level, so leaves are reached often
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            doc = draw(JSON)
        elif draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON)
    return json.dumps(doc)


@st.composite
def spliced(draw, doc: dict) -> bytes:
    """``doc``'s bytes with one slice overwritten by arbitrary bytes."""
    raw = json.dumps(doc).encode()
    i = draw(st.integers(0, len(raw)))
    j = draw(st.integers(i, min(len(raw), i + 8)))
    return raw[:i] + draw(st.binary(max_size=8)) + raw[j:]


def _only_policy_errors(load, data) -> None:
    try:
        load(data)
    except PolicyError:
        pass


DEEP = "[" * 100_000 + "]" * 100_000
POLICY_INPUTS = mutated(POLICY) | spliced(POLICY) | st.binary(max_size=32)


@FUZZ
@given(POLICY_INPUTS)
@example(b"\x80{}")
@example(DEEP)
def test_loads_policy_raises_only_policy_errors(data):
    _only_policy_errors(loads_policy, data)


@FUZZ
@given(POLICY_INPUTS)
@example(b"\x80{}")
@example(DEEP)
def test_load_policy_raises_only_policy_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-policy.json"
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    _only_policy_errors(load_policy, str(path))


def test_load_policy_reads_invalid_utf8_as_a_parse_error(tmp_path):
    path = tmp_path / "policy.json"
    path.write_bytes(b"\x80{}")
    with pytest.raises(ParseError):
        load_policy(str(path))


@FUZZ
@given(mutated(IAM) | spliced(IAM) | st.binary(max_size=32))
@example(b"\x80{}")
@example(DEEP)
def test_parse_iam_and_lowering_raise_only_policy_errors(data):
    _only_policy_errors(lambda d: to_hypergraph(parse_iam(d)), data)


def test_seed_documents_load():
    assert loads_policy(json.dumps(POLICY)).edge_count == 4
    assert to_hypergraph(parse_iam(json.dumps(IAM))).vertex_count == 6


def _audit_with_ledger(data) -> None:
    gt = GroundTruth.loads(data, FIXTURE.universe)
    ctx = gt.context_for(next(iter(gt.user_roles), 0))
    detect_over_privileged(FIXTURE, gt.required_permissions(ctx), ctx)


@FUZZ
@given(mutated(LEDGER) | spliced(LEDGER) | st.binary(max_size=32))
@example(b"\x80{}")
@example(DEEP)
def test_ground_truth_loader_and_over_privilege_raise_only_policy_errors(data):
    _only_policy_errors(_audit_with_ledger, data)


def test_seed_ledger_audits():
    gt = GroundTruth.loads(json.dumps(LEDGER), FIXTURE.universe)
    ctx = gt.context_for(next(iter(gt.user_roles)))
    assert detect_over_privileged(FIXTURE, gt.required_permissions(ctx), ctx)
