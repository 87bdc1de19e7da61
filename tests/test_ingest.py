"""IAM document parsing and lowering onto the hypergraph."""

from __future__ import annotations

import json

import pytest

from hyperpam.cli import main
from hyperpam.core import HyperedgeKind, VertexKind
from hyperpam.engine import EvaluationContext, PrivilegeQuery, check_privilege
from hyperpam.errors import ParseError, SchemaError, UnknownAction, UnresolvedReference
from hyperpam.generator import EPOCH
from hyperpam.ingest import parse_iam, to_hypergraph
from hyperpam.rng import Rng
from hyperpam.serialize import dumps_policy, loads_policy

CTX = EvaluationContext(EPOCH, "acct-dev")

MINIMAL = {
    "users": [{"name": "Alice", "account": "acct-dev"}],
    "roles": [{"name": "Developer", "account": "acct-dev", "assumable_by": ["Alice"]}],
    "policies": [
        {
            "role": "Developer",
            "actions": ["s3:GetObject"],
            "resources": ["Bucket123"],
            "policy_class": "AWS",
        }
    ],
    "resources": [
        {"name": "Bucket123", "account": "acct-dev", "type": "s3-bucket"}
    ],
}


def test_parse_minimal_document():
    doc = parse_iam(json.dumps(MINIMAL))
    assert len(doc.users) == 1 and len(doc.roles) == 1 and len(doc.resources) == 1
    assert doc.policies[0].actions == ("s3:GetObject",)


def test_missing_section_names_path():
    broken = {k: v for k, v in MINIMAL.items() if k != "roles"}
    with pytest.raises(SchemaError, match="roles"):
        parse_iam(json.dumps(broken))


def test_bad_json_and_size_limit():
    with pytest.raises(ParseError):
        parse_iam(b"{not json")
    import hyperpam.ingest as ingest_mod

    old = ingest_mod.MAX_DOCUMENT_BYTES
    ingest_mod.MAX_DOCUMENT_BYTES = 16
    try:
        with pytest.raises(ParseError, match="limit"):
            parse_iam(json.dumps(MINIMAL))
    finally:
        ingest_mod.MAX_DOCUMENT_BYTES = old


def test_lowering_builds_expected_hyperedges():
    policy = to_hypergraph(parse_iam(json.dumps(MINIMAL)))
    alice = policy.vertex_named(VertexKind.USER, "Alice").id
    dev = policy.vertex_named(VertexKind.USER_ATTR, "Developer").id
    bucket = policy.vertex_named(VertexKind.RESOURCE, "Bucket123").id
    s3 = policy.vertex_named(VertexKind.RESOURCE_ATTR, "s3-bucket").id
    pc = policy.vertex_named(VertexKind.POLICY_CLASS, "AWS").id

    assigns = [e for e in policy.edges() if e.kind is HyperedgeKind.ASSIGNMENT]
    assocs = [e for e in policy.edges() if e.kind is HyperedgeKind.ASSOCIATION]
    assert {(e.tail, e.head) for e in assigns} == {(alice, dev), (bucket, s3)}
    assert len(assocs) == 1
    e2 = assocs[0]
    assert set(e2.members) == {dev, s3, pc}
    assert policy.universe.names_of(e2.perm_mask) == ("Read",)

    d = check_privilege(policy, PrivilegeQuery(alice, "Read", bucket, CTX))
    assert d.allowed
    names = [policy.vertex(v).name for v in d.witness.vertices]
    assert names == ["Alice", "Developer", "s3-bucket", "Bucket123"]


def test_role_chaining_and_passrole_mapping():
    doc = dict(MINIMAL)
    doc["roles"] = [
        {"name": "Developer", "account": "acct-dev", "assumable_by": ["Alice"]},
        {"name": "Deployer", "account": "acct-dev", "assumable_by": ["Developer"]},
    ]
    doc["policies"] = [
        {
            "role": "Deployer",
            "actions": ["iam:PassRole", "ec2:RunInstances"],
            "resources": ["Bucket*"],
            "policy_class": "AWS",
        }
    ]
    policy = to_hypergraph(parse_iam(json.dumps(doc)))
    assoc = next(
        e for e in policy.edges() if e.kind is HyperedgeKind.ASSOCIATION
    )
    assert set(policy.universe.names_of(assoc.perm_mask)) == {
        "PassRole",
        "RunInstances",
    }
    alice = policy.vertex_named(VertexKind.USER, "Alice").id
    bucket = policy.vertex_named(VertexKind.RESOURCE, "Bucket123").id
    assert check_privilege(
        policy, PrivilegeQuery(alice, "PassRole", bucket, CTX)
    ).allowed


def test_self_assumable_role_rejected():
    doc = dict(MINIMAL)
    doc["roles"] = [{"name": "Developer", "assumable_by": ["Developer"]}]
    with pytest.raises(UnresolvedReference, match="itself"):
        to_hypergraph(parse_iam(json.dumps(doc)))


def test_unknown_principal_and_action_and_pattern():
    doc = dict(MINIMAL)
    doc["roles"] = [{"name": "Developer", "assumable_by": ["Ghost"]}]
    with pytest.raises(UnresolvedReference, match="Ghost"):
        to_hypergraph(parse_iam(json.dumps(doc)))

    doc = dict(MINIMAL)
    doc["policies"] = [
        {"role": "Developer", "actions": ["s3:Yodel"], "resources": ["Bucket123"]}
    ]
    with pytest.raises(UnknownAction):
        to_hypergraph(parse_iam(json.dumps(doc)))

    doc = dict(MINIMAL)
    doc["policies"] = [
        {"role": "Developer", "actions": ["s3:GetObject"], "resources": ["nope-*"]}
    ]
    with pytest.raises(UnresolvedReference, match="nope-"):
        to_hypergraph(parse_iam(json.dumps(doc)))


def test_round_trip_is_idempotent_from_the_hypergraph_onward():
    policy = to_hypergraph(parse_iam(json.dumps(MINIMAL)))
    text = dumps_policy(policy)
    again = dumps_policy(loads_policy(text))
    assert again == text


def _policy_with_constraints(constraints) -> str:
    obj = json.loads(dumps_policy(to_hypergraph(parse_iam(json.dumps(MINIMAL)))))
    next(e for e in obj["hyperedges"] if e["kind"] == "association")["constraints"] = constraints
    return json.dumps(obj)


def _iam_with(key, entries) -> str:
    return json.dumps({**MINIMAL, key: entries})


@pytest.mark.parametrize(
    "command,text",
    [
        ("check", _policy_with_constraints([1])),
        ("check", _policy_with_constraints([{"kind": "time_window", "start": 5, "end": "x"}])),
        ("ingest", _iam_with("users", [1])),
        ("ingest", _iam_with("policies", ["x"])),
    ],
    ids=["constraint-not-object", "window-start-not-string", "user-not-object",
         "policy-not-object"],
)
def test_malformed_entries_raise_schema_error_and_exit_2(tmp_path, command, text):
    load = loads_policy if command == "check" else parse_iam
    with pytest.raises(SchemaError):
        load(text)
    path = tmp_path / "in.json"
    path.write_text(text)
    if command == "check":
        argv = ["check", "--policy", str(path), "--user", "Alice", "--op", "Read",
                "--resource", "Bucket123"]
    else:
        argv = ["ingest", "--in", str(path), "--out", str(tmp_path / "out.json")]
    assert main(argv) == 2


def _naive_matching(pattern, names, declared):
    """Resource matching as a scan over every declared name."""
    if pattern.endswith("*"):
        return [n for n in declared if n.startswith(pattern[:-1])]
    return [n for n in declared if n == pattern]


def _random_iam(rng: Rng) -> dict:
    alphabet = ("a", "b", "ab", "b-", "*", "é", "Z", "0")
    names = sorted({"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4))) for _ in range(40)})
    rng.shuffle(names)
    resources = [
        {"name": n, "account": "acct", "type": f"t{rng.randint(0, 5)}"} for n in names
    ]
    patterns = [n[: rng.randint(0, len(n))] + "*" for n in rng.sample(names, 6)]
    patterns += rng.sample(names, 3) + ["*", "ab*"]
    roles = [{"name": f"role{i}", "account": "acct"} for i in range(len(patterns))]
    policies = [
        {"role": f"role{i}", "actions": ["s3:GetObject"], "resources": [p], "policy_class": "AWS"}
        for i, p in enumerate(patterns)
    ]
    return {"users": [], "roles": roles, "policies": policies, "resources": resources}


def test_pattern_matching_agrees_with_a_full_scan(monkeypatch):
    import hyperpam.ingest as ingest_mod

    for seed in range(30):
        doc = parse_iam(json.dumps(_random_iam(Rng(seed))))
        fast = dumps_policy(to_hypergraph(doc))
        with monkeypatch.context() as m:
            m.setattr(ingest_mod, "_matching", _naive_matching)
            assert dumps_policy(to_hypergraph(doc)) == fast
        declared = {r.name: i for i, r in enumerate(doc.resources)}
        names = sorted(declared)
        for entry in doc.policies:
            (pattern,) = entry.resources
            assert sorted(ingest_mod._matching(pattern, names, declared)) == sorted(
                _naive_matching(pattern, names, declared)
            )
