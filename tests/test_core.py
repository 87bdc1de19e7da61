"""Hypergraph store: operations, invariants, validation, serialization."""

from __future__ import annotations

import gc
import json
import os
import tracemalloc
from datetime import timedelta

import pytest

import hyperpam.serialize as serialize_mod
from hyperpam.bench import BenchRecord, RegressionFit, emit_csv, emit_report
from hyperpam.cli import main as cli_main
from hyperpam.core import (
    ASSIGNMENT_PAIRS,
    Hyperedge,
    HyperedgeKind,
    PolicyHypergraph,
    SameAccount,
    TimeWindow,
    Vertex,
    VertexKind,
    Violation,
    _NO_ENTRIES,
    _own_entries,
)
from hyperpam.detect import EscalationFinding, OverPrivilegeFinding
from hyperpam.engine import AccessDecision, AccessPath, EvaluationContext, PrivilegeQuery
from hyperpam.errors import (
    DuplicateName,
    EmptyPermissions,
    KindMismatch,
    ParseError,
    SchemaError,
    UnknownEdge,
    UnknownVertex,
)
from hyperpam.generator import EPOCH, config_for_scale, generate, make_fixture_usecase
from hyperpam.perm import PermissionSet
from hyperpam.rng import Rng
from hyperpam.serialize import dumps_policy, loads_policy

from .builders import bool_id_document, incident, random_policy


@pytest.fixture
def tiny():
    p = PolicyHypergraph()
    ids = {
        "pc": p.add_vertex(VertexKind.POLICY_CLASS, "aws"),
        "alice": p.add_vertex(VertexKind.USER, "Alice", "acct-dev"),
        "dev": p.add_vertex(VertexKind.USER_ATTR, "Developer", "acct-dev"),
        "bucket": p.add_vertex(VertexKind.RESOURCE, "Bucket123", "acct-dev"),
        "s3": p.add_vertex(VertexKind.RESOURCE_ATTR, "s3-bucket", "acct-dev"),
    }
    return p, ids


def test_add_vertex_and_lookup(tiny):
    p, ids = tiny
    assert p.vertex_named(VertexKind.USER, "Alice").id == ids["alice"]
    assert p.vertex(ids["alice"]).account == "acct-dev"
    with pytest.raises(DuplicateName):
        p.add_vertex(VertexKind.USER, "Alice")
    # same name under another kind is fine
    p.add_vertex(VertexKind.USER_ATTR, "Alice")


def test_vertex_census_matches_direct_summation():
    p = PolicyHypergraph()
    pc = 1
    p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    for i in range(250):
        p.add_vertex(VertexKind.USER, f"u{i}")
    for i in range(45):
        p.add_vertex(VertexKind.USER_ATTR, f"role{i}")
    for i in range(400):
        p.add_vertex(VertexKind.RESOURCE, f"r{i}")
    for i in range(15):
        p.add_vertex(VertexKind.RESOURCE_ATTR, f"t{i}")
    assert p.vertex_count == 250 + 45 + 400 + 15 + pc


def test_assignment_kinds(tiny):
    p, ids = tiny
    e1 = p.add_assignment(ids["alice"], ids["dev"])
    assert p.edge(e1).members == (ids["alice"], ids["dev"])
    assert p.edge(e1).perm_mask == 0
    # attribute-to-attribute chaining is legal
    power = p.add_vertex(VertexKind.USER_ATTR, "PowerUser")
    p.add_assignment(ids["dev"], power)
    with pytest.raises(KindMismatch):
        p.add_assignment(ids["alice"], ids["bucket"])
    with pytest.raises(KindMismatch):
        p.add_assignment(ids["dev"], ids["alice"])
    with pytest.raises(UnknownVertex):
        p.add_assignment(ids["alice"], 999)


def test_association_invariants(tiny):
    p, ids = tiny
    e2 = p.add_association([ids["dev"]], [ids["s3"]], ids["pc"], ["Read"])
    assert p.universe.names_of(p.edge(e2).perm_mask) == ("Read",)
    with pytest.raises(EmptyPermissions):
        p.add_association([ids["dev"]], [ids["s3"]], ids["pc"], [])
    with pytest.raises(KindMismatch):
        p.add_association([ids["alice"]], [ids["s3"]], ids["pc"], ["Read"])
    with pytest.raises(KindMismatch):
        p.add_association([ids["dev"]], [ids["bucket"]], ids["pc"], ["Read"])
    with pytest.raises(KindMismatch):
        p.add_association([ids["dev"]], [ids["s3"]], ids["dev"], ["Read"])
    # concrete user/resource members ride along when an attribute is present
    e3 = p.add_association(
        [ids["dev"], ids["alice"]], [ids["s3"], ids["bucket"]], ids["pc"], ["Write"]
    )
    assert set(p.edge(e3).members) == {
        ids["dev"], ids["alice"], ids["s3"], ids["bucket"], ids["pc"]
    }


def test_incident_edges_and_removal(tiny):
    p, ids = tiny
    e1 = p.add_assignment(ids["alice"], ids["dev"])
    e2 = p.add_association([ids["dev"]], [ids["s3"]], ids["pc"], ["Read"])
    assert incident(p, ids["alice"]) == {e1}
    assert incident(p, ids["dev"]) == {e1, e2}
    lonely = p.add_vertex(VertexKind.USER, "loner")
    assert incident(p, lonely) == set()
    with pytest.raises(UnknownVertex):
        incident(p, 12345)

    p.remove_hyperedge(e2)
    assert incident(p, ids["dev"]) == {e1}
    with pytest.raises(UnknownEdge):
        p.edge(e2)
    with pytest.raises(UnknownEdge):
        p.remove_hyperedge(e2)
    assert not p.validate()


def test_set_active_visibility(tiny):
    p, ids = tiny
    e1 = p.add_assignment(ids["alice"], ids["dev"])
    p.set_active(e1, False)
    assert incident(p, ids["alice"], live_only=True) == set()
    assert incident(p, ids["alice"], live_only=False) == {e1}
    p.set_active(e1, True)
    assert incident(p, ids["alice"]) == {e1}
    with pytest.raises(UnknownEdge):
        p.set_active(999, True)


def test_incidence_matches_linear_scan_on_random_policies():
    for seed in range(30):
        p = random_policy(Rng(seed + 1000))
        for v in p.vertices():
            expected = {e.id for e in p.edges() if v.id in e.members and e.active}
            assert incident(p, v.id) == expected
            expected_all = {e.id for e in p.edges() if v.id in e.members}
            assert incident(p, v.id, live_only=False) == expected_all


def test_incidence_exact_under_add_remove_churn():
    rng = Rng(77)
    p = random_policy(rng)
    edges = [e.id for e in p.edges()]
    rng.shuffle(edges)
    for eid in edges[: len(edges) // 2]:
        p.remove_hyperedge(eid)
        assert not p.validate()


def test_validate_detects_corruption(tiny):
    p, ids = tiny
    e1 = p.add_assignment(ids["alice"], ids["dev"])
    assert p.validate() == []
    _own_entries(p._assign_out, ids["bucket"])[e1] = ids["dev"]  # inject an index fault
    rules = {v.rule for v in p.validate()}
    assert rules == {"IncidenceMismatch"}
    del p._assign_out[ids["bucket"]][e1]
    p._assign_in[ids["dev"]][e1] = ids["bucket"]  # a wrong neighbour
    assert {v.rule for v in p.validate()} == {"IncidenceMismatch"}
    p._assign_in[ids["dev"]][e1] = ids["alice"]
    e2 = p.add_association([ids["dev"]], [ids["s3"]], ids["pc"], ["Read"])
    _own_entries(p._assoc_incidence, ids["alice"])[e2] = None  # listed at a non-member
    assert [(v.subject, v.rule) for v in p.validate()] == [
        (f"vertex:{ids['alice']}", "IncidenceMismatch")
    ]


def test_validate_missing_policy_class():
    p = PolicyHypergraph()
    ua = p.add_vertex(VertexKind.USER_ATTR, "ua")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra")
    # bypass add_association, as a broken serialized document would
    p.add_raw_hyperedge(HyperedgeKind.ASSOCIATION, [ua, ra], ["Read"])
    rules = {v.rule for v in p.validate()}
    assert "MissingPolicyClass" in rules


def test_lambda_discipline_violations():
    p = PolicyHypergraph()
    u = p.add_vertex(VertexKind.USER, "u")
    ua = p.add_vertex(VertexKind.USER_ATTR, "ua")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra")
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    p.add_raw_hyperedge(HyperedgeKind.ASSIGNMENT, [u, ua], ["Read"])
    p.add_raw_hyperedge(HyperedgeKind.ASSOCIATION, [ua, ra, pc], [])
    rules = {v.rule for v in p.validate()}
    assert "AssignmentHasPermissions" in rules
    assert "EmptyPermissions" in rules


@pytest.mark.parametrize("members", [[], [0], [0, 1, 2]], ids=["none", "one", "three"])
def test_malformed_assignment_is_reported_and_not_half_indexed(members):
    p = PolicyHypergraph()
    ids = [
        p.add_vertex(VertexKind.USER, "u"),
        p.add_vertex(VertexKind.USER_ATTR, "ua"),
        p.add_vertex(VertexKind.RESOURCE_ATTR, "ra"),
    ]
    chosen = [ids[i] for i in members]
    eid = p.add_raw_hyperedge(HyperedgeKind.ASSIGNMENT, chosen)
    assert [v.rule for v in p.validate()] == ["BadAssignmentShape"]
    assert p.edge(eid).members == tuple(chosen)
    for vid in ids:
        # no index holds it, so no walk follows it
        assert incident(p, vid, live_only=False) == set()
    p.remove_hyperedge(eid)
    assert p.validate() == [] and p.edge_count == 0
    assert not any(incident(p, vid, live_only=False) for vid in ids)


def test_time_window_rejects_inverted_range():
    with pytest.raises(ValueError):
        TimeWindow(EPOCH + timedelta(hours=2), EPOCH)


def test_serialization_round_trip_random():
    for seed in range(25):
        p = random_policy(Rng(seed + 50))
        text = dumps_policy(p)
        q = loads_policy(text)
        assert dumps_policy(q) == text


def test_save_policy_failure_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "policy.json"
    serialize_mod.save_policy(random_policy(Rng(7)), str(path))
    before = path.read_bytes()

    def boom(policy):
        raise RuntimeError("disk full")

    monkeypatch.setattr(serialize_mod, "dumps_policy", boom)
    with pytest.raises(RuntimeError):
        serialize_mod.save_policy(random_policy(Rng(8)), str(path))
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["policy.json"]


def _records(version: float) -> list[BenchRecord]:
    return [BenchRecord(m, n, 1, 0.1, version * n, 10 * n, 5 * n, 0.0)
            for m in ("hyper", "dag") for n in (200, 400, 800)]


def _write(writer: str, path, version: float) -> None:
    """Write ``path`` with ``writer``; an error propagates as an exception."""
    if writer == "write_atomic":
        serialize_mod.write_atomic(str(path), f"text {version}\n")
    elif writer == "save_policy":
        serialize_mod.save_policy(random_policy(Rng(int(version * 10))), str(path))
    elif writer == "emit_csv":
        emit_csv(_records(version), str(path))
    elif writer == "emit_report":
        fits = {m: {"detect_time_s": RegressionFit(version, 1.0, 1.0)} for m in ("hyper", "dag")}
        emit_report(_records(version), fits, str(path))
    else:  # the CLI's ground-truth ledger, written after the policy
        code = cli_main([
            "generate", "--users", "20", "--roles", "4", "--resources", "20",
            "--seed", str(int(version * 10)), "--out", str(path.parent / "p.json"),
            "--ground-truth", str(path),
        ])
        if code:  # the CLI reports an io error as an exit code
            raise OSError(code, "hyperpam generate failed")


@pytest.mark.parametrize(
    "writer", ["write_atomic", "save_policy", "emit_csv", "emit_report", "ground_truth"]
)
def test_failed_write_leaves_the_existing_file(writer, tmp_path, monkeypatch):
    path = tmp_path / "out"
    _write(writer, path, 0.1)
    before = path.read_bytes()
    files = sorted(f.name for f in tmp_path.iterdir())
    fsync = os.fsync
    calls = []

    def fsync_then_fail(fd):
        calls.append(fd)
        if writer != "ground_truth" or len(calls) > 1:
            raise OSError(28, "No space left on device")
        fsync(fd)

    monkeypatch.setattr(serialize_mod.os, "fsync", fsync_then_fail)
    with pytest.raises(OSError):
        _write(writer, path, 0.2)
    assert path.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == files


def test_atomic_write_keeps_the_file_mode(tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text("old")
    path.chmod(0o600)
    serialize_mod.write_atomic(str(path), "new")
    assert path.read_text() == "new"
    assert path.stat().st_mode & 0o777 == 0o600


def test_serialization_preserves_assignment_direction(tiny):
    p, ids = tiny
    p.add_assignment(ids["alice"], ids["dev"])
    q = loads_policy(dumps_policy(p))
    e = next(e for e in q.edges() if e.kind is HyperedgeKind.ASSIGNMENT)
    assert q.vertex(e.tail).name == "Alice"
    assert q.vertex(e.head).name == "Developer"


def test_deserialization_rejects_invalid_documents(tiny):
    p, ids = tiny
    p.add_raw_hyperedge(HyperedgeKind.ASSOCIATION, [ids["dev"], ids["s3"]], ["Read"])
    text = dumps_policy(p)  # serializes fine, but violates the PC invariant
    with pytest.raises(SchemaError):
        loads_policy(text)


def test_deserialization_rejects_bad_schema():
    with pytest.raises(SchemaError):
        loads_policy('{"vertices": [], "hyperedges": []}')
    with pytest.raises(SchemaError):
        loads_policy(
            '{"permission_universe": ["Read"], "vertices": [{"id": "x"}], "hyperedges": []}'
        )


@pytest.mark.parametrize("where", ["vertex", "hyperedge", "member"])
def test_deserialization_rejects_boolean_ids(where):
    with pytest.raises(SchemaError, match="id|members"):
        loads_policy(bool_id_document(where))


def test_constraints_serialize():
    p = PolicyHypergraph()
    ua = p.add_vertex(VertexKind.USER_ATTR, "ua", "a")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra", "a")
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    p.add_association(
        [ua],
        [ra],
        pc,
        ["Read"],
        [SameAccount(), TimeWindow(EPOCH, EPOCH + timedelta(hours=2))],
    )
    q = loads_policy(dumps_policy(p))
    e = next(iter(q.edges()))
    kinds = sorted(type(c).__name__ for c in e.constraints)
    assert kinds == ["SameAccount", "TimeWindow"]


# ----------------------------------------------------------------------
# loader error messages, pinned
# ----------------------------------------------------------------------


def _schema_document() -> dict:
    """A small valid document: every vertex kind, two assignments and one
    constrained association."""
    return {
        "permission_universe": ["Read", "Write"],
        "vertices": [
            {"id": 0, "kind": "policy_class", "name": "pc", "account": "", "tags": {}},
            {"id": 1, "kind": "user", "name": "u", "account": "a", "tags": {}},
            {"id": 2, "kind": "user_attr", "name": "role", "account": "a", "tags": {}},
            {"id": 3, "kind": "resource", "name": "r", "account": "a", "tags": {"env": "production"}},
            {"id": 4, "kind": "resource_attr", "name": "ra", "account": "a", "tags": {}},
        ],
        "hyperedges": [
            {"id": 0, "kind": "assignment", "members": [1, 2], "permissions": [],
             "constraints": [], "active": True},
            {"id": 1, "kind": "assignment", "members": [3, 4], "permissions": [],
             "constraints": [], "active": False},
            {"id": 2, "kind": "association", "members": [2, 4, 0], "permissions": ["Read"],
             "constraints": [{"kind": "same_account"}], "active": True},
        ],
    }


_DROP = object()


def _set(section: str, index: int, key: str, value):
    def mutate(doc):
        entry = doc[section][index]
        if value is _DROP:
            del entry[key]
        else:
            entry[key] = value
    return mutate


def _replace(section: str, index: int, value):
    def mutate(doc):
        doc[section][index] = value
    return mutate


def _root(key: str, value):
    def mutate(doc):
        if value is _DROP:
            del doc[key]
        else:
            doc[key] = value
    return mutate


def _both(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


V, E = "$.vertices[1]", "$.hyperedges[2]"
TW = {"kind": "time_window", "start": "2025-06-01T00:00:00+00:00", "end": "2025-06-01T02:00:00+00:00"}

SCHEMA_CASES = [
    # document root
    ("root-missing-universe", _root("permission_universe", _DROP),
     "$: missing required field 'permission_universe'"),
    ("root-universe-not-list", _root("permission_universe", "Read"),
     "$.permission_universe: wrong type str"),
    ("root-universe-entries", _root("permission_universe", ["Read", 1]),
     "$.permission_universe: entries must be strings"),
    ("root-missing-vertices", _root("vertices", _DROP), "$: missing required field 'vertices'"),
    ("root-vertices-not-list", _root("vertices", {}), "$.vertices: wrong type dict"),
    ("root-missing-hyperedges", _root("hyperedges", _DROP),
     "$: missing required field 'hyperedges'"),
    # vertex fields: missing, wrong type, bool for int
    ("vertex-not-object", _replace("vertices", 1, "u"), f"{V}: missing required field 'id'"),
    ("vertex-missing-id", _set("vertices", 1, "id", _DROP), f"{V}: missing required field 'id'"),
    ("vertex-id-str", _set("vertices", 1, "id", "1"), f"{V}.id: wrong type str"),
    ("vertex-id-float", _set("vertices", 1, "id", 1.0), f"{V}.id: wrong type float"),
    ("vertex-id-bool", _set("vertices", 1, "id", True), f"{V}.id: wrong type bool"),
    ("vertex-missing-kind", _set("vertices", 1, "kind", _DROP),
     f"{V}: missing required field 'kind'"),
    ("vertex-kind-int", _set("vertices", 1, "kind", 0), f"{V}.kind: wrong type int"),
    ("vertex-kind-unknown", _set("vertices", 1, "kind", "group"),
     f"{V}.kind: unknown vertex kind 'group'"),
    ("vertex-kind-permission", _set("vertices", 1, "kind", "permission"),
     f"{V}.kind: unknown vertex kind 'permission'"),
    ("vertex-missing-name", _set("vertices", 1, "name", _DROP),
     f"{V}: missing required field 'name'"),
    ("vertex-name-int", _set("vertices", 1, "name", 7), f"{V}.name: wrong type int"),
    ("vertex-name-empty", _set("vertices", 1, "name", ""), f"{V}: vertex name must be non-empty"),
    ("vertex-missing-account", _set("vertices", 1, "account", _DROP),
     f"{V}: missing required field 'account'"),
    ("vertex-account-null", _set("vertices", 1, "account", None), f"{V}.account: wrong type NoneType"),
    ("vertex-missing-tags", _set("vertices", 1, "tags", _DROP), f"{V}: missing required field 'tags'"),
    ("vertex-tags-list", _set("vertices", 1, "tags", []), f"{V}.tags: wrong type list"),
    ("vertex-tag-value-int", _set("vertices", 1, "tags", {"env": 1}),
     f"{V}.tags: keys and values must be strings"),
    ("vertex-duplicate-id", _set("vertices", 2, "id", 1),
     "$.vertices[2]: vertex id 1 already in use"),
    ("vertex-duplicate-name", _both(_set("vertices", 2, "kind", "user"), _set("vertices", 2, "name", "u")),
     "$.vertices[2]: user named 'u' already exists"),
    # the first failing check wins, in field order
    ("vertex-unknown-kind-before-missing-name",
     _both(_set("vertices", 1, "kind", "group"), _set("vertices", 1, "name", _DROP)),
     f"{V}.kind: unknown vertex kind 'group'"),
    ("vertex-missing-id-before-bad-tags",
     _both(_set("vertices", 1, "id", _DROP), _set("vertices", 1, "tags", 3)),
     f"{V}: missing required field 'id'"),
    # hyperedge fields
    ("edge-not-object", _replace("hyperedges", 2, [2, 4, 0]), f"{E}: missing required field 'id'"),
    ("edge-missing-id", _set("hyperedges", 2, "id", _DROP), f"{E}: missing required field 'id'"),
    ("edge-id-str", _set("hyperedges", 2, "id", "2"), f"{E}.id: wrong type str"),
    ("edge-id-bool", _set("hyperedges", 2, "id", False), f"{E}.id: wrong type bool"),
    ("edge-missing-kind", _set("hyperedges", 2, "kind", _DROP), f"{E}: missing required field 'kind'"),
    ("edge-kind-list", _set("hyperedges", 2, "kind", ["association"]), f"{E}.kind: wrong type list"),
    ("edge-kind-unknown", _set("hyperedges", 2, "kind", "grant"),
     f"{E}.kind: unknown hyperedge kind 'grant'"),
    ("edge-missing-members", _set("hyperedges", 2, "members", _DROP),
     f"{E}: missing required field 'members'"),
    ("edge-members-str", _set("hyperedges", 2, "members", "240"), f"{E}.members: wrong type str"),
    ("edge-member-str", _set("hyperedges", 2, "members", [2, "4", 0]),
     f"{E}.members: entries must be vertex ids"),
    ("edge-member-bool", _set("hyperedges", 2, "members", [2, True, 0]),
     f"{E}.members: entries must be vertex ids"),
    ("edge-member-float", _set("hyperedges", 2, "members", [2, 4.0, 0]),
     f"{E}.members: entries must be vertex ids"),
    ("edge-member-unknown", _set("hyperedges", 2, "members", [2, 4, 99]), f"{E}: no vertex with id 99"),
    ("edge-missing-permissions", _set("hyperedges", 2, "permissions", _DROP),
     f"{E}: missing required field 'permissions'"),
    ("edge-permissions-str", _set("hyperedges", 2, "permissions", "Read"),
     f"{E}.permissions: wrong type str"),
    ("edge-permission-unknown", _set("hyperedges", 2, "permissions", ["Read", "Fly"]),
     f"{E}: permission 'Fly' not in universe"),
    ("edge-permission-unhashable", _set("hyperedges", 2, "permissions", [["Read"]]),
     f"{E}: unhashable type: 'list'"),
    ("edge-missing-constraints", _set("hyperedges", 2, "constraints", _DROP),
     f"{E}: missing required field 'constraints'"),
    ("edge-constraints-object", _set("hyperedges", 2, "constraints", {}),
     f"{E}.constraints: wrong type dict"),
    ("edge-constraint-not-object", _set("hyperedges", 2, "constraints", ["same_account"]),
     f"{E}.constraints[0]: constraint must be an object"),
    ("edge-constraint-unknown", _set("hyperedges", 2, "constraints", [TW, {"kind": "mfa"}]),
     f"{E}.constraints[1]: unknown constraint kind 'mfa'"),
    ("edge-constraint-window-missing-end",
     _set("hyperedges", 2, "constraints", [{"kind": "time_window", "start": TW["start"]}]),
     f"{E}.constraints[0]: time_window missing 'end'"),
    ("edge-constraint-window-inverted",
     _set("hyperedges", 2, "constraints", [dict(TW, start=TW["end"], end=TW["start"])]),
     f"{E}.constraints[0]: time window start must precede end"),
    ("edge-constraint-approval-empty",
     _set("hyperedges", 2, "constraints", [{"kind": "approval_required", "tag": ""}]),
     f"{E}.constraints[0]: approval_required needs a non-empty tag"),
    ("edge-missing-active", _set("hyperedges", 2, "active", _DROP), f"{E}: missing required field 'active'"),
    ("edge-active-int", _set("hyperedges", 2, "active", 1), f"{E}.active: wrong type int"),
    ("edge-duplicate-id", _set("hyperedges", 2, "id", 1), f"{E}: hyperedge id 1 already in use"),
    ("edge-one-member-assignment", _set("hyperedges", 0, "members", [1]),
     "document violates policy invariants: BadAssignmentShape(edge:0): "
     "assignment has 1 members, wants 2"),
    ("edge-bad-constraint-before-missing-active",
     _both(_set("hyperedges", 2, "constraints", [{"kind": "mfa"}]), _set("hyperedges", 2, "active", _DROP)),
     f"{E}.constraints[0]: unknown constraint kind 'mfa'"),
    # every entry's schema is checked before any edge is inserted
    ("edge-schema-before-insertion",
     _both(_set("hyperedges", 0, "members", [1, 99]), _set("hyperedges", 2, "active", "yes")),
     f"{E}.active: wrong type str"),
    # insertion faults surface in id order, not document order
    ("edge-insertion-in-id-order",
     _both(_set("hyperedges", 0, "id", 9), _set("hyperedges", 0, "members", [1, 98]),
           _set("hyperedges", 2, "members", [2, 4, 99])),
     f"{E}: no vertex with id 99"),
    # structural invariants, checked after the build
    ("invariant-assignment-permissions", _set("hyperedges", 0, "permissions", ["Read"]),
     "document violates policy invariants: "
     "AssignmentHasPermissions(edge:0): assignments carry no permission label"),
    ("invariant-self-assignment", _set("hyperedges", 0, "members", [2, 2]),
     "document violates policy invariants: SelfAssignment(edge:0): links a vertex to itself"),
    ("invariant-missing-policy-class", _set("hyperedges", 2, "members", [2, 4]),
     "document violates policy invariants: MissingPolicyClass(edge:2): no policy class member"),
]


def test_schema_document_is_valid_and_canonical():
    text = json.dumps(_schema_document(), separators=(",", ":"))
    assert dumps_policy(loads_policy(text)) == text


@pytest.mark.parametrize(
    "mutate,message", [c[1:] for c in SCHEMA_CASES], ids=[c[0] for c in SCHEMA_CASES]
)
def test_loader_error_messages(mutate, message):
    doc = _schema_document()
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        loads_policy(json.dumps(doc))
    assert str(info.value) == message


def test_loader_rejects_non_object_root():
    with pytest.raises(SchemaError) as info:
        loads_policy("[]")
    assert str(info.value) == "$: missing required field 'permission_universe'"


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate(config_for_scale(1000, seed=1234))[0],
        lambda: generate(config_for_scale(1000, seed=1234, profile="sqrt-grouping"))[0],
        lambda: make_fixture_usecase()[0],
    ],
    ids=["standard-1000", "sqrt-grouping-1000", "fixture"],
)
def test_load_round_trip_is_byte_identical(make):
    text = dumps_policy(make())
    assert dumps_policy(loads_policy(text)) == text
    assert dumps_policy(loads_policy(text.encode("utf-8"))) == text


# ----------------------------------------------------------------------
# a load lets go of the decoded document while it builds the graph
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def standard_1000_text() -> str:
    return dumps_policy(generate(config_for_scale(1000, seed=1234))[0])


def _traced_load(load, arg):
    """``load(arg)``'s policy, the traced bytes it holds, and the traced peak of the call."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        policy = load(arg)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return policy, size - base, peak - base


@pytest.mark.parametrize("via", ["file", "text"])
def test_load_peak_stays_near_the_policy_size(via, standard_1000_text, tmp_path):
    # The bound is the traced size of the decoded document, which a smaller
    # graph layout does not move. The load peaks at 1.16x it through a file
    # and 1.08x from text. Keeping the vertex entries read 1.21x, the file's
    # bytes 1.33x, the hyperedge entries 1.48x, and the whole document and
    # the bytes 1.88x. Keeping the staged edges moves the peak by 0.3%,
    # which no peak bound can see.
    _, document, _ = _traced_load(json.loads, standard_1000_text)
    path = tmp_path / "policy.json"
    path.write_text(standard_1000_text, encoding="utf-8")
    if via == "file":
        policy, size, peak = _traced_load(serialize_mod.load_policy, str(path))
    else:
        policy, size, peak = _traced_load(loads_policy, standard_1000_text)
    assert dumps_policy(policy) == standard_1000_text
    assert peak < 1.19 * document, f"load peaked at {peak} B for a {document} B document"


def test_loaded_graph_stays_small(standard_1000_text):
    # Measured against the decoded document, so the bound follows the
    # interpreter's object sizes: the graph is 0.73x it, an empty dict of its
    # own per unused index read 0.78x, and one more index of every vertex's
    # edges 1.02x.
    _, document, _ = _traced_load(json.loads, standard_1000_text)
    _, size, _ = _traced_load(loads_policy, standard_1000_text)
    assert size < 0.76 * document, f"the loaded graph holds {size} B for a {document} B document"


@pytest.mark.parametrize("seed", range(20))
def test_shared_empty_index_is_never_written(seed):
    rng = Rng(seed + 4242)
    p = random_policy(rng)
    fresh = p.add_vertex(VertexKind.USER_ATTR, "fresh")
    assert p._assign_out[fresh] is p._assign_in[fresh] is p._assoc_incidence[fresh] is _NO_ENTRIES
    for _ in range(10):
        user = rng.choice([v.id for v in p.vertices_of_kind(VertexKind.USER)])
        p.add_assignment(user, fresh)
        ras = [v.id for v in p.vertices_of_kind(VertexKind.RESOURCE_ATTR)]
        pc = p.vertices_of_kind(VertexKind.POLICY_CLASS)[0].id
        p.add_association([fresh], [rng.choice(ras)], pc, ["Read"])
    edges = list(p.edges())
    rng.shuffle(edges)
    gone = edges[: len(edges) // 2]
    for e in gone:
        p.remove_hyperedge(e.id)
    for e in gone[::-1]:  # back in under the freed ids
        p.add_raw_hyperedge(
            e.kind, e.members, PermissionSet(p.universe, e.perm_mask),
            e.constraints, e.active, _id=e.id,
        )
    # the shared mapping is read-only, so no vertex that holds entries can be
    # pointing at it; validate checks that every entry is where it belongs
    assert p.validate() == []
    with pytest.raises(TypeError):
        _NO_ENTRIES[0] = None


def test_loaded_members_are_the_vertices_own_ids(standard_1000_text, tmp_path):
    # json makes a new int for every number above 256, so a member id that is
    # not the vertex's own object is a second copy of it
    path = tmp_path / "policy.json"
    path.write_text(standard_1000_text, encoding="utf-8")
    policy = serialize_mod.load_policy(str(path))
    members = [m for e in policy.edges() for m in e.members]
    assert max(members) > 256
    assert all(m is policy.vertex(m).id for m in members)


def test_bulk_records_carry_no_instance_dict():
    # a policy holds thousands of vertex and edge records and a pass thousands
    # of answers and findings, so each record class declares slots
    for cls in (Vertex, Hyperedge, AccessPath, AccessDecision, EscalationFinding,
                OverPrivilegeFinding, PermissionSet, EvaluationContext, PrivilegeQuery):
        assert "__dict__" not in vars(cls), cls.__name__


LAST_ENTRY_CASES = [
    ("vertex-kind", "vertices", "kind", "group", "{where}.kind: unknown vertex kind 'group'"),
    ("vertex-duplicate-id", "vertices", "id", 0, "{where}: vertex id 0 already in use"),
    ("edge-active", "hyperedges", "active", 1, "{where}.active: wrong type int"),
    ("edge-member-unknown", "hyperedges", "members", [0, 10**6], "{where}: no vertex with id 1000000"),
]


@pytest.mark.parametrize(
    "section,key,value,message", [c[1:] for c in LAST_ENTRY_CASES], ids=[c[0] for c in LAST_ENTRY_CASES]
)
def test_a_fault_in_the_last_entry_names_its_index(section, key, value, message, standard_1000_text):
    # every earlier entry has been freed by the time the last one is checked
    doc = json.loads(standard_1000_text)
    last = len(doc[section]) - 1
    doc[section][last][key] = value
    with pytest.raises(SchemaError) as info:
        loads_policy(json.dumps(doc))
    assert str(info.value) == message.format(where=f"$.{section}[{last}]")


# ----------------------------------------------------------------------
# validate(): the fast path must report exactly what the full scan does
# ----------------------------------------------------------------------


def _reference_validate(self) -> list[Violation]:
    """validate() with no shortcuts: the edge checks as they were before the
    plain-assignment test, kept verbatim, then a full two-way scan of the
    three indexes the walks read."""
    out: list[Violation] = []

    for eid, edge in self._edges.items():
        subject = f"edge:{eid}"
        missing = [v for v in edge.members if v not in self._vertices]
        if missing:
            out.append(
                Violation("DanglingMember", subject, f"unknown vertices {missing}")
            )
            continue
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
                continue
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

    # the three indexes the walks read, both directions: every entry must
    # match an edge, then every edge must have its entries
    A = HyperedgeKind.ASSIGNMENT
    for name, index in (("out-assignment", self._assign_out), ("in-assignment", self._assign_in)):
        for vid, adj in index.items():
            for eid, other in adj.items():
                edge = self._edges.get(eid)
                pair = (vid, other) if name == "out-assignment" else (other, vid)
                if edge is None or edge.kind is not A or edge.members != pair:
                    out.append(Violation("IncidenceMismatch", f"vertex:{vid}",
                                         f"{name} index lists edge {eid}, which does not match it"))
    for vid, adj in self._assoc_incidence.items():
        for eid, value in adj.items():
            edge = self._edges.get(eid)
            if edge is None or edge.kind is A or vid not in edge.members or value is not None:
                out.append(Violation("IncidenceMismatch", f"vertex:{vid}",
                                     f"association index lists edge {eid}, which does not match it"))
    for eid, edge in self._edges.items():
        lacking = []
        if edge.kind is not A:
            lacking = [("association", v) for v in set(edge.members)
                       if v in self._vertices and eid not in self._assoc_incidence[v]]
        elif len(edge.members) == 2:
            tail, head = edge.members
            if tail in self._vertices and self._assign_out[tail].get(eid) != head:
                lacking.append(("out-assignment", tail))
            if head in self._vertices and self._assign_in[head].get(eid) != tail:
                lacking.append(("in-assignment", head))
        for name, vid in lacking:
            out.append(Violation("IncidenceMismatch", f"vertex:{vid}",
                                 f"{name} index lacks edge {eid} or has it wrong"))
    return out


def _some(p, rng, kind):
    """A random id of a ``kind`` edge with two or more members, adding one if there is none."""
    eids = sorted(e.id for e in p.edges() if e.kind is kind and len(e.members) >= 2)
    if eids:
        return rng.choice(eids)
    first = {k: p.vertices_of_kind(k)[0].id for k in VertexKind if p.vertices_of_kind(k)}
    if kind is HyperedgeKind.ASSIGNMENT:
        return p.add_assignment(first[VertexKind.USER], first[VertexKind.USER_ATTR])
    return p.add_association(
        [first[VertexKind.USER_ATTR]], [first[VertexKind.RESOURCE_ATTR]],
        first[VertexKind.POLICY_CLASS], ["Read"],
    )


def _add_incidence(p, rng):
    """List an assignment out of a vertex that is not its tail."""
    eid = _some(p, rng, HyperedgeKind.ASSIGNMENT)
    tail, head = p.edge(eid).members
    outsiders = sorted(v.id for v in p.vertices() if v.id != tail)
    _own_entries(p._assign_out, rng.choice(outsiders))[eid] = head


def _drop_incidence(p, rng):
    """Forget one entry of the edge's in one of the three indexes."""
    eid = rng.choice(sorted(e.id for e in p.edges()))
    edge = p.edge(eid)
    if edge.kind is HyperedgeKind.ASSOCIATION:
        del p._assoc_incidence[rng.choice(sorted(set(edge.members)))][eid]
    elif rng.random() < 0.5:
        del p._assign_out[edge.tail][eid]
    else:
        del p._assign_in[edge.head][eid]


def _add_stale_incidence(p, rng):
    """List an edge id that does not exist in one of the three indexes."""
    index = rng.choice([p._assign_out, p._assign_in, p._assoc_incidence])
    vid = rng.choice(sorted(index))
    _own_entries(index, vid)[10_000 + rng.randint(0, 9)] = None if index is p._assoc_incidence else vid


def _wrong_neighbour(p, rng):
    """Point an assignment's out or in entry at a vertex it does not link."""
    eid = _some(p, rng, HyperedgeKind.ASSIGNMENT)
    tail, head = p.edge(eid).members
    wrong = rng.choice(sorted(v.id for v in p.vertices() if v.id not in (tail, head)))
    if rng.random() < 0.5:
        p._assign_out[tail][eid] = wrong
    else:
        p._assign_in[head][eid] = wrong


def _association_at_outsider(p, rng):
    """List an association at a vertex that is not one of its members."""
    eid = _some(p, rng, HyperedgeKind.ASSOCIATION)
    members = p.edge(eid).members
    outsider = rng.choice(sorted(v.id for v in p.vertices() if v.id not in members))
    _own_entries(p._assoc_incidence, outsider)[eid] = None


CORRUPTIONS = {
    "extra": [_add_incidence],
    "missing": [_drop_incidence],
    "both": [_add_incidence, _drop_incidence],
    "stale": [_add_stale_incidence],
    "swap": [_drop_incidence, _add_stale_incidence, _add_incidence],
    "wrong-neighbour": [_wrong_neighbour],
    "outsider-association": [_association_at_outsider],
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_validate_matches_reference_on_corrupted_incidence(corruption):
    for seed in range(40):
        rng = Rng(seed + 9000)
        p = random_policy(rng)
        for corrupt in CORRUPTIONS[corruption]:
            corrupt(p, rng)
        expected = _reference_validate(p)
        assert any(v.rule == "IncidenceMismatch" for v in expected)
        assert p.validate() == expected


def test_validate_matches_reference_on_malformed_edges():
    p = PolicyHypergraph(["Read", "Write"])
    u = p.add_vertex(VertexKind.USER, "u")
    ua = p.add_vertex(VertexKind.USER_ATTR, "ua")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra")
    r = p.add_vertex(VertexKind.RESOURCE, "r")
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    window = TimeWindow(EPOCH, EPOCH + timedelta(hours=1))
    raw = p.add_raw_hyperedge
    raw(HyperedgeKind.ASSIGNMENT, [u, ua])  # fine
    raw(HyperedgeKind.ASSIGNMENT, [ua, u])  # illegal pair
    raw(HyperedgeKind.ASSIGNMENT, [ua, ua])  # self-assignment
    raw(HyperedgeKind.ASSIGNMENT, [r, ra], ["Read"])  # carries permissions
    raw(HyperedgeKind.ASSIGNMENT, [r, ra], constraints=[window])  # constrained, fine
    raw(HyperedgeKind.ASSIGNMENT, [u, ua, ra])  # three members
    raw(HyperedgeKind.ASSIGNMENT, [u, ua], active=False)  # inactive, fine
    raw(HyperedgeKind.ASSOCIATION, [ua, ra, pc], ["Write"])  # fine
    raw(HyperedgeKind.ASSOCIATION, [ua, ra], [])  # no policy class, no permissions
    raw(HyperedgeKind.ASSOCIATION, [ua, pc, pc, ra], ["Read"])  # policy class twice
    raw(HyperedgeKind.ASSOCIATION, [u, r, pc], ["Read"])  # no attributes
    bad_window = p.add_raw_hyperedge(HyperedgeKind.ASSIGNMENT, [u, ua], constraints=[window])
    object.__setattr__(window, "end", EPOCH)  # inverted after the fact
    p.edge(bad_window).perm_mask = 1 << 5  # outside the universe
    expected = _reference_validate(p)
    assert {v.rule for v in expected} >= {
        "IllegalKindPair", "SelfAssignment", "AssignmentHasPermissions",
        "BadAssignmentShape", "MissingPolicyClass", "EmptyPermissions",
        "TooManyPolicyClasses", "MissingUserAttribute", "MissingResourceAttribute",
        "BadTimeWindow", "UnknownPermissionBits",
    }
    assert p.validate() == expected
    p._vertices.pop(ra)  # dangling members everywhere ra was used
    assert p.validate() == _reference_validate(p)


@pytest.mark.parametrize("profile", ["standard", "sqrt-grouping"])
def test_validate_matches_reference_on_generated_policies(profile):
    p, _ = generate(config_for_scale(300, seed=5, profile=profile))
    assert p.validate() == _reference_validate(p) == []
    rng = Rng(5)
    _add_incidence(p, rng)
    _drop_incidence(p, rng)
    assert p.validate() == _reference_validate(p) != []


# ----------------------------------------------------------------------
# the collector pause during a load never leaks
# ----------------------------------------------------------------------


def _bad_invariants_document() -> str:
    doc = _schema_document()
    doc["hyperedges"][0]["permissions"] = ["Read"]
    return json.dumps(doc)


def _bad_schema_document() -> str:
    doc = _schema_document()
    doc["vertices"][3]["tags"] = {"env": 1}
    return json.dumps(doc)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "text,error,validated",
    [
        (json.dumps(_schema_document()), None, True),
        (_bad_schema_document(), SchemaError, False),
        (_bad_invariants_document(), SchemaError, True),
        ('{"permission_universe": [', ParseError, False),
    ],
    ids=["valid", "bad-schema", "bad-invariants", "bad-json"],
)
def test_load_restores_the_collector_state(enabled, text, error, validated, monkeypatch):
    seen = []
    validate = PolicyHypergraph.validate

    def spy(self):
        seen.append(gc.isenabled())
        return validate(self)

    monkeypatch.setattr(PolicyHypergraph, "validate", spy)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if error is None:
            loads_policy(text)
        else:
            with pytest.raises(error):
                loads_policy(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # the collector is paused while the policy is built and validated
    assert seen == ([False] if validated else [])
