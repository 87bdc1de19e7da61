"""Hypergraph store: operations, invariants, validation, serialization."""

from __future__ import annotations

from datetime import timedelta

import pytest

from hyperpam.core import (
    HyperedgeKind,
    PolicyHypergraph,
    SameAccount,
    TimeWindow,
    VertexKind,
)
from hyperpam.errors import (
    DuplicateName,
    EmptyPermissions,
    KindMismatch,
    SchemaError,
    UnknownEdge,
    UnknownVertex,
)
from hyperpam.generator import EPOCH
from hyperpam.rng import Rng
from hyperpam.serialize import dumps_policy, loads_policy

from .builders import bool_id_document, random_policy


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


def test_permission_vertices_are_rejected(tiny):
    p, _ = tiny
    with pytest.raises(KindMismatch):
        p.add_vertex(VertexKind.PERMISSION, "Read")


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
    assert p.edge_permissions(e2).names() == ("Read",)
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
    assert p.incident_edges(ids["alice"]) == {e1}
    assert p.incident_edges(ids["dev"]) == {e1, e2}
    lonely = p.add_vertex(VertexKind.USER, "loner")
    assert p.incident_edges(lonely) == set()
    with pytest.raises(UnknownVertex):
        p.incident_edges(12345)

    p.remove_hyperedge(e2)
    assert p.incident_edges(ids["dev"]) == {e1}
    assert not p.has_edge(e2)
    with pytest.raises(UnknownEdge):
        p.remove_hyperedge(e2)
    assert not p.validate()


def test_set_active_visibility(tiny):
    p, ids = tiny
    e1 = p.add_assignment(ids["alice"], ids["dev"])
    p.set_active(e1, False)
    assert p.incident_edges(ids["alice"], live_only=True) == set()
    assert p.incident_edges(ids["alice"], live_only=False) == {e1}
    p.set_active(e1, True)
    assert p.incident_edges(ids["alice"]) == {e1}
    with pytest.raises(UnknownEdge):
        p.set_active(999, True)


def test_incidence_matches_linear_scan_on_random_policies():
    for seed in range(30):
        p = random_policy(Rng(seed + 1000))
        for v in p.vertices():
            expected = {e.id for e in p.edges() if v.id in e.members and e.active}
            assert p.incident_edges(v.id) == expected
            expected_all = {e.id for e in p.edges() if v.id in e.members}
            assert p.incident_edges(v.id, live_only=False) == expected_all


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
    p._incidence[ids["bucket"]].add(e1)  # inject an index fault
    rules = {v.rule for v in p.validate()}
    assert rules == {"IncidenceMismatch"}


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
    import hyperpam.serialize as serialize_mod

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
