"""Recorded descents and id-ordered adjacency.

The resource closure records, for each attribute it reaches, the edge that
starts the lexicographically smallest shortest descent back to the
resource. ``greedy_descend`` below is the scan-based descent the engine
used before it recorded those edges; it is kept as a differential oracle.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Optional

import pytest

from hyperpam import core
from hyperpam.core import HyperedgeKind, PolicyHypergraph, VertexKind
from hyperpam.engine import (
    EvaluationContext,
    PrivilegeQuery,
    _ascend,
    _extend,
    check_privilege,
    edge_satisfied,
)
from hyperpam.generator import EPOCH
from hyperpam.perm import PermissionSet
from hyperpam.rng import Rng
from hyperpam.serialize import dumps_policy, loads_policy

from .builders import random_context, random_policy
from .oracle import enumerate_paths

MAX_DEPTH = 6
CTX = EvaluationContext(EPOCH, "a")


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def greedy_descend(policy, start, rdist, ctx, count):
    """Lexicographically smallest shortest descent from ``start`` to the resource.

    Greedy is exact here: rdist certifies that any vertex one level down
    still completes a shortest descent, so taking the smallest edge id at
    each step minimizes the sequence.
    """
    edges: list[int] = []
    verts: list[int] = []
    v = start
    while rdist[v] > 0:
        count.n += 1  # adjacency fetch
        best: Optional[tuple[int, int]] = None
        for eid, tail in sorted(policy.assignments_to(v)):
            count.n += 1
            edge = policy.edge(eid)
            if not edge.active:
                continue
            if edge.constraints:
                count.n += 1
                if not edge_satisfied(policy, edge, ctx):
                    continue
            if rdist.get(tail) == rdist[v] - 1:
                best = (eid, tail)
                break
        assert best is not None, "rdist certified a descent that disappeared"
        edges.append(best[0])
        verts.append(best[1])
        v = best[1]
    return tuple(edges), tuple(verts)


def _assert_descents_match_greedy(policy, ctx, max_depth=MAX_DEPTH):
    for r in policy.vertices_of_kind(VertexKind.RESOURCE):
        rdist, down, _ = _ascend(policy, r.id, ctx, max_depth)
        for v in rdist:
            edges, verts = greedy_descend(policy, v, rdist, ctx, _Counter())
            assert _extend((), (v,), down) == (edges, (v,) + verts)


def _assert_witnesses_match_oracle(policy, ctx, max_depth=MAX_DEPTH):
    users = [v.id for v in policy.vertices_of_kind(VertexKind.USER)]
    resources = [v.id for v in policy.vertices_of_kind(VertexKind.RESOURCE)]
    allowed = 0
    for u in users:
        for r in resources:
            for op in policy.universe.names:
                paths = enumerate_paths(policy, u, r, op, ctx, max_depth)
                d = check_privilege(policy, PrivilegeQuery(u, op, r, ctx), max_depth)
                if not paths:
                    assert not d.allowed
                    continue
                allowed += 1
                assert (d.witness.vertices, d.witness.edges) == paths[0]
    return allowed


def _adjacency(policy):
    return {
        v.id: (
            list(policy.assignments_from(v.id)),
            list(policy.assignments_to(v.id)),
            list(policy.associations_at(v.id)),
        )
        for v in policy.vertices()
    }


@pytest.mark.parametrize("seed", range(80))
def test_recorded_descent_equals_greedy_scan(seed):
    rng = Rng(seed * 6151 + 3)
    policy = random_policy(rng)
    _assert_descents_match_greedy(policy, random_context(rng))


def _tie_policy():
    """Two attributes one hop above r; the later-discovered one holds the
    smaller edge id into the attribute two hops above."""
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    u = p.add_vertex(VertexKind.USER, "u", "a")
    role = p.add_vertex(VertexKind.USER_ATTR, "role", "a")
    r = p.add_vertex(VertexKind.RESOURCE, "r", "a")
    a = p.add_vertex(VertexKind.RESOURCE_ATTR, "a", "a")
    b = p.add_vertex(VertexKind.RESOURCE_ATTR, "b", "a")
    top = p.add_vertex(VertexKind.RESOURCE_ATTR, "top", "a")
    r_a = p.add_assignment(r, a)  # a is reached first
    r_b = p.add_assignment(r, b)
    b_top = p.add_assignment(b, top)  # ...but b holds the smaller id into top
    a_top = p.add_assignment(a, top)
    p.add_assignment(u, role)
    p.add_association([role], [top], pc, ["Read"])
    return p, locals()


def test_later_discovered_attribute_with_smaller_edge_id_wins():
    p, ids = _tie_policy()
    assert ids["r_a"] < ids["r_b"] < ids["b_top"] < ids["a_top"]
    rdist, down, _ = _ascend(p, ids["r"], CTX, MAX_DEPTH)
    assert rdist[ids["a"]] == rdist[ids["b"]] == 1
    assert down[ids["top"]] == (ids["b_top"], ids["b"])
    assert _extend((), (ids["top"],), down) == (
        (ids["b_top"], ids["r_b"]),
        (ids["top"], ids["b"], ids["r"]),
    )
    _assert_descents_match_greedy(p, CTX)
    assert _assert_witnesses_match_oracle(p, CTX) == 1


def _out_of_order_policy():
    """Assignments inserted through add_raw_hyperedge in descending id order,
    on both the user side and the resource side."""
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    u = p.add_vertex(VertexKind.USER, "u", "a")
    x = p.add_vertex(VertexKind.USER_ATTR, "x", "a")
    y = p.add_vertex(VertexKind.USER_ATTR, "y", "a")
    z = p.add_vertex(VertexKind.USER_ATTR, "z", "a")
    r = p.add_vertex(VertexKind.RESOURCE, "r", "a")
    a = p.add_vertex(VertexKind.RESOURCE_ATTR, "a", "a")
    b = p.add_vertex(VertexKind.RESOURCE_ATTR, "b", "a")
    top = p.add_vertex(VertexKind.RESOURCE_ATTR, "top", "a")
    A = HyperedgeKind.ASSIGNMENT
    raw = p.add_raw_hyperedge
    raw(A, (u, x), _id=30)
    raw(A, (u, y), _id=4)  # lex-min prefix to z runs through y
    raw(A, (x, z), _id=5)
    raw(A, (y, z), _id=40)
    raw(A, (r, a), _id=50)
    raw(A, (a, top), _id=21)
    raw(A, (r, b), _id=10)
    raw(A, (b, top), _id=20)  # lex-min descent from top runs through b
    p.add_association([z], [top], pc, ["Read"])
    assert not p.validate()
    return p, locals()


def test_out_of_order_raw_ids_keep_adjacency_sorted():
    p, ids = _out_of_order_policy()
    assert list(p.assignments_from(ids["u"])) == [(4, ids["y"]), (30, ids["x"])]
    assert list(p.assignments_from(ids["r"])) == [(10, ids["b"]), (50, ids["a"])]
    assert list(p.assignments_to(ids["top"])) == [(20, ids["b"]), (21, ids["a"])]
    assert list(p.assignments_to(ids["z"])) == [(5, ids["x"]), (40, ids["y"])]
    _assert_descents_match_greedy(p, CTX)
    assert _assert_witnesses_match_oracle(p, CTX) == 1
    d = check_privilege(p, PrivilegeQuery(ids["u"], "Read", ids["r"], CTX))
    assert d.witness.edges[:2] == (4, 40) and d.witness.edges[3:] == (20, 10)


def test_out_of_order_raw_associations_keep_incidence_sorted(monkeypatch):
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    ua = p.add_vertex(VertexKind.USER_ATTR, "ua", "a")
    ub = p.add_vertex(VertexKind.USER_ATTR, "ub", "a")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra", "a")
    rb = p.add_vertex(VertexKind.RESOURCE_ATTR, "rb", "a")
    S = HyperedgeKind.ASSOCIATION
    raw = p.add_raw_hyperedge
    raw(S, (ua, ra, pc), ["Read"], _id=30)
    raw(S, (ua, ub, rb, pc), ["Read"], _id=7)
    raw(S, (ua, ra, rb, pc), ["Write"], _id=50)
    raw(S, (ub, ra, pc), ["Read"], _id=12)
    assert not p.validate()

    def order():
        return {v: list(p.associations_at(v)) for v in (pc, ua, ub, ra, rb)}

    assert order() == {
        pc: [7, 12, 30, 50], ua: [7, 30, 50], ub: [7, 12], ra: [12, 30, 50], rb: [7, 50],
    }
    p.remove_hyperedge(30)
    p.remove_hyperedge(7)
    assert order() == {pc: [12, 50], ua: [50], ub: [12], ra: [12, 50], rb: [50]}

    sorted_dicts = []
    resort = core._sort_by_id
    monkeypatch.setattr(
        core, "_sort_by_id", lambda adj: (sorted_dicts.append(adj), resort(adj))
    )
    assert p.add_association([ua], [ra], pc, ["Read"]) == 51
    assert sorted_dicts == []  # a fresh id is the largest; nothing re-sorts
    raw(S, (ua, ra, pc), ["Read"], _id=30)  # an id freed above, reused
    touched = [p._assoc_incidence[v] for v in (ua, ra, pc)]
    assert sorted(map(id, sorted_dicts)) == sorted(map(id, touched))
    assert order() == {
        pc: [12, 30, 50, 51], ua: [30, 50, 51], ub: [12], ra: [12, 30, 50, 51], rb: [50],
    }


@pytest.mark.parametrize("seed", range(20))
def test_association_incidence_ascends_under_raw_inserts_and_removals(seed):
    rng = Rng(seed * 7919 + 5)
    policy = random_policy(rng)
    edges = list(policy.edges())
    rng.shuffle(edges)
    for e in edges[: len(edges) // 3]:
        policy.remove_hyperedge(e.id)
    for e in edges[: len(edges) // 3][::-1]:  # back in, reusing the freed ids
        perms = PermissionSet(policy.universe, e.perm_mask)
        policy.add_raw_hyperedge(
            e.kind, e.members, perms, e.constraints, e.active, _id=e.id
        )
    for v in policy.vertices():
        expected = sorted(
            e.id for e in policy.edges()
            if e.kind is HyperedgeKind.ASSOCIATION and v.id in e.members
        )
        assert list(policy.associations_at(v.id)) == expected
    _assert_witnesses_match_oracle(policy, random_context(rng))


def _reversed_document(policy):
    obj = json.loads(dumps_policy(policy))
    obj["hyperedges"].reverse()
    return json.dumps(obj)


@pytest.mark.parametrize("build", [_tie_policy, _out_of_order_policy])
def test_reverse_ordered_file_loads_to_the_same_adjacency(build, monkeypatch):
    p, _ = build()
    text = dumps_policy(p)
    in_order = loads_policy(text)

    def resort(adj):
        raise AssertionError("loader inserted an edge out of id order")

    monkeypatch.setattr(core, "_sort_by_id", resort)
    reverse = loads_policy(_reversed_document(p))
    monkeypatch.undo()
    assert _adjacency(reverse) == _adjacency(in_order) == _adjacency(p)
    assert dumps_policy(reverse) == text
    _assert_descents_match_greedy(reverse, CTX)
    assert _assert_witnesses_match_oracle(reverse, CTX) == 1


@pytest.mark.parametrize("seed", range(20))
def test_reverse_ordered_random_file_answers_like_the_oracle(seed):
    rng = Rng(seed * 3571 + 11)
    policy = random_policy(rng)
    ctx = random_context(rng)
    reverse = loads_policy(_reversed_document(policy))
    assert _adjacency(reverse) == _adjacency(policy)
    _assert_descents_match_greedy(reverse, ctx)
    _assert_witnesses_match_oracle(reverse, ctx)


def _one_type_policy(k):
    """User -> role -> grant on one type that holds ``k`` resources; the
    queried resource is the last one assigned to the type."""
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    u = p.add_vertex(VertexKind.USER, "u", "a")
    role = p.add_vertex(VertexKind.USER_ATTR, "role", "a")
    t = p.add_vertex(VertexKind.RESOURCE_ATTR, "type", "a")
    target = p.add_vertex(VertexKind.RESOURCE, "target", "a")
    p.add_assignment(u, role)
    p.add_association([role], [t], pc, ["Read"])
    assigns = []
    for i in range(k - 1):
        r = p.add_vertex(VertexKind.RESOURCE, f"r{i}", "a")
        assigns.append(p.add_assignment(r, t))
    assigns.append(p.add_assignment(target, t))
    return p, u, target, t, assigns


def test_query_work_is_independent_of_fan_in():
    shapes = set()
    for k in (10, 1_000, 100_000):
        p, u, target, _t, assigns = _one_type_policy(k)
        d = check_privilege(p, PrivilegeQuery(u, "Read", target, CTX))
        assert d.allowed and d.witness.edges[-1] == assigns[-1]
        shapes.add((d.traversal_ops, d.witness.vertices, d.witness.edges[:-1]))
        if k == 10:
            assert _assert_witnesses_match_oracle(p, CTX) == k
    assert len(shapes) == 1, shapes


def test_assignment_removal_is_flat_in_fan_in():
    """Median removal time of the oldest assignment into a type of 100k
    resources stays within 3x of the same at 10 resources."""
    built = {}
    for k in (10, 100_000):
        p, _u, _target, t, assigns = _one_type_policy(k)
        built[k] = (p, t, assigns)
    samples: dict[int, list[float]] = {k: [] for k in built}
    for _ in range(300):
        for k, (p, t, assigns) in built.items():  # interleaved against drift
            eid = assigns.pop(0)
            r = p.edge(eid).tail
            t0 = time.perf_counter()
            p.remove_hyperedge(eid)
            samples[k].append(time.perf_counter() - t0)
            assigns.append(p.add_assignment(r, t))
    small, large = (statistics.median(samples[k]) for k in (10, 100_000))
    assert large <= 3 * small, f"removal at 100k is {large / small:.1f}x the cost at 10"
    for p, t, assigns in built.values():
        assert [e for e, _ in p.assignments_to(t)] == assigns
        assert not p.validate()
