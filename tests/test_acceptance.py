"""Acceptance suite: one test per criterion, each printing a pass line.

The scaling sweeps are shared through module fixtures. ABAC detection is
swept to n=2000 (its cubic detection shape makes the n=4000 point alone
cost minutes in pure Python); every exponent assertion on ABAC detect time
uses that capped range, while its graph-size exponent comes from ABAC
builds, which are cheap, on the main sweep's policies over the full range.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace

import pytest
from scipy import stats as scipy_stats

from hyperpam.baselines import build_abac, detect_all
from hyperpam.bench import (
    build_workload,
    emit_csv,
    fit_power_law,
    measure_fp,
    run_sweep,
    workload_to_json,
)
from hyperpam.core import (
    HyperedgeKind,
    PolicyHypergraph,
    SameAccount,
    TimeWindow,
    VertexKind,
)
from hyperpam.engine import EvaluationContext, PrivilegeQuery, check_privilege
from hyperpam.generator import (
    EPOCH,
    EVAL_TS,
    GenConfig,
    config_for_scale,
    generate,
    make_fixture_usecase,
)
from hyperpam.rng import Rng
from hyperpam.serialize import dumps_policy, loads_policy

from .builders import all_triple_probes, random_context, random_policy
from .oracle import oracle_allows

SEED = 1234
SWEEP_N_END = 4000
ABAC_CAP = 2000


def _ok(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def sweeps():
    t0 = time.monotonic()
    main = run_sweep(["hyper", "dag"], 200, SWEEP_N_END, 200, repeats=3, seed=SEED)
    abac = run_sweep(["abac"], 200, ABAC_CAP, 200, repeats=2, seed=SEED)
    elapsed = time.monotonic() - t0
    # harness fairness: identical policy and workload at every common point
    abac_fp = {p.n: p.records[0].fingerprint for p in abac.points}
    for p in main.points:
        if p.n in abac_fp:
            assert p.records[0].fingerprint == abac_fp[p.n]
    return {"main": main, "abac": abac, "elapsed": elapsed}


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    policies = 0
    probes = 0
    for seed in range(1000):
        rng = Rng(seed)
        policy = random_policy(rng)
        assert policy.vertex_count <= 50
        ctx = random_context(rng)
        users = [v.id for v in policy.vertices_of_kind(VertexKind.USER)]
        resources = [v.id for v in policy.vertices_of_kind(VertexKind.RESOURCE)]
        policies += 1
        for _ in range(4):
            u = rng.choice(users)
            r = rng.choice(resources)
            op = rng.choice(policy.universe.names)
            expected = oracle_allows(policy, u, r, op, ctx, 6)
            got = check_privilege(policy, PrivilegeQuery(u, op, r, ctx), 6).allowed
            assert got == expected, (seed, u, op, r)
            probes += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"oracle sweep took {elapsed:.1f}s"
    _ok(1, f"{policies} policies / {probes} probes agree with the oracle in {elapsed:.1f}s")


def test_criterion_2_fixture_reproduction():
    t0 = time.monotonic()
    policy, gt = make_fixture_usecase()
    assert len(policy.vertices_of_kind(VertexKind.USER)) == 250
    assert len(policy.vertices_of_kind(VertexKind.USER_ATTR)) == 45
    assert len(policy.vertices_of_kind(VertexKind.RESOURCE)) == 400
    assert len(policy.vertices_of_kind(VertexKind.RESOURCE_ATTR)) == 15

    alice = policy.vertex_named(VertexKind.USER, "Alice").id
    pdb = policy.vertex_named(VertexKind.RESOURCE, "ProductionDB").id
    ctx = gt.context_for(alice)

    from hyperpam.detect import detect_escalations

    findings = detect_escalations(policy, ("env", "production"), ctx)
    mine = [f for f in findings if f.user == alice and f.target == pdb]
    assert len(mine) == 1
    names = [policy.vertex(v).name for v in mine[0].chained_attributes]
    assert names == ["Developer", "PowerUser"]
    assert check_privilege(policy, PrivilegeQuery(alice, "Read", pdb, ctx)).allowed

    policy.remove_hyperedge(gt.chains[0].assignment_edge)
    assert detect_escalations(policy, ("env", "production"), ctx) == []
    assert not check_privilege(policy, PrivilegeQuery(alice, "Read", pdb, ctx)).allowed
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"fixture criterion took {elapsed:.2f}s"
    _ok(2, f"census 250/45/400/15, Alice chain found and remediated in {elapsed:.2f}s")


def test_criterion_3_detection_time_exponents(sweeps):
    assert sweeps["elapsed"] < 1800, "sweep exceeded the 30 minute budget"
    fit_h = sweeps["main"].fit("hyper", "detect_time_s")
    fit_d = sweeps["main"].fit("dag", "detect_time_s")
    fit_a = sweeps["abac"].fit("abac", "detect_time_s")
    assert fit_a.b > fit_d.b > fit_h.b
    assert fit_h.b <= 1.5
    assert fit_a.b >= 2.4
    for fit in (fit_h, fit_d, fit_a):
        assert fit.r2 >= 0.90
    _ok(
        3,
        f"detect-time exponents abac={fit_a.b:.2f} > dag={fit_d.b:.2f} > "
        f"hyper={fit_h.b:.2f}, R2 = {fit_a.r2:.3f}/{fit_d.r2:.3f}/{fit_h.r2:.3f} "
        f"(sweep {sweeps['elapsed']:.0f}s, ABAC capped at n={ABAC_CAP})",
    )


def test_criterion_4_traversal_sublinearity(sweeps):
    points = []
    for rec in sweeps["main"].records:
        if rec.model == "hyper":
            points.append((rec.n, rec.traversal_ops / rec.queries))
    fit = fit_power_law(points)
    assert fit.b <= 0.8, f"per-query traversal exponent {fit.b:.3f}"
    at_400 = next(p for p in sweeps["main"].points if p.n == 400)
    median_ops = statistics.median(at_400.per_query_ops["hyper"])
    assert median_ops <= 200, f"median per-query ops at n=400 is {median_ops}"
    _ok(
        4,
        f"per-query traversal exponent {fit.b:.3f} <= 0.8; "
        f"median ops at n=400 is {median_ops:.0f} <= 200",
    )


def test_criterion_5_graph_size_shapes(sweeps):
    fit_dag = sweeps["main"].fit("dag", "graph_size")
    assert fit_dag.b <= 1.2

    # ABAC builds are cheap even where its detection is not, so the size
    # exponent is fitted over the full range, on the standard policies the
    # main sweep generated.
    abac_pts = [
        (p.n, build_abac(loads_policy(p.policy_json)).edge_count) for p in sweeps["main"].points
    ]
    assert [n for n, _ in abac_pts] == list(range(200, SWEEP_N_END + 1, 200))
    fit_abac = fit_power_law(abac_pts)
    assert fit_abac.b >= 1.8

    sqrt_pts = []
    for n in range(200, SWEEP_N_END + 1, 400):
        policy, _ = generate(config_for_scale(n, seed=SEED, profile="sqrt-grouping"))
        sqrt_pts.append((n, policy.edge_count))
    fit_sqrt = fit_power_law(sqrt_pts)
    assert 1.3 <= fit_sqrt.b <= 1.7
    _ok(
        5,
        f"size exponents abac={fit_abac.b:.2f} >= 1.8, dag={fit_dag.b:.2f} <= 1.2, "
        f"sqrt-grouping hypergraph={fit_sqrt.b:.2f} in [1.3, 1.7]",
    )


def test_criterion_6_false_positive_ordering():
    ctx = EvaluationContext(EVAL_TS, "")
    rates = []
    for seed in range(100, 120):
        cfg = GenConfig(
            n_users=24,
            n_roles=6,
            n_resources=30,
            pct_temporal=0.3,
            pct_scoped=0.2,
            injected_chains=1,
            injected_excess=1,
            seed=seed,
        )
        policy, gt = generate(cfg)
        # premise: the instance carries at least one expired or scoped grant
        gated = [
            e
            for e in policy.edges()
            if e.active
            and e.kind is HyperedgeKind.ASSOCIATION
            and any(
                isinstance(c, SameAccount)
                or (isinstance(c, TimeWindow) and c.end < EVAL_TS)
                for c in e.constraints
            )
        ]
        assert gated, f"seed {seed} generated no expired or scoped grant"
        probes = all_triple_probes(policy, ctx)
        fp_h, fp_d, fp_a = (
            measure_fp(policy, gt, probes, detect_all(m, policy, probes).decisions)
            for m in ("hyper", "dag", "abac")
        )
        assert fp_h == 0.0, f"seed {seed}: hypergraph fp {fp_h}"
        assert fp_a >= fp_d >= fp_h
        assert fp_a > fp_h, f"seed {seed}: no strict abac gap"
        rates.append((fp_a, fp_d, fp_h))
    mean = [sum(r[i] for r in rates) / len(rates) for i in range(3)]
    _ok(
         6,
        f"20 instances: fp_abac >= fp_dag >= fp_hyper = 0 everywhere, strict "
        f"abac gap on all; means abac={mean[0]:.2f} dag={mean[1]:.2f} hyper=0",
    )


def _revocation_policy(n_users: int):
    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    role = p.add_vertex(VertexKind.USER_ATTR, "oncall", "a")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "prod", "a")
    resources = [
        p.add_vertex(VertexKind.RESOURCE, f"r{i}", "a") for i in range(10)
    ]
    for r in resources:
        p.add_assignment(r, ra)
    users = [
        p.add_vertex(VertexKind.USER, f"u{i}", "a") for i in range(n_users)
    ]
    for u in users:
        p.add_assignment(u, role)
    members = None
    constraints = (TimeWindow(EPOCH, EVAL_TS),)
    eid = p.add_association([role], [ra], pc, ["Read"], constraints)
    members = p.edge(eid).members
    return p, eid, members, constraints, users, resources


def test_criterion_7_revocation_flat_in_fanout():
    sizes = (50, 500, 5000)
    built = {}
    for k in sizes:
        built[k] = _revocation_policy(k)

    samples: list[tuple[int, float]] = []
    batches, per_batch = 15, 9
    for _ in range(batches):
        for k in sizes:  # round-robin so clock drift cannot fake a trend
            policy, eid, members, constraints, _, _ = built[k]
            times = []
            for _ in range(per_batch):
                t0 = time.perf_counter()
                policy.remove_hyperedge(eid)
                times.append(time.perf_counter() - t0)
                eid = policy.add_raw_hyperedge(
                    HyperedgeKind.ASSOCIATION, members, ["Read"], constraints
                )
            built[k] = (policy, eid, members, constraints, built[k][4], built[k][5])
            samples.append((k, statistics.median(times)))

    rho = scipy_stats.spearmanr(
        [s[0] for s in samples], [s[1] for s in samples]
    ).statistic
    assert abs(rho) < 0.5, f"removal time correlates with fan-out: rho={rho:.3f}"

    ctx = EvaluationContext(EPOCH, "a")
    for k in sizes:
        policy, eid, _, _, users, resources = built[k]
        probe = PrivilegeQuery(users[0], "Read", resources[0], ctx)
        assert check_privilege(policy, probe).allowed
        policy.remove_hyperedge(eid)
        for u in users:
            assert not check_privilege(
                policy, PrivilegeQuery(u, "Read", resources[0], ctx)
            ).allowed
    _ok(
        7,
        f"removal medians uncorrelated with affected-user count "
        f"(spearman rho={rho:.3f}, |rho| < 0.5); all users denied after revocation",
    )


def test_criterion_8_speedup_at_largest_common_n(sweeps):
    n_star = ABAC_CAP
    hyper = next(
        r for r in sweeps["main"].records if r.model == "hyper" and r.n == n_star
    )
    abac = next(
        r for r in sweeps["abac"].records if r.model == "abac" and r.n == n_star
    )
    ratio = abac.detect_time_s / hyper.detect_time_s
    assert hyper.detect_time_s <= abac.detect_time_s / 4, f"ratio only {ratio:.1f}x"
    _ok(8, f"at n={n_star} the hypergraph engine is {ratio:.0f}x faster than ABAC (>= 4x)")


def test_criterion_9_determinism(tmp_path):
    cfg = config_for_scale(400, seed=SEED)
    p1, g1 = generate(cfg)
    p2, g2 = generate(cfg)
    assert dumps_policy(p1) == dumps_policy(p2)
    assert g1.dumps(p1.universe.names) == g2.dumps(p2.universe.names)
    w1 = build_workload(p1, g1, seed=SEED)
    w2 = build_workload(p2, g2, seed=SEED)
    assert workload_to_json(w1) == workload_to_json(w2)

    kwargs = dict(repeats=1, seed=SEED, queries_per_n=60)
    r1 = run_sweep(["hyper", "dag", "abac"], 200, 600, 200, **kwargs)
    r2 = run_sweep(["hyper", "dag", "abac"], 200, 600, 200, **kwargs)
    for a, b in zip(r1.points, r2.points):
        assert a.policy_json == b.policy_json
        assert a.workload_json == b.workload_json
        assert a.decisions == b.decisions
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(r1.records, str(f1))
    emit_csv(r2.records, str(f2))

    def strip_timing(path):
        rows = []
        for line in path.read_text().strip().splitlines()[1:]:
            cols = line.split(",")
            rows.append(cols[:3] + cols[5:])
        return rows

    assert strip_timing(f1) == strip_timing(f2)
    _ok(9, "policies, ground truth, workloads, decisions and CSVs reproduce byte-identically")
