"""Command-line front end.

Exit codes: 0 success, 1 findings present (a denied check or a non-empty
detection, so CI can gate on it), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timedelta, timezone

from . import bench as bench_mod
from .core import VertexKind
from .detect import (
    attack_window_report,
    detect_escalations,
    detect_over_privileged,
    findings_to_jsonl,
    revoke_expired,
)
from .engine import (
    DEFAULT_MAX_DEPTH,
    EvaluationContext,
    PrivilegeQuery,
    check_privilege,
)
from .errors import PolicyError, SchemaError
from .generator import GenConfig, GroundTruth, generate
from .ingest import parse_iam, to_hypergraph
from .serialize import load_policy, parse_rfc3339, save_policy, write_atomic


def _at_from_args(args) -> datetime:
    return parse_rfc3339(args.at) if args.at else datetime.now(timezone.utc)


def _ctx_from_args(args) -> EvaluationContext:
    return EvaluationContext(
        _at_from_args(args), args.account or "", frozenset(args.approve or ())
    )


def _max_depth_from_args(args) -> int:
    if args.max_depth < 1:
        raise PolicyError(f"--max-depth must be at least 1, got {args.max_depth}")
    return args.max_depth


def _cmd_generate(args) -> int:
    cfg = GenConfig(
        n_users=args.users,
        n_roles=args.roles,
        n_resources=args.resources,
        n_resource_types=args.types,
        pct_temporal=args.pct_temporal,
        pct_scoped=args.pct_scoped,
        injected_chains=args.chains,
        injected_excess=args.excess,
        profile=args.profile,
        seed=args.seed,
    )
    policy, gt = generate(cfg)
    save_policy(policy, args.out)
    if args.ground_truth:
        write_atomic(args.ground_truth, gt.dumps(policy.universe.names))
    print(
        f"wrote {policy.vertex_count} vertices / {policy.edge_count} hyperedges "
        f"to {args.out}"
    )
    return 0


def _cmd_ingest(args) -> int:
    with open(args.infile, "rb") as fh:
        doc = parse_iam(fh.read())
    policy = to_hypergraph(doc)
    save_policy(policy, args.out)
    print(
        f"ingested {len(doc.users)} users / {len(doc.roles)} roles / "
        f"{len(doc.resources)} resources -> {args.out}"
    )
    return 0


def _cmd_check(args) -> int:
    policy = load_policy(args.policy)
    q = PrivilegeQuery(
        policy.vertex_named(VertexKind.USER, args.user).id,
        args.op,
        policy.vertex_named(VertexKind.RESOURCE, args.resource).id,
        _ctx_from_args(args),
    )
    decision = check_privilege(policy, q, _max_depth_from_args(args))
    if decision.allowed:
        print(f"ALLOW ({decision.traversal_ops} ops): {decision.witness.render(policy)}")
        return 0
    print(f"DENY ({decision.traversal_ops} ops): no path")
    return 1


def _cmd_escalations(args) -> int:
    policy = load_policy(args.policy)
    key, sep, value = args.sensitive.partition("=")
    if not (key and sep and value):
        raise PolicyError("--sensitive expects key=value with a non-empty key and value")
    findings = detect_escalations(
        policy, (key, value), _ctx_from_args(args), _max_depth_from_args(args)
    )
    sys.stdout.write(findings_to_jsonl(policy, escalations=findings))
    return 1 if findings else 0


def _cmd_overprivileged(args) -> int:
    policy = load_policy(args.policy)
    with open(args.ground_truth, "rb") as fh:
        gt = GroundTruth.loads(fh.read(), policy.universe)
    ctx = _ctx_from_args(args)
    findings = detect_over_privileged(
        policy, gt.required_permissions(ctx), ctx, _max_depth_from_args(args)
    )
    sys.stdout.write(findings_to_jsonl(policy, over_privileged=findings))
    return 1 if findings else 0


def _cmd_window(args) -> int:
    if args.expiring_within < 0:
        raise PolicyError(f"--expiring-within must be at least 0, got {args.expiring_within}")
    policy = load_policy(args.policy)
    report = attack_window_report(
        policy, _at_from_args(args), timedelta(seconds=args.expiring_within)
    )
    for eid in report.expired:
        print(f"expired e{eid}")
    for eid in report.expiring:
        print(f"expiring e{eid}")
    return 1 if report.expired else 0


def _cmd_revoke_expired(args) -> int:
    policy = load_policy(args.policy)
    count = revoke_expired(policy, _at_from_args(args))
    save_policy(policy, args.out or args.policy)
    print(f"revoked {count} expired hyperedges")
    return 0


def _cmd_bench(args) -> int:
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    result = bench_mod.run_sweep(
        models,
        args.n_start,
        args.n_end,
        args.n_step,
        cfg_template=lambda n, s: bench_mod.config_for_scale(
            n, seed=s, profile=args.profile
        ),
        workload_mode=args.workload,
        queries_per_n=args.queries_per_n,
        repeats=args.repeats,
        seed=args.seed,
        abac_max_n=args.abac_max_n,
        progress=(lambda msg: print(msg, file=sys.stderr)) if args.verbose else None,
    )
    bench_mod.emit_csv(result.records, args.csv)
    print(f"wrote {len(result.records)} records to {args.csv}")
    if args.report:
        fits = {}
        for model in models:
            fits[model] = {}
            for metric in ("detect_time_s", "traversal_ops", "graph_size"):
                try:
                    fits[model][metric] = result.fit(model, metric)
                except PolicyError:
                    continue
        bench_mod.emit_report(result.records, fits, args.report)
        print(f"wrote report to {args.report}")
    return 0


def _cmd_fit(args) -> int:
    points: dict[str, list[tuple[float, float]]] = {}
    for i, row in enumerate(bench_mod.read_csv(args.infile), 1):
        where, cells = f"{args.infile}: data row {i}", []
        for column in ("model", "n", args.metric):
            try:
                cells.append(row[column] if column == "model" else float(row[column]))
            except KeyError:
                raise SchemaError(f"{where} has no {column!r} column") from None
            except ValueError:
                raise SchemaError(
                    f"{where}, column {column!r}: {row[column]!r} is not a number"
                ) from None
        points.setdefault(cells[0], []).append((cells[1], cells[2]))
    for model in [args.model] if args.model else sorted(points):
        fit = bench_mod.fit_power_law(points.get(model, []))
        print(f"{model}: {args.metric} ~ {fit.a:.4e} * n^{fit.b:.4f} (R2={fit.r2:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperpam",
        description="Privilege analysis over labeled policy hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the evaluation context and depth limit of check, escalations and overprivileged
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--at", help="RFC3339 evaluation instant (default: now)")
    query.add_argument("--account", help="acting account")
    query.add_argument("--approve", action="append", help="approval tag (repeatable)")
    query.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)

    p = sub.add_parser("generate", help="generate a synthetic policy + ground truth")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--roles", type=int, required=True)
    p.add_argument("--resources", type=int, required=True)
    p.add_argument("--types", type=int, default=15)
    p.add_argument("--pct-temporal", type=float, default=0.2)
    p.add_argument("--pct-scoped", type=float, default=0.1)
    p.add_argument("--chains", type=int, default=0)
    p.add_argument("--excess", type=int, default=0)
    p.add_argument("--profile", choices=("standard", "sqrt-grouping"), default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--ground-truth")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ingest", help="lower an IAM JSON document onto a policy")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("check", parents=[query], help="answer one privilege query")
    p.add_argument("--policy", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--resource", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "escalations", parents=[query], help="detect role-chaining escalation paths"
    )
    p.add_argument("--policy", required=True)
    p.add_argument("--sensitive", default="env=production", help="key=value tag")
    p.set_defaults(func=_cmd_escalations)

    p = sub.add_parser(
        "overprivileged", parents=[query], help="subjects exceeding required grants"
    )
    p.add_argument("--policy", required=True)
    p.add_argument("--ground-truth", required=True)
    p.set_defaults(func=_cmd_overprivileged)

    p = sub.add_parser("window", help="expired / soon-expiring time-window edges")
    p.add_argument("--policy", required=True)
    p.add_argument("--at")
    p.add_argument("--expiring-within", type=int, default=86400, help="seconds")
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("revoke-expired", help="remove expired time-window edges")
    p.add_argument("--policy", required=True)
    p.add_argument("--at")
    p.add_argument("--out", help="output path (default: rewrite in place)")
    p.set_defaults(func=_cmd_revoke_expired)

    p = sub.add_parser("bench", help="scaling sweep across models")
    p.add_argument("--models", default="hyper,dag,abac")
    p.add_argument("--n-start", type=int, default=200)
    p.add_argument("--n-end", type=int, default=4000)
    p.add_argument("--n-step", type=int, default=200)
    p.add_argument("--queries-per-n", type=int)
    p.add_argument("--workload", choices=bench_mod.WORKLOAD_MODES, default="per_user")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--abac-max-n", type=int)
    p.add_argument("--profile", choices=("standard", "sqrt-grouping"), default="standard")
    p.add_argument("--csv", required=True)
    p.add_argument("--report")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("fit", help="power-law fit over a sweep CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--metric", default="detect_time_s")
    p.add_argument("--model")
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolicyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
