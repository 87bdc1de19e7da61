"""CLI subcommands: exit codes, outputs, file round-trips."""

from __future__ import annotations

import json

import pytest

from hyperpam.cli import main
from hyperpam.detect import detect_over_privileged, findings_to_jsonl
from hyperpam.engine import EvaluationContext
from hyperpam.generator import EVAL_TS, GenConfig, GroundTruth, generate, make_fixture_usecase
from hyperpam.serialize import load_policy, save_policy

from .builders import bool_id_document

AT = EVAL_TS.isoformat()


@pytest.fixture(scope="module")
def fixture_policy_path(tmp_path_factory):
    policy, _ = make_fixture_usecase()
    path = tmp_path_factory.mktemp("cli") / "fixture.json"
    save_policy(policy, str(path))
    return str(path)


def test_generate_and_ground_truth(tmp_path, capsys):
    out = tmp_path / "p.json"
    gt = tmp_path / "gt.json"
    code = main(
        [
            "generate", "--users", "30", "--roles", "6", "--resources", "40",
            "--chains", "1", "--excess", "1", "--seed", "3",
            "--out", str(out), "--ground-truth", str(gt),
        ]
    )
    assert code == 0
    policy = load_policy(str(out))
    assert policy.vertex_count > 0
    gt_obj = json.loads(gt.read_text())
    assert gt_obj["chains"] and gt_obj["excess"]
    cfg = GenConfig(n_users=30, n_roles=6, n_resources=40, injected_chains=1,
                    injected_excess=1, seed=3)
    assert GroundTruth.loads(gt.read_bytes(), policy.universe) == generate(cfg)[1]


def test_generate_bad_config_exits_2(tmp_path):
    code = main(
        ["generate", "--users", "-5", "--roles", "1", "--resources", "1",
         "--out", str(tmp_path / "p.json")]
    )
    assert code == 2


def test_check_allow_and_deny(fixture_policy_path, capsys):
    code = main(
        ["check", "--policy", fixture_policy_path, "--user", "Alice",
         "--op", "Read", "--resource", "ProductionDB",
         "--at", AT, "--account", "acct-0"]
    )
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("ALLOW") and "PowerUser" in out

    code = main(
        ["check", "--policy", fixture_policy_path, "--user", "Alice",
         "--op", "Delete", "--resource", "ProductionDB",
         "--at", AT, "--account", "acct-0"]
    )
    out = capsys.readouterr().out
    assert code == 1 and "no path" in out


def test_check_unknown_name_exits_2(fixture_policy_path, capsys):
    code = main(
        ["check", "--policy", fixture_policy_path, "--user", "Nobody",
         "--op", "Read", "--resource", "ProductionDB", "--at", AT]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_escalations_jsonl(fixture_policy_path, capsys):
    code = main(
        ["escalations", "--policy", fixture_policy_path,
         "--sensitive", "env=production", "--at", AT, "--account", "acct-0"]
    )
    out = capsys.readouterr().out
    assert code == 1
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert any(f["user_name"] == "Alice" for f in lines)
    assert all(f["kind"] == "escalation" for f in lines)


def test_window_and_revoke(tmp_path, capsys):
    from datetime import timedelta

    from hyperpam.core import PolicyHypergraph, TimeWindow, VertexKind
    from hyperpam.generator import EPOCH

    p = PolicyHypergraph()
    pc = p.add_vertex(VertexKind.POLICY_CLASS, "pc")
    ua = p.add_vertex(VertexKind.USER_ATTR, "ua")
    ra = p.add_vertex(VertexKind.RESOURCE_ATTR, "ra")
    p.add_association([ua], [ra], pc, ["Read"],
                      [TimeWindow(EPOCH, EPOCH + timedelta(hours=2))])
    path = tmp_path / "p.json"
    save_policy(p, str(path))
    late = (EPOCH + timedelta(hours=5)).isoformat()

    code = main(["window", "--policy", str(path), "--at", late])
    out = capsys.readouterr().out
    assert code == 1 and "expired" in out

    out_path = tmp_path / "revoked.json"
    code = main(["revoke-expired", "--policy", str(path), "--at", late,
                 "--out", str(out_path)])
    assert code == 0
    assert "revoked 1" in capsys.readouterr().out
    assert load_policy(str(out_path)).edge_count == 0


def test_bench_and_fit(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    report = tmp_path / "report.md"
    code = main(
        ["bench", "--models", "hyper", "--n-start", "200", "--n-end", "600",
         "--n-step", "200", "--repeats", "1", "--queries-per-n", "30",
         "--csv", str(csv_path), "--report", str(report)]
    )
    capsys.readouterr()
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 points
    assert report.exists()

    code = main(["fit", "--in", str(csv_path), "--metric", "graph_size"])
    out = capsys.readouterr().out
    assert code == 0 and "hyper:" in out and "n^" in out


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty CSV"),
        ("model,n,detect_time_s\nhyper,200\n", "data row 1 has no 'detect_time_s' column"),
        ("model,n,detect_time_s\nhyper,200,0.1\nhyper,400,fast\n",
         "data row 2, column 'detect_time_s': 'fast' is not a number"),
        (b"model,n\n\x80\x81,1\n", "not UTF-8 text"),
    ],
    ids=["empty", "short-row", "non-numeric", "not-utf8"],
)
def test_fit_malformed_csv_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "sweep.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["fit", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("queries", ["0", "-3"])
def test_bench_non_positive_queries_per_n_exits_2(tmp_path, capsys, queries):
    argv = ["bench", "--models", "hyper", "--n-start", "200", "--n-end", "200",
            "--repeats", "1", "--queries-per-n", queries, "--csv", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: queries_per_n must be >= 1" in err and "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


def test_ingest_subcommand(tmp_path, capsys):
    doc = {
        "users": [{"name": "Alice", "account": "a"}],
        "roles": [{"name": "Dev", "account": "a", "assumable_by": ["Alice"]}],
        "policies": [{"role": "Dev", "actions": ["s3:GetObject"],
                      "resources": ["b1"], "policy_class": "AWS"}],
        "resources": [{"name": "b1", "account": "a", "type": "s3"}],
    }
    src = tmp_path / "iam.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "policy.json"
    code = main(["ingest", "--in", str(src), "--out", str(out)])
    assert code == 0
    assert load_policy(str(out)).vertex_count == 5

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["ingest", "--in", str(bad), "--out", str(out)]) == 2


@pytest.mark.parametrize("where", ["vertex", "hyperedge"])
def test_boolean_id_in_policy_exits_2(tmp_path, capsys, where):
    path = tmp_path / "bool.json"
    path.write_text(bool_id_document(where))
    code = main(
        ["check", "--policy", str(path), "--user", "u", "--op", "Read",
         "--resource", "r", "--at", AT]
    )
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("data", [b"\x80{}", b"[" * 100_000], ids=["not-utf8", "deep"])
def test_undecodable_input_exits_2(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code = main(
        ["check", "--policy", str(path), "--user", "u", "--op", "Read",
         "--resource", "r", "--at", AT]
    )
    assert code == 2
    assert main(["ingest", "--in", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def fixture_ground_truth_path(tmp_path_factory):
    policy, gt = make_fixture_usecase()
    path = tmp_path_factory.mktemp("cli") / "fixture-gt.json"
    path.write_text(gt.dumps(policy.universe.names))
    return str(path)


def test_overprivileged_reports_excess(fixture_policy_path, fixture_ground_truth_path, capsys):
    code = main(
        ["overprivileged", "--policy", fixture_policy_path,
         "--ground-truth", fixture_ground_truth_path, "--at", AT, "--account", "acct-0"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and lines
    assert all(json.loads(line)["kind"] == "over_privilege" for line in lines)


@pytest.mark.parametrize("account", ["", "acct-0"])
def test_overprivileged_matches_the_library_pass(
    fixture_policy_path, fixture_ground_truth_path, capsys, account
):
    policy, gt = make_fixture_usecase()
    ctx = EvaluationContext(EVAL_TS, account)
    findings = detect_over_privileged(policy, gt.required_permissions(ctx), ctx)
    code = main(
        ["overprivileged", "--policy", fixture_policy_path,
         "--ground-truth", fixture_ground_truth_path, "--at", AT, "--account", account]
    )
    assert code == 1
    assert capsys.readouterr().out == findings_to_jsonl(policy, over_privileged=findings)


def _set(section, row, col, value):
    def change(obj):
        obj[section][row][col] = value
    return change


def _drop(key):
    return lambda obj: obj.pop(key)


MALFORMED_LEDGERS = {
    "not-json": ("{not json", "invalid JSON"),
    "list-root": ("[]", "$: missing required field 'eval_timestamp'"),
    "old-format": ('{"intended": [], "violations": {"chains": [], "excess": []}}',
                   "$: missing required field 'eval_timestamp'"),
    "bool-id": (_set("users", 0, 0, True), "$.users[0][0]: want int, got bool"),
    "list-id": (_set("users", 0, 0, [5]), "$.users[0][0]: want int, got list"),
    "id-for-list": (_set("resource_types", 0, 1, 7), "$.resource_types[0][1]: want list, got int"),
    "string-in-id-list": (_set("users", 0, 2, ["7"]), "$.users[0][2][0]: want int, got str"),
    "short-row": (lambda obj: obj["users"][0].pop(), "$.users[0]: want a list of 3 fields"),
    "missing-key": (_drop("grants"), "$: missing required field 'grants'"),
    "unknown-permission": (_set("grants", 0, 2, ["Read", "Fly"]),
                           "$.grants[0][2]: permission 'Fly' not in universe"),
    "bad-window": (_set("grants", 0, 4, ["soon", AT]),
                   "$.grants[0][4][0]: bad RFC3339 timestamp 'soon'"),
    "unknown-vertex": (_set("users", 0, 0, 10**6),
                       "ground truth names unknown vertex 1000000"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LEDGERS))
def test_overprivileged_malformed_ground_truth_exits_2(
    fixture_policy_path, fixture_ground_truth_path, tmp_path, capsys, case
):
    text, message = MALFORMED_LEDGERS[case]
    if callable(text):
        with open(fixture_ground_truth_path) as fh:
            obj = json.load(fh)
        text(obj)
        text = json.dumps(obj)
    path = tmp_path / "gt.json"
    path.write_text(text)
    code = main(
        ["overprivileged", "--policy", fixture_policy_path, "--ground-truth", str(path),
         "--at", AT]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--user", "Alice", "--op", "Read", "--resource", "ProductionDB",
         "--max-depth", "0"],
        ["escalations", "--max-depth", "-3"],
        ["escalations", "--max-depth", "0"],
        ["escalations", "--sensitive", "=x"],
        ["escalations", "--sensitive", "env="],
        ["escalations", "--sensitive", "env"],
        ["overprivileged", "--ground-truth", "GT", "--max-depth", "0"],
        ["overprivileged", "--ground-truth", "GT", "--max-depth", "-3"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_bad_depth_or_sensitive_tag_exits_2(
    fixture_policy_path, fixture_ground_truth_path, capsys, argv
):
    argv = [fixture_ground_truth_path if a == "GT" else a for a in argv]
    code = main(argv[:1] + ["--policy", fixture_policy_path, "--at", AT] + argv[1:])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("within,code", [("-100", 2), ("-1", 2), ("0", 0)])
def test_window_negative_horizon_exits_2(fixture_policy_path, capsys, within, code):
    argv = ["window", "--policy", fixture_policy_path, "--at", AT, "--expiring-within", within]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and "error: --expiring-within" in err and "Traceback" not in err
    else:
        assert err == ""


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["check", "--user", "Alice"])  # missing required flags
    assert exc.value.code == 2
