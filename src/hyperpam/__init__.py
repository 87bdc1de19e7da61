"""Privilege analysis for cloud IAM policies on a labeled hypergraph."""

from .core import (
    ApprovalRequired,
    Hyperedge,
    HyperedgeKind,
    PolicyHypergraph,
    SameAccount,
    TimeWindow,
    Vertex,
    VertexKind,
    Violation,
)
from .engine import (
    AccessDecision,
    AccessPath,
    EvaluationContext,
    PrivilegeQuery,
    check_privilege,
    effective_permission_map,
)
from .detect import (
    AttackWindowReport,
    EscalationFinding,
    OverPrivilegeFinding,
    RequiredPermissions,
    attack_window_report,
    detect_escalations,
    detect_over_privileged,
    revoke_expired,
)
from .baselines import (
    AbacGraph,
    NgacDag,
    abac_check,
    build_abac,
    build_dag,
    dag_check,
    detect_all,
)
from .generator import (
    GenConfig,
    GroundTruth,
    config_for_scale,
    generate,
    make_fixture_usecase,
)
from .ingest import IamDocument, parse_iam, to_hypergraph
from .bench import (
    BenchRecord,
    RegressionFit,
    build_workload,
    emit_csv,
    emit_report,
    fit_power_law,
    measure_fp,
    run_sweep,
)
from .perm import DEFAULT_PERMISSIONS, PermissionSet, PermissionUniverse
from .rng import Rng, zipf_sample
from .serialize import dumps_policy, load_policy, loads_policy, save_policy

__version__ = "0.1.0"
