"""In-memory span recorder for hyperpam's layer boundaries.

The tracer replaces public functions with wrappers that record one span per
call: (span id, parent span id, name, start ns, end ns). A span's name is
``<layer>.<function>`` where the layer is the hyperpam module that owns the
function, so self time aggregates per layer. Wrapping happens here, in the
benchmark's own files; nothing inside ``src/`` is instrumented.

The read accessors of ``PolicyHypergraph`` (``assignments_from`` and friends)
are not wrapped: the engine calls them once per adjacency fetch, so a span
each would cost more than the work it measures. Their time counts as the
caller's self time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Iterable, Sequence

# A span: (sid, parent sid or None, name, start_ns, end_ns)
Span = tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call."""
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Index into ``spans``; slice between two marks to select a phase."""
        return len(self.spans)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["sid", "parent", "name", "start_ns", "end_ns"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def install(tracer: Tracer, hp) -> None:
    """Wrap every layer boundary the workloads cross.

    A function imported into another module is wrapped under the importing
    module's name too, because that is the binding the caller looks up.
    """
    core_cls = hp.core.PolicyHypergraph
    for method in ("validate", "add_assignment", "add_association", "remove_hyperedge", "set_active"):
        tracer.wrap(core_cls, method, f"core.{method}")
    tracer.wrap(hp.serialize, "load_policy", "serialize.load_policy")
    for mod in (hp.engine, hp.baselines, hp.cli):
        tracer.wrap(mod, "check_privilege", "engine.check_privilege")
    for mod in (hp.detect, hp.bench):
        tracer.wrap(mod, "effective_permission_map", "engine.effective_permission_map")
    for fn in ("detect_escalations", "detect_over_privileged", "attack_window_report"):
        tracer.wrap(hp.detect, fn, f"detect.{fn}")
    tracer.wrap(hp.cli, "load_policy", "serialize.load_policy")
    tracer.wrap(hp.cli, "main", "cli.main")
    tracer.wrap(hp.bench, "generate", "generator.generate")
    tracer.wrap(hp.bench, "dumps_policy", "serialize.dumps_policy")
    for fn in ("build_workload", "workload_to_json", "measure_fp", "detect_all", "run_sweep"):
        tracer.wrap(hp.bench, fn, f"bench.{fn}")
    for mod in (hp.baselines, hp.bench):
        for fn in ("build_abac", "abac_check", "build_dag", "dag_check"):
            tracer.wrap(mod, fn, f"baselines.{fn}")
    tracer.wrap(hp.generator.GroundTruth, "required_permissions", "generator.required_permissions")


def durations(spans: Iterable[Span], name: str, top_level: bool = False) -> list[int]:
    """Durations (ns) of the spans called ``name``; optionally only roots."""
    return [
        s[4] - s[3]
        for s in spans
        if s[2] == name and (not top_level or s[1] is None)
    ]


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return {s[0]: s[4] - s[3] - child_ns.get(s[0], 0) for s in spans}


def layer_self_ns(spans: Sequence[Span]) -> dict[str, int]:
    """Total self time per layer over the given spans."""
    own = self_times(spans)
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s[2].split(".", 1)[0]] += own[s[0]]
    return dict(out)


def self_ns_by_name(spans: Sequence[Span], name: str) -> list[int]:
    own = self_times(spans)
    return [own[s[0]] for s in spans if s[2] == name]
