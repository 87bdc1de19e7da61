"""The benchmark's tracer wraps hyperpam functions by name; every name it
wraps must exist, and unwrapping must restore the original objects."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import hyperpam
import hyperpam.cli  # noqa: F401 - the tracer wraps names in this module too

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every hyperpam module and every class defined in one."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if name != "hyperpam" and not name.startswith("hyperpam."):
            continue
        out.append(mod)
        out.extend(
            v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == name
        )
    return out


def test_tracer_install_and_unwrap_restore_every_hook():
    tracing = _load_tracing()
    before = {id(ns): dict(vars(ns)) for ns in _namespaces()}
    tracer = tracing.Tracer()
    tracing.install(tracer, hyperpam)
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, attr, original in patched:
            assert id(owner) in before, f"{owner!r} is not a hyperpam namespace"
            assert before[id(owner)][attr] is original, f"{attr} wrapped twice"
            assert getattr(owner, attr) is not original, f"{attr} not wrapped"
    finally:
        tracer.unwrap_all()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{attr} not restored"
    for ns in _namespaces():
        now = vars(ns)
        for attr, value in before.get(id(ns), {}).items():
            assert now[attr] is value, f"{ns!r}.{attr} changed"
