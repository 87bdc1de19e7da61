"""Every function, class and method in ``src/hyperpam`` has a caller outside
the tests.

A definition counts as used when some code in ``src/`` or ``perfbench/``
names it, as a bare name or as an attribute. A re-export in ``__init__.py``
is not a use. The names that ``perfbench/tracing.py`` wraps by string are,
since the benchmark looks them up that way.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperpam"

# name -> why it stays though nothing outside the tests names it
ALLOWED = {
    "assignments_from": "read-only view of the out-assignment index for tests",
    "assignments_to": "read-only view of the in-assignment index for tests",
    "associations_at": "read-only view of the association index for tests",
    "loads_policy": "public in-memory counterpart of load_policy",
    "make_fixture_usecase": "public hand-written fixture policy with its ledger",
}


def _definitions() -> list[tuple[str, str]]:
    """(``file:qualified name``, name) of every top-level function, every
    class and every non-dunder method in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((f"{path.name}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{path.name}:{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    return out


def _used_names() -> set[str]:
    """Names and attributes referenced by code in src/ and perfbench/, plus
    the string constants of perfbench/tracing.py."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    used: set[str] = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif path.name == "tracing.py" and isinstance(node, ast.Constant):
                if isinstance(node.value, str):
                    used.add(node.value)
    return used


def test_every_definition_has_a_caller_outside_the_tests():
    used = _used_names()
    unused = [(where, name) for where, name in _definitions() if name not in used]
    assert sorted(where for where, name in unused if name not in ALLOWED) == []
    # an allowlisted name that gains a caller leaves the list
    assert sorted(name for _, name in unused) == sorted(ALLOWED)
