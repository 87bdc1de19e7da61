"""Every function, class, method, defaulted parameter and class field in
``src/hyperpam`` has a use outside the tests.

A definition counts as used when some code in ``src/`` or ``perfbench/``
names it, as a bare name or as an attribute. A re-export in ``__init__.py``
is not a use. The names that ``perfbench/tracing.py`` wraps by string are,
since the benchmark looks them up that way.

An option is used when some code there sets it:

* a parameter with a default, when some call of a function of its name
  passes it, by keyword or by position (a ``*`` or ``**`` argument passes
  them all);
* a dataclass field with a default other than ``field(...)``, when some
  call of the class passes it, or some ``replace`` call names it;
* a field annotated in a class body, when code outside that class's
  ``validate`` and ``__post_init__`` reads an attribute of its name.

Calls and reads are matched by name alone, so a check can miss an unused
option but never flags one that is used.
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
# file:function(parameter) -> why it stays though no call passes it
ALLOWED_PARAMS = {
    "engine.py:effective_permission_map(max_depth)":
        "the benchmark wraps this function by name; both go together",
    "engine.py:effective_permission_map(_descend_memo)":
        "the benchmark wraps this function by name; both go together",
}
# file:Class.field -> why it stays though no constructor call passes it
ALLOWED_FIELDS: dict[str, str] = {}
# file:Class.field -> why it stays though no code reads it by attribute
LEDGER_ROW = "written to the ledger through astuple in GroundTruth.dumps"
ALLOWED_READS = {
    "generator.py:ChainRecord.assignment_edge": LEDGER_ROW,
    "generator.py:ChainRecord.association_edge": LEDGER_ROW,
    "generator.py:ChainRecord.source_role": LEDGER_ROW,
    "generator.py:ChainRecord.target_role": LEDGER_ROW,
    "generator.py:ExcessRecord.association_edge": LEDGER_ROW,
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


def _sources() -> list[tuple[Path, ast.Module]]:
    """(path, syntax tree) of each module in src/ but ``__init__.py``, then
    of each in perfbench/."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _package_classes() -> list[tuple[str, ast.ClassDef]]:
    return [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    ]


def _used_names() -> set[str]:
    """Names and attributes referenced by code in src/ and perfbench/, plus
    the string constants of perfbench/tracing.py."""
    used: set[str] = set()
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif path.name == "tracing.py" and isinstance(node, ast.Constant):
                if isinstance(node.value, str):
                    used.add(node.value)
    return used


def _calls() -> dict[str, list[ast.Call]]:
    """Calls in src/ and perfbench/, by the called name or attribute."""
    out: dict[str, list[ast.Call]] = {}
    for _, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name:
                    out.setdefault(name, []).append(node)
    return out


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes parameter ``name``, which is positional
    argument ``position`` (None: keyword only)."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _defaulted_params() -> list[tuple[str, str, str, int | None]]:
    """(``file:function(parameter)``, called name, parameter, position) of
    each defaulted parameter of a top-level function or method; a class's
    ``__init__`` is called by the class's name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                funcs = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                funcs = [
                    (f"{node.name}.{item.name}",
                     node.name if item.name == "__init__" else item.name,
                     item,
                     0 if any(getattr(d, "id", None) == "staticmethod"
                              for d in item.decorator_list) else 1)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
            else:
                continue
            for where, called, fn, bound in funcs:
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                out.extend(
                    (f"{path.name}:{where}({a.arg})", called, a.arg, i - bound)
                    for i, a in enumerate(args[first:], first)
                )
                out.extend(
                    (f"{path.name}:{where}({a.arg})", called, a.arg, None)
                    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if d is not None
                )
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in cls.decorator_list
    )


def _fields(cls: ast.ClassDef) -> list[ast.AnnAssign]:
    return [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def _reads() -> dict[str, set[tuple]]:
    """attribute name -> the (class, method) of each place in src/ or
    perfbench/ that reads it; None outside a class or a method."""
    out: dict[str, set[tuple]] = {}

    def visit(node: ast.AST, cls, method) -> None:
        for child in ast.iter_child_nodes(node):
            c, m = cls, method
            if isinstance(child, ast.ClassDef):
                c, m = child.name, None
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and cls and not m:
                m = child.name
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                out.setdefault(child.attr, set()).add((cls, method))
            visit(child, c, m)

    for _, tree in _sources():
        visit(tree, None, None)
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    used = _used_names()
    unused = [(where, name) for where, name in _definitions() if name not in used]
    assert sorted(where for where, name in unused if name not in ALLOWED) == []
    # an allowlisted name that gains a caller leaves the list
    assert sorted(name for _, name in unused) == sorted(ALLOWED)


def test_every_defaulted_parameter_is_passed_by_some_call():
    calls = _calls()
    unpassed = [
        where
        for where, called, name, position in _defaulted_params()
        if not any(_passes(c, name, position) for c in calls.get(called, ()))
    ]
    assert sorted(w for w in unpassed if w not in ALLOWED_PARAMS) == []
    assert sorted(unpassed) == sorted(ALLOWED_PARAMS)


def test_every_defaulted_dataclass_field_is_set_by_some_constructor_call():
    calls = _calls()
    replaced = {k.arg for c in calls.get("replace", ()) for k in c.keywords}
    unset = []
    for file, cls in _package_classes():
        if not _is_dataclass(cls):
            continue
        for i, f in enumerate(_fields(cls)):
            value, name = f.value, f.target.id
            if value is None or getattr(getattr(value, "func", None), "id", None) == "field":
                continue
            if name not in replaced and not any(_passes(c, name, i) for c in calls.get(cls.name, ())):
                unset.append(f"{file}:{cls.name}.{name}")
    assert sorted(w for w in unset if w not in ALLOWED_FIELDS) == []
    assert sorted(unset) == sorted(ALLOWED_FIELDS)


def test_every_class_field_is_read_outside_its_own_checks():
    reads = _reads()
    unread = [
        f"{file}:{cls.name}.{f.target.id}"
        for file, cls in _package_classes()
        for f in _fields(cls)
        if not any(
            not (where == cls.name and method in ("validate", "__post_init__"))
            for where, method in reads.get(f.target.id, ())
        )
    ]
    assert sorted(w for w in unread if w not in ALLOWED_READS) == []
    assert sorted(unread) == sorted(ALLOWED_READS)
