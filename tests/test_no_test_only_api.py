"""No function, class or method under src/ is reached only by its own tests.

A definition counts as reached when its name is used somewhere in petfabric
or in perfbench outside the definition itself: as a name, an attribute, an
imported name, or a string that is exactly the name (perfbench/tracing.py
looks the functions it wraps up by such strings). Tests, docstrings,
comments, type annotations (of a parameter, a return or an annotated
assignment) and the ``__init__.py`` files, with their re-exports and
``__all__`` lists, do not count, so a definition that only they mention
fails this test.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "petfabric"

#: Definitions kept although only tests reach them, each with its reason.
ALLOWED = {
    "eavesdrop_reconstruct": "the paper's share-secrecy result: full channel coverage reconstructs",
    "two_sample_uniformity": "the paper's share-secrecy result: proper subsets look uniform",
    "UniformityReport.is_uniform": "the verdict of the share-secrecy uniformity test",
    "Broker.write_audit_log": "the export the planned run-scenario --audit-log calls",
    "CoverageSet": "the partial-coverage eavesdropper's input, kept under ROADMAP's Not planned",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    """Every module of petfabric and perfbench, tests excluded."""
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        if "tests" not in path.relative_to(ROOT).parts:
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _docstrings(tree) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _annotations(tree) -> set[int]:
    """ids of every node inside a parameter, return or assignment annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def _uses(tree) -> Counter:
    """How often each name is used in `tree`."""
    skip = _docstrings(tree)
    annotation = _annotations(tree)
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if id(node) in annotation:
            continue
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name.rsplit(".", 1)[-1]] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skip
        ):
            uses[node.value] += 1
    return uses


def _definitions(tree, prefix=""):
    """(qualified name, node) of every definition, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def unreached_definitions() -> list[tuple[str, str]]:
    """(module path, qualified name) of every definition nothing reaches."""
    modules = list(_modules())
    total: Counter = Counter()
    for path, tree in modules:
        if path.name != "__init__.py":
            total.update(_uses(tree))
    unreached = []
    for path, tree in modules:
        if not path.is_relative_to(SRC):
            continue
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by Python itself
            inside = _uses(node)[name] if path.name != "__init__.py" else 0
            if total[name] == inside:
                unreached.append((str(path.relative_to(ROOT)), qualname))
    return unreached


def test_every_definition_is_reached_outside_tests():
    assert [u for u in unreached_definitions() if u[1] not in ALLOWED] == []


def test_allowlist_holds_only_unreached_definitions():
    # an entry whose definition is gone or reached by now must leave the list
    assert {qualname for _, qualname in unreached_definitions()} >= set(ALLOWED)
