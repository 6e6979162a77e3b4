"""No function, class or method under src/ is reached only by its own tests.

A definition counts as reached when its name is used somewhere in petfabric
or in perfbench outside the definition itself: as a name, an attribute, an
imported name, or a string that is exactly the name (perfbench/tracing.py
looks the functions it wraps up by such strings). Tests, docstrings,
comments, type annotations (of a parameter, a return or an annotated
assignment) and the ``__init__.py`` files, with their re-exports and
``__all__`` lists, do not count, so a definition that only they mention
fails this test.

A name defined in more than one module (``encode`` in both ``codec`` and
``fabric.cbor``) is resolved by module: a use counts only for the module it
resolves to, which is the module a bare name is used in, the module of
``from <module> import name``, or the module bound to ``x`` in ``x.name``.
An attribute on anything else, or a string, resolves to no module; it is a
use of a method of that name, so it counts for the methods (defined in a
class) of that name and not for module-level definitions.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "petfabric"

#: Definitions kept although only tests reach them, each keyed by its module
#: and qualified name, with its reason.
ALLOWED = {
    "adversary.eavesdrop_reconstruct": (
        "the paper's share-secrecy result: full channel coverage reconstructs"
    ),
    "adversary.two_sample_uniformity": (
        "the paper's share-secrecy result: proper subsets look uniform"
    ),
    "adversary.UniformityReport.is_uniform": "the verdict of the share-secrecy uniformity test",
    "fabric.broker.Broker.write_audit_log": "the export the planned run-scenario --audit-log calls",
    "adversary.CoverageSet": (
        "the partial-coverage eavesdropper's input, kept under ROADMAP's Not planned"
    ),
    "fabric.cbor.encode": (
        "the reference encoder: acceptance criterion 11 builds malformed payloads with it, and"
        " tests/test_envelope_layout.py compares the layout encoder's bytes against it"
    ),
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    """(path, dotted module name, whether it is a package, tree) of every
    module of petfabric and perfbench, tests excluded."""
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        parts = path.relative_to(ROOT).with_suffix("").parts
        if "tests" in parts:
            continue
        parts = parts[1:] if parts[0] == "src" else parts
        is_package = parts[-1] == "__init__"
        module = ".".join(parts[:-1] if is_package else parts)
        yield path, module, is_package, ast.parse(path.read_text(encoding="utf-8"))


def _source(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The dotted name of the module a from-import reads from."""
    if not node.level:
        return node.module
    package = module.split(".") if is_package else module.split(".")[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _bindings(tree, module: str, is_package: bool, modules: set[str]) -> dict[str, str]:
    """Each name the module binds to a module, with that module's dotted name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, module, is_package)
            for alias in node.names:
                if f"{source}.{alias.name}" in modules:
                    bound[alias.asname or alias.name] = f"{source}.{alias.name}"
    return bound


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


def _uses(tree, module: str, is_package: bool, bound: dict[str, str]) -> Counter:
    """How often each name is used in `tree`, keyed by (the module the use
    resolves to, or None, and the name)."""
    skip = _docstrings(tree)
    annotation = _annotations(tree)

    def module_of(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            parent = module_of(node.value)
            return parent and f"{parent}.{node.attr}"
        return None

    uses: Counter = Counter()
    for node in ast.walk(tree):
        if id(node) in annotation:
            continue
        if isinstance(node, ast.Name):
            uses[module, node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[module_of(node.value), node.attr] += 1
        elif isinstance(node, ast.Import):
            for alias in node.names:
                uses[None, alias.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, module, is_package)
            for alias in node.names:
                uses[source, alias.name] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skip
        ):
            uses[None, node.value] += 1
    return uses


def _count(uses: Counter, module: str, name: str, method: bool, ambiguous: bool) -> int:
    """The uses in `uses` of the definition `name` in `module`."""
    if not ambiguous:
        return sum(n for (_, used), n in uses.items() if used == name)
    return uses[module, name] + (uses[None, name] if method else 0)


def _definitions(tree, prefix="", method=False):
    """(qualified name, node, whether it is defined in a class) of every
    definition, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            yield prefix + node.name, node, method
            yield from _definitions(
                node, prefix + node.name + ".", isinstance(node, ast.ClassDef)
            )
        else:
            yield from _definitions(node, prefix, method)


def unreached_definitions() -> list[str]:
    """Module and qualified name, relative to petfabric, of every definition
    nothing reaches."""
    modules = list(_modules())
    known = {module for _, module, _, _ in modules}
    total: Counter = Counter()
    defined_in: dict[str, set[str]] = {}
    scopes = []
    for path, module, is_package, tree in modules:
        scope = (module, is_package, _bindings(tree, module, is_package, known))
        if not is_package:
            total.update(_uses(tree, *scope))
        if path.is_relative_to(SRC):
            scopes.append((tree, scope))
            for _, node, _ in _definitions(tree):
                defined_in.setdefault(node.name, set()).add(module)
    unreached = []
    for tree, scope in scopes:
        module, is_package, _ = scope
        for qualname, node, method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by Python itself
            ambiguous = len(defined_in[name]) > 1
            inside = 0
            if not is_package:
                inside = _count(_uses(node, *scope), module, name, method, ambiguous)
            if _count(total, module, name, method, ambiguous) == inside:
                unreached.append(module.removeprefix("petfabric.") + "." + qualname)
    return unreached


def test_every_definition_is_reached_outside_tests():
    assert [u for u in unreached_definitions() if u not in ALLOWED] == []


def test_allowlist_holds_only_unreached_definitions():
    # an entry whose definition is gone or reached by now must leave the list
    assert set(unreached_definitions()) >= set(ALLOWED)
