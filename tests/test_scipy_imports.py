"""scipy stays out of petfabric except where a chi-square test needs it.

Importing scipy.stats costs about half a second and 60 MiB, so the package
imports it only inside the two adversary helpers that run a chi-square
test; the load test's KS test is computed in house. Any other scipy import
under `src/` brings that cost back to whatever reaches it, which this test
refuses.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "petfabric"

#: (module path under petfabric, enclosing function) of each allowed import
ALLOWED = {
    ("adversary.py", "eavesdrop_reconstruct"),
    ("adversary.py", "two_sample_uniformity"),
}


def _is_scipy(name) -> bool:
    return name is not None and (name == "scipy" or name.startswith("scipy."))


def _scipy_imports(node, scope: str):
    """(enclosing function, line) of every scipy import under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import) and any(_is_scipy(a.name) for a in child.names):
            yield scope, child.lineno
        elif isinstance(child, ast.ImportFrom) and child.level == 0 and _is_scipy(child.module):
            yield scope, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _scipy_imports(child, inner)


def scipy_imports() -> dict[tuple[str, str], list[int]]:
    """(module path, enclosing function or '<module>') -> import lines."""
    out: dict[tuple[str, str], list[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, line in _scipy_imports(tree, "<module>"):
            out.setdefault((module, scope), []).append(line)
    return out


def test_scipy_is_imported_only_by_the_chi_square_helpers():
    imports = scipy_imports()
    assert {site: lines for site, lines in imports.items() if site not in ALLOWED} == {}
    assert set(imports) == ALLOWED  # the check sees the imports it allows
