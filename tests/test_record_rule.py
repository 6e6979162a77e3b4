"""A frozen dataclass under src/ validates its fields, or needs a dataclass
feature that a NamedTuple lacks.

Every other plain record is a NamedTuple: it compares, hashes and prints as
a frozen dataclass does, without the methods `@dataclass` generates when the
module is imported. A frozen dataclass validates when its body defines
`__post_init__` or `__init__`. The frozen dataclasses that validate nothing
are listed below, each with the feature it needs.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "petfabric"

#: Frozen dataclasses kept although they validate nothing, each with its reason.
NEEDS_DATACLASS = {
    "UtilityReport": "field(compare=False) keeps the weights ndarray out of ==",
    "LatencySummary": "perfbench digests dataclasses.asdict(LoadComparison), which holds two",
    "LoadComparison": "perfbench digests dataclasses.asdict(LoadComparison)",
}


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "dataclass" and any(
            kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
            for kw in decorator.keywords
        ):
            return True
    return False


def unvalidated_frozen_dataclasses() -> list[str]:
    """Class name of every frozen dataclass with neither __post_init__ nor __init__."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                if not methods & {"__post_init__", "__init__"}:
                    out.append(node.name)
    return out


def test_every_frozen_dataclass_validates_or_needs_a_dataclass_feature():
    assert [name for name in unvalidated_frozen_dataclasses() if name not in NEEDS_DATACLASS] == []


def test_exemptions_hold_only_unvalidated_frozen_dataclasses():
    # an entry whose class is gone, validates by now or is no longer frozen
    # must leave the list
    assert set(unvalidated_frozen_dataclasses()) >= set(NEEDS_DATACLASS)
