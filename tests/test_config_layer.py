"""One config layer: only the loader and the CLI raise ConfigError, and only
the loader reads a file.

`scenarios/config.py` checks every config value a run relies on, and
`cli.py` checks the flags and the seed sources; everything downstream takes
what they accepted. A `raise ConfigError` anywhere else is a second config
layer, which this test refuses. The loader reads each config once, and the
manifest hashes the bytes it read, so a second read anywhere is refused too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "petfabric"

ALLOWED = {"scenarios/config.py", "cli.py"}


def _raises_config_error(tree) -> list[int]:
    """Line of every `raise ConfigError` or `raise ConfigError(...)`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "ConfigError":
                lines.append(node.lineno)
    return lines


def config_error_raises() -> dict[str, list[int]]:
    """Module path under petfabric -> lines that raise ConfigError."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = _raises_config_error(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            out[path.relative_to(SRC).as_posix()] = lines
    return out


def test_only_the_loader_and_the_cli_raise_config_error():
    raises = config_error_raises()
    assert {path: lines for path, lines in raises.items() if path not in ALLOWED} == {}
    assert set(raises) == ALLOWED  # the check sees the raises it allows


def _mode(call: ast.Call) -> str:
    """The mode an `open(file, mode)` or `path.open(mode)` call gives: its
    `mode=` keyword, else its first literal argument made of mode letters."""
    args = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args
    for arg in args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value and set(arg.value) <= set("rwxabt+"):
                return arg.value
    return "r"


def _reads(tree) -> list[int]:
    """Line of every `.read_bytes()`, `.read_text()`, and `open(...)` or
    `.open(...)` whose mode neither writes, appends nor creates."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("read_bytes", "read_text") or (
                name == "open" and not set(_mode(node)) & set("wax")
            ):
                lines.append(node.lineno)
    return lines


def test_only_the_loader_reads_a_file():
    reads = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = _reads(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            reads[path.relative_to(SRC).as_posix()] = lines
    assert set(reads) == {"scenarios/config.py"}, reads
