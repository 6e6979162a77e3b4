"""One config layer: only the loader and the CLI raise ConfigError.

`scenarios/config.py` checks every config value a run relies on, and
`cli.py` checks the flags and the seed sources; everything downstream takes
what they accepted. A `raise ConfigError` anywhere else is a second config
layer, which this test refuses.
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
