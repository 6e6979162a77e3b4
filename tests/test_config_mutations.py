"""Single-field mutations of every shipped config.

Each leaf of each shipped config (every list element too) is replaced in
turn by -1, 0, 2.5, "1", true and null. A mutant must either be refused by
`validate-config` with exit 2 and a message that starts with the field (or
an enclosing object), or pass validation and then run its subcommand with
exit 0. Nothing may pass validation and then fail at run time, except an
injected share loss (`pet.drop_one_share: true`), which is a run failure by
design.

Sizes are shrunk first, so one run takes milliseconds.
"""

import json
from pathlib import Path

import pytest

from petfabric.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: config file -> (subcommand, validate-config --kind, shrunk sizes)
SHIPPED = {
    "adversary-grid.json": ("adversary-sim", "adversary", {"trials": 500}),
    "ass-demo.json": ("ass-demo", "ass-demo", {"n": 10, "repetitions": 3}),
    "ass-on-device.json": ("run-scenario", "scenario", {"repetitions": 3}),
    "baseline.json": ("run-scenario", "scenario", {"repetitions": 3}),
    "bench-suite.json": ("bench-suite", "bench", {"repetitions": 3}),
    "gdp-virtualized.json": ("run-scenario", "scenario", {"repetitions": 3}),
    "ldp-on-device.json": ("run-scenario", "scenario", {"repetitions": 3}),
    "relay-chain.json": ("run-scenario", "scenario", {"repetitions": 3}),
    "sweep-epsilon.json": ("sweep-epsilon", "sweep", {"n": 20, "reps": 100}),
}

REPLACEMENTS = (-1, 0, 2.5, "1", True, None)

#: the one mutation that may validate and then exit 1
RUN_FAILURES = {("pet.drop_one_share", True)}


def leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path


def field_name(path) -> str:
    name = ""
    for part in path:
        name += f"[{part}]" if isinstance(part, int) else f"{'.' if name else ''}{part}"
    return name


def names(message: str, field: str) -> bool:
    """Whether `message` is about `field` (or a part of it)."""
    return message.startswith(field) and message[len(field) : len(field) + 1] in (":", ".", "[")


def mutated(raw, path, value):
    copy = json.loads(json.dumps(raw))
    node = copy
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    return copy


def test_every_shipped_config_is_covered():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(SHIPPED)


@pytest.mark.parametrize("config", sorted(SHIPPED))
def test_single_field_mutations_run_or_exit_2_naming_the_field(tmp_path, capsys, config):
    subcommand, kind, shrink = SHIPPED[config]
    raw = {**json.loads((CONFIGS / config).read_text()), **shrink}
    path = tmp_path / config
    failures = []
    for leaf in leaves(raw):
        field = field_name(leaf)
        # the field itself or an enclosing object, as the message's subject
        subjects = tuple(field_name(leaf[:i]) for i in range(len(leaf), 0, -1))
        for value in REPLACEMENTS:
            path.write_text(json.dumps(mutated(raw, leaf, value)))
            capsys.readouterr()
            code = main(["validate-config", "--kind", kind, "--config", str(path)])
            err = capsys.readouterr().err
            if code == 2:
                subject = err.removeprefix("config error: ").removeprefix("config.")
                if not any(names(subject, s) for s in subjects):
                    failures.append(f"{field}={value!r}: refused without naming it: {err!r}")
                continue
            if code != 0:
                failures.append(f"{field}={value!r}: validate-config exited {code}: {err!r}")
                continue
            out = tmp_path / "out"
            code = main([subcommand, "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            allowed = {0, 1} if (field, value) in RUN_FAILURES else {0}
            if code not in allowed:
                failures.append(f"{field}={value!r}: {subcommand} exited {code}: {err!r}")
    assert not failures, "\n".join(failures)
