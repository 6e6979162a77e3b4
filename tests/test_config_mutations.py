"""Single-field mutations of every shipped config.

Each leaf of each shipped config (every list element too) is replaced in
turn by -1, 0, 2.5, "1", true and null. A mutant must either be refused by
`validate-config` with exit 2 and a message that starts with the field (or
an enclosing object), or pass validation and then run its subcommand with
exit 0. Nothing may pass validation and then fail at run time, except an
injected share loss (`pet.drop_one_share: true`), which is a run failure by
design.

A second pass replaces each leaf of the shipped configs and of the
benchmark's fan-in scenario configs by extreme magnitudes, under the same
rule, except that a size leaf (`repetitions`, `reps`, `trials`, `n`,
`sensors.count`) is only validated: an accepted size runs as long as it
says.

A key-level pass, over the same configs, deletes each key, adds an unknown
key to each object and names each key twice. Each mutant is only
validated. A deletion must validate or exit 2 naming the key (or an
enclosing object); an unknown key must exit 2 naming its object; a
duplicate must exit 2 naming the repeated key by its dotted path.

An encoding-edge pass sets the `encoding` of each shipped config that has
one to a domain of encoded width q = 0 (twice), a one-point domain and a
domain of negative readings. Each must validate and run, or exit 2 naming
`encoding`. A generator pass gives `sensors.generator` of each scenario
config a kind or a key other than `{"kind": "uniform"}`; each must exit 2
naming it.

Sizes are shrunk first, so one run takes milliseconds.
"""

import json
from pathlib import Path

import pytest

from petfabric.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
FAN_IN_CONFIGS = sorted((ROOT / "perfbench" / "configs").glob("fan-in-*.json"))

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

EXTREMES = (5e-324, 1e-300, 1e9, 1e17, 1e306, -1e306, 2**62, 2**64)

#: leaves that size a run; the extreme pass validates them without a run
SIZE_FIELDS = {"repetitions", "reps", "trials", "n", "sensors.count"}

#: config name -> (file, subcommand, validate-config --kind, shrunk sizes)
EXTREME_CASES = {
    **{name: (CONFIGS / name, *SHIPPED[name]) for name in SHIPPED},
    **{
        path.name: (path, "run-scenario", "scenario", {"repetitions": 3})
        for path in FAN_IN_CONFIGS
    },
}


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


def mutation_failures(tmp_path, capsys, source, case, replacements, run_sizes=True):
    """What breaks the rule when each leaf of the config file `source`, with
    its sizes shrunk, takes each of `replacements` in turn; case is
    (subcommand, validate-config --kind, shrunk sizes)."""
    subcommand, kind, shrink = case
    raw = {**json.loads(source.read_text()), **shrink}
    path = tmp_path / source.name
    failures = []
    for leaf in leaves(raw):
        field = field_name(leaf)
        # the field itself or an enclosing object, as the message's subject
        subjects = tuple(field_name(leaf[:i]) for i in range(len(leaf), 0, -1))
        for value in replacements:
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
            if not run_sizes and field in SIZE_FIELDS:
                continue
            out = tmp_path / "out"
            code = main([subcommand, "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            allowed = {0, 1} if (field, value) in RUN_FAILURES else {0}
            if code not in allowed:
                failures.append(f"{field}={value!r}: {subcommand} exited {code}: {err!r}")
    return failures


@pytest.mark.parametrize("config", sorted(SHIPPED))
def test_single_field_mutations_run_or_exit_2_naming_the_field(tmp_path, capsys, config):
    failures = mutation_failures(tmp_path, capsys, CONFIGS / config, SHIPPED[config], REPLACEMENTS)
    assert not failures, "\n".join(failures)


def test_the_extreme_pass_covers_the_fan_in_configs():
    assert [p.name for p in FAN_IN_CONFIGS] == [
        f"fan-in-{pet}.json" for pet in ("ass", "gdp", "krr", "ldp", "none")
    ]


@pytest.mark.parametrize("config", sorted(EXTREME_CASES))
def test_extreme_magnitudes_run_or_exit_2_naming_the_field(tmp_path, capsys, config):
    source, *case = EXTREME_CASES[config]
    failures = mutation_failures(tmp_path, capsys, source, case, EXTREMES, run_sizes=False)
    assert not failures, "\n".join(failures)


KEY_MUTATIONS = ("delete", "unknown", "duplicate")

#: stands in for a value while its key is written out twice
TWICE = "@twice@"


def objects(node, path=()):
    """The path of every JSON object in `node`, the root first."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from objects(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from objects(value, path + (i,))


def at(node, path):
    for part in path:
        node = node[part]
    return node


def key_mutants(raw, mutation):
    """(path, JSON text) of each mutant: the path of the key deleted or
    named twice, or of the object given an unknown key "zz"."""
    for obj in objects(raw):
        if mutation == "unknown":
            yield obj, json.dumps(mutated(raw, obj + ("zz",), 1))
            continue
        for key, value in at(raw, obj).items():
            if mutation == "delete":
                copy = json.loads(json.dumps(raw))
                del at(copy, obj)[key]
                yield obj + (key,), json.dumps(copy)
            else:
                twice = f"{json.dumps(value)}, {json.dumps(key)}: {json.dumps(value)}"
                text = json.dumps(mutated(raw, obj + (key,), TWICE))
                yield obj + (key,), text.replace(json.dumps(TWICE), twice)


def key_mutation_failures(tmp_path, capsys, source, kind, shrink, mutation):
    """What breaks the rule of `mutation` in the config file `source`, with
    its sizes shrunk, validated as `kind`."""
    raw = {**json.loads(source.read_text()), **shrink}
    path = tmp_path / source.name
    failures = []
    for leaf, text in key_mutants(raw, mutation):
        field = field_name(leaf) or "config"
        path.write_text(text)
        capsys.readouterr()
        code = main(["validate-config", "--kind", kind, "--config", str(path)])
        err = capsys.readouterr().err
        subject = err.removeprefix("config error: ")
        if mutation == "delete":
            # the key itself or an enclosing object, as the message's subject
            subjects = tuple(field_name(leaf[:i]) for i in range(len(leaf), 0, -1))
            subject = subject.removeprefix("config.")
            ok = code == 0 or (code == 2 and any(names(subject, s) for s in subjects))
        elif mutation == "unknown":
            ok = code == 2 and subject.startswith(f"{field}: unknown keys ['zz']")
        else:
            ok = code == 2 and subject == f"{path}: {field}: duplicate key\n"
        if not ok:
            failures.append(f"{mutation} {field}: exit {code}: {err!r}")
    return failures


@pytest.mark.parametrize("config", sorted(EXTREME_CASES))
@pytest.mark.parametrize("mutation", KEY_MUTATIONS)
def test_key_mutations_validate_or_exit_2_naming_the_field(tmp_path, capsys, mutation, config):
    source, _, kind, shrink = EXTREME_CASES[config]
    failures = key_mutation_failures(tmp_path, capsys, source, kind, shrink, mutation)
    assert not failures, "\n".join(failures)


#: (k, x_lo, x_hi): two domains of width q = 0, a one-point domain and a
#: domain of negative readings
ENCODING_EDGES = ((1, 0.5, 0.7), (1, -0.7, -0.5), (1, 80, 80), (1, -120, -50))

ENCODED = sorted(name for name in SHIPPED if "encoding" in json.loads((CONFIGS / name).read_text()))


@pytest.mark.parametrize("config", ENCODED)
def test_encoding_edges_run_or_exit_2_naming_the_encoding(tmp_path, capsys, config):
    subcommand, kind, shrink = SHIPPED[config]
    raw = {**json.loads((CONFIGS / config).read_text()), **shrink}
    path = tmp_path / config
    failures = []
    for k, x_lo, x_hi in ENCODING_EDGES:
        path.write_text(json.dumps(dict(raw, encoding={"k": k, "x_lo": x_lo, "x_hi": x_hi})))
        capsys.readouterr()
        code = main(["validate-config", "--kind", kind, "--config", str(path)])
        refused = code == 2
        if code == 0:
            code = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if code != 0 and not (refused and names(err.removeprefix("config error: "), "encoding")):
            failures.append(f"({k}, {x_lo}, {x_hi}): exit {code}: {err!r}")
    assert not failures, "\n".join(failures)


#: sensors.generator objects other than {"kind": "uniform"}, each with the
#: refusal that names its field
GENERATOR_REFUSALS = (
    ({"kind": "constant", "value": 80}, "sensors.generator: unknown keys ['value']"),
    ({"kind": "uniform", "low": 80}, "sensors.generator: unknown keys ['low']"),
    ({"kind": "uniform", "value": 80}, "sensors.generator: unknown keys ['value']"),
    ({"kind": "constant"}, "sensors.generator.kind: unknown kind 'constant'"),
)

GENERATED = sorted(
    name
    for name, (source, *_) in EXTREME_CASES.items()
    if "generator" in json.loads(source.read_text()).get("sensors", {})
)


@pytest.mark.parametrize("config", GENERATED)
def test_a_generator_other_than_uniform_exits_2_naming_it(tmp_path, capsys, config):
    source, _, kind, shrink = EXTREME_CASES[config]
    raw = {**json.loads(source.read_text()), **shrink}
    path = tmp_path / source.name
    failures = []
    for generator, message in GENERATOR_REFUSALS:
        path.write_text(json.dumps(mutated(raw, ("sensors", "generator"), generator)))
        capsys.readouterr()
        code = main(["validate-config", "--kind", kind, "--config", str(path)])
        err = capsys.readouterr().err
        if code != 2 or not err.startswith(f"config error: {message}"):
            failures.append(f"{generator}: exit {code}: {err!r}")
    assert not failures, "\n".join(failures)
