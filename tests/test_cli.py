"""CLI: exit codes, manifests, CSV schemas, seed plumbing, determinism."""

import builtins
import concurrent.futures
import csv
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from petfabric import cli
from petfabric.adversary import GuessRateRow, guess_rate_grid
from petfabric.cli import main
from petfabric.scenarios.config import PLACEMENTS, adversary_from_dict, sweep_from_dict
from petfabric.scenarios.experiments import UtilityPoint, weight_sum_experiment

BASELINE = {
    "name": "baseline-on-device",
    "topology": {"kind": "on-device"},
    "pet": {"kind": "none"},
    "sensors": {"count": 1, "generator": {"kind": "uniform"}},
    "encoding": {"k": 1, "x_lo": 50, "x_hi": 120},
    "latency": "testbed",
    "compute_ms": 0.307,
    "repetitions": 5,
    "seed": 42,
}

SWEEP = {
    "n": 120,
    "encoding": {"k": 1, "x_lo": 50, "x_hi": 120},
    "model": "ldp",
    "eps_grid": [0.05, 0.1, 0.3, 0.5, 1.0, 2.0],
    "reps": 150,
    "seed": 3,
}

ADVERSARY = {
    "eps_grid": [0.5, 1.0],
    "gap_ratios": [0.5],
    "sensitivity": 1000,
    "trials": 20_000,
}

ASS_DEMO = {
    "n": 20,
    "m": 3,
    "encoding": {"k": 1, "x_lo": 50, "x_hi": 120},
    "repetitions": 15,
}

BENCH = {"latency": "testbed", "repetitions": 5}

#: validates, but injected share loss aborts the strict runner at run time
ASS_DROP = {**BASELINE, "name": "ass-drop", "pet": {"kind": "ass", "m": 3, "drop_one_share": True}}


def write(tmp_path, name, payload):
    """Write payload as JSON, or as it is when it is already bytes."""
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_scenario_outputs_and_manifest(tmp_path):
    cfg = write(tmp_path, "baseline.json", BASELINE)
    out = tmp_path / "out"
    assert main(["run-scenario", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "baseline-on-device_records.csv")
    assert rows[0] == ["scenario", "rep", "compute_ms", "hops", "end_to_end_ms", "seed"]
    assert len(rows) == 1 + 5
    assert rows[1][0] == "baseline-on-device" and rows[1][5] == "42"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "run-scenario"
    assert manifest["seed"] == 42
    assert manifest["config_sha256"] == hashlib.sha256(Path(cfg).read_bytes()).hexdigest()
    assert manifest["python"] == ".".join(map(str, sys.version_info[:3]))
    assert manifest["numpy"] == np.__version__
    assert manifest["workers"] == 1
    for name in manifest["outputs"]:
        assert (out / name).exists()


def test_the_package_version_is_stated_once():
    # pyproject.toml reads the version from petfabric.__version__, which
    # --version and manifest.json report
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "petfabric.__version__"
    }


def test_run_scenario_determinism_byte_identical(tmp_path):
    cfg = write(tmp_path, "baseline.json", BASELINE)
    for d in ("a", "b"):
        assert main(["run-scenario", "--config", cfg, "--out", str(tmp_path / d), "--seed", "7"]) == 0
    a = (tmp_path / "a" / "baseline-on-device_records.csv").read_bytes()
    b = (tmp_path / "b" / "baseline-on-device_records.csv").read_bytes()
    assert a == b


def test_seed_flag_overrides_config_and_env_is_not_read(tmp_path, monkeypatch):
    cfg = write(tmp_path, "baseline.json", BASELINE)
    out1 = tmp_path / "env"
    monkeypatch.setenv("PET_FABRIC_SEED", "1234")
    assert main(["run-scenario", "--config", cfg, "--out", str(out1)]) == 0
    assert json.loads((out1 / "manifest.json").read_text())["seed"] == BASELINE["seed"] == 42
    out2 = tmp_path / "flag"
    assert main(["run-scenario", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 9


def test_one_parser_per_process_and_no_seed_carries_over(tmp_path):
    cfg = write(tmp_path, "baseline.json", BASELINE)
    seeds = []
    for out, flags in (("flag", ["--seed", "7"]), ("config", [])):
        assert main(["run-scenario", "--config", cfg, "--out", str(tmp_path / out), *flags]) == 0
        seeds.append(json.loads((tmp_path / out / "manifest.json").read_text())["seed"])
    assert seeds == [7, BASELINE["seed"]]
    assert cli._build_parser() is cli._build_parser()


def test_sweep_epsilon_csv_schema_and_monotone_median(tmp_path):
    cfg = write(tmp_path, "sweep.json", SWEEP)
    out = tmp_path / "out"
    assert main(["sweep-epsilon", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "utility_ldp.csv")
    assert rows[0] == ["epsilon", "mean_abs_err", "median_abs_err", "std_err", "reps"]
    assert len(rows) == 1 + len(SWEEP["eps_grid"])
    medians = [float(r[2]) for r in rows[1:]]
    assert all(a >= b for a, b in zip(medians, medians[1:]))  # non-increasing in eps
    dataset = read_csv(out / "ground_truth.csv")
    assert dataset[0] == ["index", "weight"] and len(dataset) == 1 + SWEEP["n"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["ground_truth.csv", "utility_ldp.csv"]


def test_sweep_epsilon_determinism(tmp_path):
    cfg = write(tmp_path, "sweep.json", {**SWEEP, "eps_grid": [0.5], "n": 40})
    for d in ("a", "b"):
        assert main(["sweep-epsilon", "--config", cfg, "--out", str(tmp_path / d)]) == 0
    assert (tmp_path / "a" / "utility_ldp.csv").read_bytes() == (
        tmp_path / "b" / "utility_ldp.csv"
    ).read_bytes()


def test_adversary_sim_matches_analytic_within_ci(tmp_path):
    cfg = write(tmp_path, "adv.json", ADVERSARY)
    out = tmp_path / "out"
    assert main(["adversary-sim", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    rows = read_csv(out / "adversary_guess_rates.csv")
    assert rows[0] == [
        "epsilon",
        "gap_ratio",
        "analytic_pg",
        "empirical_pg",
        "trials",
        "ci_halfwidth",
    ]
    for row in rows[1:]:
        analytic, empirical, ci = float(row[2]), float(row[3]), float(row[5])
        assert abs(empirical - analytic) <= ci


def test_ass_demo_rows_within_bound(tmp_path):
    cfg = write(tmp_path, "demo.json", ASS_DEMO)
    out = tmp_path / "out"
    assert main(["ass-demo", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "ass_demo.csv")
    assert len(rows) == 1 + ASS_DEMO["repetitions"]
    for row in rows[1:]:
        assert row[4] == "ok"
        assert row[9] == "True"  # decoded average within 1/k of the truth
        assert int(row[5]) == int(row[6])  # encoded sum reconstructed exactly


def test_ass_demo_with_loss_names_missing_shares(tmp_path):
    cfg = write(tmp_path, "demo.json", {**ASS_DEMO, "drop_one_share": True})
    out = tmp_path / "out"
    assert main(["ass-demo", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "ass_demo.csv")
    for row in rows[1:]:
        assert row[4] == "missing-share"
        sensor, channel = row[10].split(":")
        assert sensor.startswith("s") and 1 <= int(channel) <= 3


def test_ass_demo_rejects_a_string_flag(tmp_path, capsys):
    cfg = write(tmp_path, "demo.json", {**ASS_DEMO, "drop_one_share": "false"})
    assert main(["ass-demo", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "drop_one_share" in capsys.readouterr().err


def test_bench_suite_ordering(tmp_path):
    cfg = write(tmp_path, "bench.json", BENCH)
    out = tmp_path / "out"
    assert main(["bench-suite", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "bench_suite.csv")
    assert [r[0] for r in rows[1:]] == [
        "baseline-on-device",
        "ldp-on-device",
        "gdp-on-device",
        "gdp-virtualized",
        "ass-on-device",
        "ass-virtualized",
    ]
    means = [float(r[5]) for r in rows[1:]]
    assert means[0] < means[1] <= means[2] < means[3] < means[4] < means[5]
    assert [int(r[3]) for r in rows[1:]] == [2, 2, 2, 4, 6, 8]


def test_bench_suite_seed_flag_and_compute_override_are_pinned(tmp_path):
    # a jittered preset: under the constant testbed one no row depends on the seed
    config = {"latency": "eth", "repetitions": 3, "compute_ms": {"gdp-virtualized": 2.5}}

    def run(name, config_seed, *flags):
        cfg = write(tmp_path, f"{name}.json", {**config, "seed": config_seed})
        out = tmp_path / name
        assert main(["bench-suite", "--config", cfg, "--out", str(out), *flags]) == 0
        return (out / "bench_suite.csv").read_bytes()

    pinned = run("flag", 3, "--seed", "11")
    assert hashlib.sha256(pinned).hexdigest() == (
        "e9d28d3f0383429ed63f33bd26b31a7f8c9de1a792934aa7c9daf2b3b64ca17a"
    )
    rows = list(csv.reader(pinned.decode().splitlines()))[1:]
    reference = {name: ms for name, *_, ms in PLACEMENTS}
    assert {r[0]: float(r[4]) for r in rows} == {**reference, "gdp-virtualized": 2.5}
    assert pinned == run("config-11", 11)
    assert pinned != run("config-3", 3)


def test_validate_config_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.json", BASELINE)
    assert main(["validate-config", "--config", good]) == 0
    bad = write(
        tmp_path,
        "bad.json",
        {**BASELINE, "pet": {"kind": "ass", "m": 1, "drop_one_share": True}},
    )
    assert main(["validate-config", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "pet.m" in err  # field-level diagnostic on stderr
    assert main(["validate-config", "--config", str(tmp_path / "missing.json")]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert main(["validate-config", "--config", str(notjson)]) == 2


def test_a_virtualized_config_without_a_pet_exits_2_naming_pet_kind(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {**BASELINE, "topology": {"kind": "virtualized"}})
    message = (
        "config error: pet.kind: none has no virtualized form;"
        " forwarding through one node is relay-chain with depth 1\n"
    )
    assert main(["validate-config", "--config", cfg]) == 2
    assert capsys.readouterr().err == message
    out = tmp_path / "out"
    assert main(["run-scenario", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run-scenario", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand,kind,config,field",
    [
        ("sweep-epsilon", "sweep", {**SWEEP, "sensitivity": 0}, "sensitivity"),
        ("sweep-epsilon", "sweep", {**SWEEP, "eps_grid": [0.5, "1"]}, "eps_grid[1]"),
        ("sweep-epsilon", "sweep", {**SWEEP, "reps": 150.0}, "reps"),
        ("adversary-sim", "adversary", {**ADVERSARY, "trials": True}, "trials"),
        ("adversary-sim", "adversary", {**ADVERSARY, "sensitivity": 0}, "sensitivity"),
        ("adversary-sim", "adversary", {**ADVERSARY, "gap_ratios": [float("nan")]}, "gap_ratios[0]"),
        ("bench-suite", "bench", {**BENCH, "repetitions": 2.5}, "repetitions"),
        ("bench-suite", "bench", {**BENCH, "epsilon": float("inf")}, "epsilon"),
        ("bench-suite", "bench", {**BENCH, "compute_ms": {"baseline": "1"}}, "compute_ms.baseline"),
        ("ass-demo", "ass-demo", {**ASS_DEMO, "n": "12"}, "n"),
        ("ass-demo", "ass-demo", {**ASS_DEMO, "seed": 1.0}, "seed"),
        ("adversary-sim", "adversary", {**ADVERSARY, "eps_grid": [0.5, 0]}, "eps_grid[1]"),
        ("adversary-sim", "adversary", {**ADVERSARY, "gap_ratios": [0.5, 0.0004]}, "gap_ratios[1]"),
        (
            "ass-demo", "ass-demo",
            {**ASS_DEMO, "n": 100, "encoding": {"k": 10**15, "x_lo": 50, "x_hi": 120}},
            "encoding.k",
        ),
        (
            "sweep-epsilon", "sweep",
            {**SWEEP, "encoding": {"k": 10**16, "x_lo": 50, "x_hi": 120}},
            "encoding.k",
        ),
        ("adversary-sim", "adversary", {**ADVERSARY, "prefix_sum": 0}, "config"),
        ("sweep-epsilon", "sweep", {**SWEEP, "eps_grid": [1e-17]}, "eps_grid[0]"),
        ("sweep-epsilon", "sweep", {**SWEEP, "model": "gdp", "eps_grid": [1.0, 1e-320]}, "eps_grid[1]"),
        ("sweep-epsilon", "sweep", {**SWEEP, "sensitivity": 10**400}, "sensitivity"),
        ("adversary-sim", "adversary", {**ADVERSARY, "eps_grid": [1e-320]}, "eps_grid[0]"),
        ("adversary-sim", "adversary", {**ADVERSARY, "sensitivity": 10**400}, "sensitivity"),
        ("bench-suite", "bench", {**BENCH, "epsilon": 1e-17}, "epsilon"),
        (
            "adversary-sim", "adversary",
            {**ADVERSARY, "sensitivity": 10**10, "gap_ratios": [1e300]},
            "gap_ratios[0]",
        ),
        ("adversary-sim", "adversary", {**ADVERSARY, "gap_ratios": [1e20]}, "gap_ratios[0]"),
        ("sweep-epsilon", "sweep", {**SWEEP, "n": 0}, "n"),
        ("sweep-epsilon", "sweep", {**SWEEP, "model": "local"}, "model"),
        ("sweep-epsilon", "sweep", {**SWEEP, "eps_grid": []}, "eps_grid"),
        ("sweep-epsilon", "sweep", {**SWEEP, "eps_grid": [0.0]}, "eps_grid[0]"),
        ("sweep-epsilon", "sweep", {**SWEEP, "reps": 10}, "reps"),
        ("run-scenario", "scenario", {**BASELINE, "compute_ms": 1e17}, "compute_ms"),
        ("run-scenario", "scenario", {**BASELINE, "compute_ms": 1e306}, "compute_ms"),
        (
            "run-scenario", "scenario",
            {**BASELINE, "latency": {"per_hop_mean_ms": 1e306}},
            "latency.per_hop_mean_ms",
        ),
        ("bench-suite", "bench", {**BENCH, "compute_ms": {"baseline": 1e17}}, "compute_ms.baseline"),
        ("ass-demo", "ass-demo", {**ASS_DEMO, "n": 10, "repetitions": 3, "m": 2**62}, "m"),
        ("ass-demo", "ass-demo", {**ASS_DEMO, "m": 1025}, "m"),
        ("bench-suite", "bench", {**BENCH, "m": 2**62}, "m"),
        ("run-scenario", "scenario", {**BASELINE, "pet": {"kind": "ass", "m": 1025}}, "pet.m"),
        (
            "run-scenario", "scenario",
            {
                **BASELINE,
                "pet": {"kind": "ldp", "epsilon": 0.01},
                "encoding": {"k": 1, "x_lo": 50, "x_hi": 1e17},
            },
            "encoding",
        ),
        (
            "sweep-epsilon", "sweep",
            {**SWEEP, "n": 1, "encoding": {"k": 1, "x_lo": -1e17, "x_hi": 120}},
            "encoding",
        ),
        ("sweep-epsilon", "sweep", {**SWEEP, "sensitivity": 2**55, "eps_grid": [1.0]}, "sensitivity"),
        # a duplicate key, at any depth, is refused, not resolved to its last value
        pytest.param(
            "run-scenario", "scenario",
            json.dumps(BASELINE)[:-1].encode() + b', "seed": 43}', "seed",
            id="duplicate-seed",
        ),
        pytest.param(
            "ass-demo", "ass-demo",
            json.dumps(ASS_DEMO).replace('"k": 1', '"k": 1, "k": 2').encode(), "k",
            id="duplicate-encoding.k",
        ),
        # a file that is not UTF-8 is named, not reported as a bare codec error
        pytest.param(
            "run-scenario", "scenario",
            b"\xff\xfe" + json.dumps(BASELINE).encode(), "bad.json",
            id="not-utf-8",
        ),
        # past the parser's recursion limit or its integer digit limit
        pytest.param(
            "run-scenario", "scenario",
            b'{"name": ' + b"[" * 5000 + b"]" * 5000 + b"}", "bad.json",
            id="nested-too-deep-arrays",
        ),
        pytest.param(
            "run-scenario", "scenario",
            b'{"name": ' + b'{"a": ' * 5000 + b"0" + b"}" * 5000 + b"}", "bad.json",
            id="nested-too-deep-objects",
        ),
        pytest.param(
            "run-scenario", "scenario",
            json.dumps(BASELINE).replace('"seed": 42', '"seed": ' + "9" * 5000).encode(),
            "bad.json",
            id="int-over-4300-digits",
        ),
        # null is refused, as for latency, m and epsilon, not read as absent
        pytest.param(
            "bench-suite", "bench", {**BENCH, "compute_ms": None}, "compute_ms",
            id="null-compute_ms",
        ),
        pytest.param(
            "run-scenario", "scenario",
            {**BASELINE, "pet": {"kind": "gdp", "epsilon": 1.0, "aggregator": None}},
            "pet.aggregator",
            id="null-pet.aggregator",
        ),
        pytest.param(
            "run-scenario", "scenario", {**BASELINE, "pet": {"kind": "none", "epsilon": None}},
            "pet.epsilon",
            id="null-pet.epsilon",
        ),
        pytest.param(
            "run-scenario", "scenario", {**BASELINE, "pet": {"kind": "none", "m": None}}, "pet.m",
            id="null-pet.m",
        ),
        pytest.param(
            "sweep-epsilon", "sweep", {**SWEEP, "sensitivity": None}, "sensitivity",
            id="null-sweep-sensitivity",
        ),
        pytest.param(
            "sweep-epsilon", "sweep", {**SWEEP, "seed": None}, "seed", id="null-sweep-seed"
        ),
        pytest.param(
            "adversary-sim", "adversary", {**ADVERSARY, "seed": None}, "seed",
            id="null-adversary-seed",
        ),
        pytest.param(
            "ass-demo", "ass-demo", {**ASS_DEMO, "seed": None}, "seed", id="null-ass-demo-seed"
        ),
        pytest.param("bench-suite", "bench", {**BENCH, "seed": None}, "seed", id="null-bench-seed"),
        ("sweep-epsilon", "sweep", {**SWEEP, "sensitivity": 1}, "sensitivity"),
    ],
)
def test_experiment_config_rejections_name_the_field(
    tmp_path, capsys, subcommand, kind, config, field
):
    cfg = write(tmp_path, "bad.json", config)
    assert main(["validate-config", "--kind", kind, "--config", cfg]) == 2
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"{field}: ") == 2, err


def test_sweep_sensitivity_below_the_occupied_width_is_refused(tmp_path, capsys):
    # on [50, 120] readings encode to [100, 170]: one record moves the sum by up to 70
    assert sweep_from_dict({**SWEEP, "sensitivity": 70})["sensitivity"] == 70
    cfg = write(tmp_path, "low.json", {**SWEEP, "sensitivity": 69})
    out = tmp_path / "out"
    assert main(["sweep-epsilon", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: sensitivity: 69 is below the encoding's occupied width"
        " encode(x_hi) - encode(x_lo) = 70\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "load,config,runner",
    [
        (sweep_from_dict, SWEEP, weight_sum_experiment),
        (adversary_from_dict, ADVERSARY, guess_rate_grid),
    ],
    ids=["sweep", "adversary"],
)
def test_experiment_loaders_return_their_runners_arguments(load, config, runner):
    # the CLI passes the loaded config to the runner as **kwargs
    assert set(load(config)) == set(inspect.signature(runner).parameters)


def _sensors(count):
    return {"count": count, "generator": {"kind": "uniform"}}


ASS_SCENARIO = {**BASELINE, "pet": {"kind": "ass", "m": 4}}

#: (validate-config --kind, config at the 2**20-value cap, one value over it,
#: the field the refusal names)
ELEMENT_CAP = [
    ("scenario", {**BASELINE, "sensors": _sensors(2**20)},
     {**BASELINE, "sensors": _sensors(2**20 + 1)}, "sensors.count"),
    ("scenario", {**ASS_SCENARIO, "sensors": _sensors(2**18)},
     {**ASS_SCENARIO, "sensors": _sensors(2**18 + 1)}, "sensors.count"),
    ("sweep", {**SWEEP, "n": 2**20}, {**SWEEP, "n": 2**20 + 1}, "n"),
    ("ass-demo", {**ASS_DEMO, "n": 2**19, "m": 2}, {**ASS_DEMO, "n": 2**19 + 1, "m": 2}, "n"),
    ("ass-demo", {**ASS_DEMO, "n": 2**10, "m": 2**10},
     {**ASS_DEMO, "n": 2**10 + 1, "m": 2**10}, "n"),
    ("adversary", {**ADVERSARY, "trials": 2**20}, {**ADVERSARY, "trials": 2**20 + 1}, "trials"),
    ("sweep", {**SWEEP, "reps": 2**20}, {**SWEEP, "reps": 2**20 + 1}, "reps"),
    ("scenario", {**BASELINE, "topology": {"kind": "relay-chain", "depth": 2**20}},
     {**BASELINE, "topology": {"kind": "relay-chain", "depth": 2**20 + 1}}, "topology.depth"),
]


@pytest.mark.parametrize("kind,at_cap,over_cap,field", ELEMENT_CAP)
def test_element_cap_is_inclusive_and_names_the_field(
    tmp_path, capsys, kind, at_cap, over_cap, field
):
    # validate-config only: an accepted config at the cap runs as large as it says
    validate = ["validate-config", "--kind", kind, "--config"]
    assert main(validate + [write(tmp_path, "a.json", at_cap)]) == 0
    assert main(validate + [write(tmp_path, "b.json", over_cap)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: at most 1048576 values per repetition"), err


@pytest.mark.parametrize(
    "kind,config,field",
    [
        ("scenario", {**BASELINE, "sensors": _sensors(2**50)}, "sensors.count"),
        ("sweep", {**SWEEP, "n": 2**50, "eps_grid": [1e9]}, "n"),
        ("ass-demo", {**ASS_DEMO, "n": 2**50}, "n"),
        ("adversary", {**ADVERSARY, "trials": 2**50}, "trials"),
        ("sweep", {**SWEEP, "reps": 2**62}, "reps"),
    ],
)
def test_huge_sizes_are_refused_at_load(tmp_path, capsys, kind, config, field):
    # each of these used to print "valid"; a run would allocate 2**50 readings
    cfg = write(tmp_path, "c.json", config)
    assert main(["validate-config", "--kind", kind, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: at most "), field


CONFIGS = {
    "run-scenario": BASELINE,
    "sweep-epsilon": SWEEP,
    "adversary-sim": ADVERSARY,
    "ass-demo": ASS_DEMO,
    "bench-suite": BENCH,
}


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
@pytest.mark.parametrize("source", ["--seed", "seed", "seed-with-flag"])
def test_negative_seed_exits_2_naming_its_source(tmp_path, capsys, subcommand, source):
    config = CONFIGS[subcommand]
    argv = [subcommand, "--out", str(tmp_path / "o")]
    if source == "--seed":
        argv += ["--seed", "-1"]
    else:
        config = {**config, "seed": -1}
    if source == "seed-with-flag":  # the file's seed is checked even when --seed replaces it
        argv += ["--seed", "5"]
    argv += ["--config", write(tmp_path, "cfg.json", config)]
    assert main(argv) == 2
    field = "--seed" if source == "--seed" else "seed"
    assert capsys.readouterr().err == f"config error: {field}: must be >= 0, got -1\n"
    assert not (tmp_path / "o").exists()


def test_bad_seed_exits_2_before_the_config_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    argv = ["run-scenario", "--config", missing, "--out", str(tmp_path / "o"), "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: --seed: must be >= 0, got -1\n"


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
def test_each_run_reads_its_config_once(tmp_path, monkeypatch, subcommand):
    cfg = write(tmp_path, "cfg.json", CONFIGS[subcommand])
    real_open = io.open
    reads = []

    def counting_open(file, *args, **kwargs):
        # Path.read_bytes and Path.read_text open through io.open
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == cfg:
            reads.append(args)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(reads) == 1, reads


@pytest.mark.parametrize("change", ["rewritten", "deleted"])
def test_manifest_hashes_the_config_that_ran(tmp_path, monkeypatch, change):
    cfg = Path(write(tmp_path, "baseline.json", BASELINE))
    ran = hashlib.sha256(cfg.read_bytes()).hexdigest()
    run = cli.run_scenario

    def change_then_run(spec, **kwargs):
        if change == "deleted":
            cfg.unlink()
        else:
            cfg.write_text(json.dumps({**BASELINE, "seed": 7}))
        return run(spec, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", change_then_run)
    out = tmp_path / "out"
    assert main(["run-scenario", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config_sha256"] == ran


@pytest.mark.parametrize("subcommand", ["run-scenario", "bench-suite"])
@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_parallel_below_one_exits_2(tmp_path, capsys, subcommand, parallel):
    cfg = write(tmp_path, "cfg.json", CONFIGS[subcommand])
    out = tmp_path / "o"
    argv = [subcommand, "--config", cfg, "--out", str(out), "--parallel", parallel]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: --parallel: must be >= 1, got {parallel}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [" 1_0 ", "1_0", "+7", "\uff11\uff12", ""])
def test_seed_flag_must_be_ascii_digits(tmp_path, capsys, value):
    cfg = write(tmp_path, "demo.json", ASS_DEMO)
    out = tmp_path / "o"
    assert main(["ass-demo", "--config", cfg, "--out", str(out), "--seed", value]) == 2
    assert capsys.readouterr().err == f"config error: --seed: not an integer: {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["--seed"])
def test_seed_over_the_digit_limit_exits_2_naming_its_source(tmp_path, capsys, source):
    seed = "9" * 5000
    argv = ["ass-demo", "--config", write(tmp_path, "demo.json", ASS_DEMO), "--seed", seed]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"config error: {source}: more than {limit} digits\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["run-scenario", "bench-suite"])
@pytest.mark.parametrize("parallel", ["65", "1000000"])
def test_parallel_over_max_workers_exits_2_before_any_process(
    tmp_path, capsys, monkeypatch, subcommand, parallel
):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = write(tmp_path, "cfg.json", CONFIGS[subcommand])
    out = tmp_path / "o"
    argv = [subcommand, "--config", cfg, "--out", str(out), "--parallel", parallel]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: --parallel: at most 64 worker processes, got {parallel}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
@pytest.mark.parametrize("blocker", ["file", "path-under-file", "dangling-link"])
def test_out_that_is_not_a_directory_exits_2_before_the_run(
    tmp_path, capsys, subcommand, blocker
):
    cfg = write(tmp_path, "cfg.json", CONFIGS[subcommand])
    taken = tmp_path / "taken"
    if blocker == "dangling-link":
        taken.symlink_to(tmp_path / "nowhere")
    else:
        taken.write_text("kept\n")
    out = taken / "o" if blocker == "path-under-file" else taken
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: --out: {taken} is not a directory\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "cfg.json", taken]


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
def test_empty_out_exits_2_and_writes_nothing(
    tmp_path, tmp_path_factory, capsys, monkeypatch, subcommand
):
    # Path("") is the working directory, so an empty --out would write into it
    cfg = write(tmp_path_factory.mktemp("cfg"), "cfg.json", CONFIGS[subcommand])
    monkeypatch.chdir(tmp_path)
    assert main([subcommand, "--config", cfg, "--out", ""]) == 2
    assert capsys.readouterr().err == "config error: --out: must not be empty\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag", [["--seed", "5"], ["--seed", "-5"], ["--parallel", "2"], ["--parallel", "-3"]]
)
def test_validate_config_takes_no_seed_or_parallel(tmp_path, capsys, flag):
    cfg = write(tmp_path, "cfg.json", BASELINE)
    with pytest.raises(SystemExit) as exc:
        main(["validate-config", "--config", cfg, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_validate_config_other_kinds(tmp_path):
    assert main(["validate-config", "--kind", "sweep",
                 "--config", write(tmp_path, "s.json", SWEEP)]) == 0
    assert main(["validate-config", "--kind", "adversary",
                 "--config", write(tmp_path, "a.json", ADVERSARY)]) == 0
    assert main(["validate-config", "--kind", "ass-demo",
                 "--config", write(tmp_path, "d.json", ASS_DEMO)]) == 0
    assert main(["validate-config", "--kind", "bench",
                 "--config", write(tmp_path, "b.json", BENCH)]) == 0
    assert main(["validate-config", "--kind", "sweep",
                 "--config", write(tmp_path, "sx.json", {**SWEEP, "bogus": 1})]) == 2


def test_unknown_config_keys_rejected_everywhere(tmp_path):
    cfg = write(tmp_path, "adv.json", {**ADVERSARY, "zzz": 1})
    assert main(["adversary-sim", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_parallel_flag_gives_identical_csv(tmp_path):
    cfg = write(tmp_path, "baseline.json", {**BASELINE, "repetitions": 6})
    for d, par in (("a", "1"), ("b", "3")):
        assert main(
            ["run-scenario", "--config", cfg, "--out", str(tmp_path / d), "--parallel", par]
        ) == 0
    assert (tmp_path / "a" / "baseline-on-device_records.csv").read_bytes() == (
        tmp_path / "b" / "baseline-on-device_records.csv"
    ).read_bytes()


def test_runtime_error_exit_code(tmp_path):
    # a validated config can still fail at run time: injected share loss
    # aborts the strict runner with a missing-share error
    cfg = write(tmp_path, "drop.json", ASS_DROP)
    assert main(["validate-config", "--config", cfg]) == 0
    assert main(["run-scenario", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_verbose_runtime_error_prints_its_traceback(tmp_path, capsys):
    cfg = write(tmp_path, "drop.json", ASS_DROP)
    assert main(["run-scenario", "--config", cfg, "--out", str(tmp_path / "o"), "-v"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("petfabric: runtime error\nTraceback (most recent call last):\n"), err
    assert "\npetfabric.ass.MissingShareError: cannot reconstruct" in err, err
    assert err.endswith("\nerror: cannot reconstruct, missing shares: (s0, channel 2)\n"), err


def test_verbose_works_on_every_call_in_one_process(tmp_path):
    # a fresh interpreter, so that the first main() call is the process's first
    cfg = write(tmp_path, "demo.json", {**ASS_DEMO, "n": 5, "repetitions": 2})
    out = tmp_path / "out"
    code = (
        "import sys\n"
        "from petfabric.cli import main\n"
        "assert main(['validate-config', '--kind', 'ass-demo', '--config', sys.argv[1]]) == 0\n"
        "sys.exit(main(['ass-demo', '--config', sys.argv[1], '--out', sys.argv[2], '-v']))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, cfg, str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"petfabric: wrote {out / 'ass_demo.csv'}\n" in proc.stderr, proc.stderr


def test_readme_csv_schemas_match_the_writers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### CSV schemas", 1)[1].split("\n#", 1)[0]
    # the table's rows only: a prose note in the section may hold code spans
    header, separator, *rows = [
        line.strip("|").split("|") for line in section.splitlines() if line.startswith("|")
    ]
    assert [cell.strip() for cell in header] == ["report", "file", "columns"]
    assert {cell.strip() for cell in separator} == {"---"}
    documented = {file.strip(" `"): columns.strip(" `").split(", ") for _, file, columns in rows}
    assert documented == {
        "<name>_records.csv": cli.RECORD_COLUMNS,
        "utility_<model>.csv": list(UtilityPoint._fields),
        "ground_truth.csv": cli.GROUND_TRUTH_COLUMNS,
        "adversary_guess_rates.csv": list(GuessRateRow._fields),
        "ass_demo.csv": cli.ASS_DEMO_COLUMNS,
        "bench_suite.csv": cli.BENCH_COLUMNS,
    }
