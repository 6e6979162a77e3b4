"""The benchmark's three workloads: the reports each one runs, the inputs
they are built from, and the layer call counts those inputs imply.

Every workload is a batch job with a single caller that waits for each call
to finish: a closed loop with one client and no arrival rate, run serially
with workers=1. A report drives petfabric only through its public entry
points (``petfabric.cli.main``, ``scenarios.load_scenario`` and
``scenarios.load_test``). Its inputs are written from the shipped configs,
or from this directory's own ``configs/``, with the workload seed added to
each config's seed, so workload seed 0 reproduces the shipped defaults.

Why these three:

* ``placement-suite`` repeats a fresh broker for 1 to 6 envelopes, so fixed
  per-repetition cost (broker set-up, ACL grants, subscribe) dominates.
* ``fan-in`` publishes 64 to 192 envelopes, plus filler, per broker, so
  per-message cost (CBOR, envelopes, publish, ACL checks, hop draws) does.
* ``batch-privacy`` never touches the broker; numpy Laplace blocks, the
  distinguisher and share split/reconstruct do the work. A fabric
  optimisation predicts no change here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SHIPPED_CONFIGS = ROOT / "configs"
FAN_IN_CONFIGS = BENCH_DIR / "configs"

DEFAULT_SEED = 0
WORKLOADS = ("placement-suite", "fan-in", "batch-privacy")

FILLER_RATE_PER_S = 400.0
FILLER_WINDOW_S = 0.05

SCENARIO_CONFIGS = ("baseline", "ldp-on-device", "gdp-virtualized", "ass-on-device", "relay-chain")
FAN_IN_PETS = ("none", "ldp", "krr", "gdp", "ass")

#: The paper's six placements as petfabric.scenarios.benchmark_suite builds
#: them: (topology, pet, sensors).
SUITE_PLACEMENTS = (
    ("on-device", "none", 1),
    ("on-device", "ldp", 1),
    ("on-device", "gdp", 3),
    ("virtualized", "gdp", 3),
    ("on-device", "ass", 1),
    ("virtualized", "ass", 1),
)

#: Config overrides that shrink every report for the benchmark's own tests.
TINY = {
    "bench-suite": {"repetitions": 3},
    "scenario": {"repetitions": 3},
    "sweep-epsilon": {"n": 20, "reps": 100},
    "adversary-sim": {"trials": 500},
    "ass-demo": {"n": 10, "repetitions": 3},
}


class ReportFailed(Exception):
    """A report exited non-zero or left no readable output."""


@dataclass(frozen=True)
class Report:
    """One call into petfabric, timed as a unit.

    kind: the config schema, as ``petfabric validate-config --kind`` names it.
    units: work done by one call, by throughput metric (e.g. scenario_reps).
    expected: layer call counts one call must make (the coverage self-check).
    invoke: the timed call; its return value is handed to digest.
    digest: output name -> sha256 of the bytes the call produced.
    """

    name: str
    kind: str
    config: Path
    units: dict[str, int]
    expected: Counter
    invoke: Callable[[], object]
    digest: Callable[[object], dict[str, str]]
    out_dir: Optional[Path] = None

    def prepare(self) -> None:
        """Remove the previous call's outputs, so a report that writes
        nothing cannot pass on stale files."""
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# Expected layer call counts
# --------------------------------------------------------------------------

def rep_counts(topology: str, pet: str, n: int, m: int = 0, depth: int = 0, filler: int = 0) -> Counter:
    """Calls one scenario repetition makes into each traced layer.

    Publishes: on-device n (raw/ldp/krr), 1 (gdp), n*m (ass); virtualized
    n+1 (raw/gdp), 1+m (ass); relay-chain depth+1; plus the filler. Every
    publish has exactly one subscriber, so one delivery and two hop samples.
    Payloads are decoded where the flow reads them back; ass shares reach
    the consumer undecoded.
    """
    if topology == "relay-chain":
        publishes = decodes = subscribes = depth + 1
    elif topology == "on-device":
        if pet == "ass":
            publishes, decodes = n * m, 0
        elif pet == "gdp":
            publishes, decodes = 1, 1
        else:
            publishes, decodes = n, n
        subscribes = 1
    elif pet == "ass":
        publishes, decodes, subscribes = 1 + m, 1, 2
    else:
        publishes, decodes, subscribes = n + 1, n + 1, 2
    if filler:
        subscribes += 1
    sent = publishes + filler
    counts = Counter(
        {
            "scenarios.runner.rep": 1,
            "fabric.broker.init": 1,
            "fabric.broker.publish": sent,
            "fabric.broker.subscribe": subscribes,
            "fabric.broker.deliveries": sent,
            "fabric.broker.hop_sample": 2 * sent,
            "fabric.broker.acl_check": 2 * sent + subscribes,
            "fabric.broker.filler_published": filler,
            "fabric.cbor.encode": sent,
            "fabric.cbor.decode": decodes,
            "fabric.envelope.construct": sent + decodes,
            "codec.encode": n,
            "codec.decode": 1,
        }
    )
    if pet == "ldp":
        counts["dp.laplace_scalar"] += n
    elif pet == "krr":
        counts["dp.krr_perturb"] += n
    elif pet == "gdp":
        counts["dp.gdp_aggregate"] += 1
        counts["dp.laplace_scalar"] += 1
    elif pet == "ass":
        bundles = n if topology == "on-device" else 1
        counts.update(
            {
                "ass.choose_modulus": 1,
                "ass.split": bundles,
                "ass.reconstruct_sum": 1,
                "ass.reconstruct_sum.bundles": bundles,
            }
        )
    return counts


def _times(counts: Counter, k: int) -> Counter:
    return Counter({key: value * k for key, value in counts.items()})


def _scenario_shape(raw: dict) -> tuple[str, str, int, int, int]:
    topology = raw["topology"]
    pet = raw["pet"]
    n = raw.get("sensors", {}).get("count", 1)
    return topology["kind"], pet["kind"], n, pet.get("m") or 0, topology.get("depth", 0)


# --------------------------------------------------------------------------
# Report builders
# --------------------------------------------------------------------------

def _materialize(raw: dict, seed: int, overrides: Optional[dict], path: Path) -> dict:
    raw = dict(raw, seed=raw.get("seed", 0) + seed, **(overrides or {}))
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return raw


def _cli_report(name, subcommand, kind, raw, inputs, outputs, units, expected) -> Report:
    config = inputs / f"{name}.json"
    out = outputs / name
    argv = [
        subcommand,
        "--config", str(config),
        "--out", str(out),
        "--seed", str(raw["seed"]),
        "--parallel", "1",
    ]

    def invoke():
        from petfabric import cli

        code = cli.main(argv)
        if code != 0:
            raise ReportFailed(f"petfabric {subcommand} exited with {code}")

    def digest(_result) -> dict[str, str]:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return {name: sha256_file(out / name) for name in manifest["outputs"]}

    expected = expected + Counter({"cli.main": 1})
    return Report(name, kind, config, units, expected, invoke, digest, out)


def _load_test_report(name, config, units, expected) -> Report:
    def invoke():
        from petfabric import scenarios

        spec = scenarios.load_scenario(config)
        return scenarios.load_test(
            spec, rate_per_s=FILLER_RATE_PER_S, filler_window_s=FILLER_WINDOW_S
        )

    def digest(comparison) -> dict[str, str]:
        text = json.dumps(dataclasses.asdict(comparison), sort_keys=True)
        return {"load_comparison.json": hashlib.sha256(text.encode("utf-8")).hexdigest()}

    return Report(name, "scenario", config, units, expected, invoke, digest)


def _shipped(name: str) -> dict:
    return json.loads((SHIPPED_CONFIGS / f"{name}.json").read_text(encoding="utf-8"))


def _placement_suite(seed, inputs, outputs, tiny) -> list[Report]:
    raw = _materialize(
        _shipped("bench-suite"), seed, tiny and TINY["bench-suite"], inputs / "bench-suite.json"
    )
    reps, m = raw["repetitions"], raw["m"]
    per_rep = sum((rep_counts(t, p, n, m) for t, p, n in SUITE_PLACEMENTS), Counter())
    expected = _times(per_rep, reps) + Counter(
        {"scenarios.runner.run_scenario": 6, "scenarios.runner.run": 6}
    )
    reports = [
        _cli_report(
            "bench-suite", "bench-suite", "bench", raw, inputs, outputs,
            {"scenario_reps": 6 * reps}, expected,
        )
    ]
    for config in SCENARIO_CONFIGS:
        name = f"run-scenario-{config}"
        raw = _materialize(
            _shipped(config), seed, tiny and TINY["scenario"], inputs / f"{name}.json"
        )
        topology, pet, n, m, depth = _scenario_shape(raw)
        reps = raw["repetitions"]
        expected = _times(rep_counts(topology, pet, n, m, depth), reps) + Counter(
            {"scenarios.runner.run_scenario": 1, "scenarios.runner.run": 1}
        )
        reports.append(
            _cli_report(
                name, "run-scenario", "scenario", raw, inputs, outputs,
                {"scenario_reps": reps}, expected,
            )
        )
    return reports


def _fan_in(seed, inputs, outputs, tiny) -> list[Report]:
    filler = int(FILLER_RATE_PER_S * FILLER_WINDOW_S)
    reports = []
    for pet in FAN_IN_PETS:
        name = f"load-test-{pet}"
        source = json.loads((FAN_IN_CONFIGS / f"fan-in-{pet}.json").read_text(encoding="utf-8"))
        config = inputs / f"{name}.json"
        raw = _materialize(source, seed, tiny and TINY["scenario"], config)
        topology, kind, n, m, depth = _scenario_shape(raw)
        reps = raw["repetitions"]
        expected = (
            _times(rep_counts(topology, kind, n, m, depth), reps)
            + _times(rep_counts(topology, kind, n, m, depth, filler), reps)
            + Counter({"scenarios.experiments.load_test": 1, "scenarios.runner.run": 2})
        )
        reports.append(_load_test_report(name, config, {"scenario_reps": 2 * reps}, expected))
    return reports


def _batch_privacy(seed, inputs, outputs, tiny) -> list[Report]:
    reports = []
    for model in ("ldp", "gdp"):
        name = f"sweep-epsilon-{model}"
        overrides = dict(TINY["sweep-epsilon"] if tiny else {}, model=model)
        raw = _materialize(_shipped("sweep-epsilon"), seed, overrides, inputs / f"{name}.json")
        points = len(raw["eps_grid"]) * raw["reps"]
        expected = Counter(
            {
                "scenarios.experiments.weight_sum": 1,
                "scenarios.experiments.sweep_points": points,
                "codec.encode": raw["n"],
                "codec.decode": points,
            }
        )
        if model == "ldp":
            expected.update({"dp.laplace_block": points, "dp.laplace_block.draws": points * raw["n"]})
        else:
            expected.update({"dp.gdp_aggregate": points, "dp.laplace_scalar": points})
        reports.append(
            _cli_report(
                name, "sweep-epsilon", "sweep", raw, inputs, outputs,
                {"sweep_points": points}, expected,
            )
        )

    raw = _materialize(
        _shipped("adversary-grid"), seed, tiny and TINY["adversary-sim"], inputs / "adversary-sim.json"
    )
    points = len(raw["eps_grid"]) * len(raw["gap_ratios"])
    trials = points * raw["trials"]
    expected = Counter(
        {
            "adversary.grid": 1,
            "adversary.empirical": points,
            "adversary.trials": trials,
            "dp.laplace_block": points,
            "dp.laplace_block.draws": trials,
        }
    )
    reports.append(
        _cli_report(
            "adversary-sim", "adversary-sim", "adversary", raw, inputs, outputs,
            {"adversary_trials": trials}, expected,
        )
    )

    raw = _materialize(
        _shipped("ass-demo"), seed, tiny and TINY["ass-demo"], inputs / "ass-demo.json"
    )
    n, reps = raw["n"], raw["repetitions"]
    expected = Counter(
        {
            "ass.choose_modulus": 1,
            "ass.split": n * reps,
            "ass.reconstruct_sum": reps,
            "ass.reconstruct_sum.bundles": n * reps,
            "codec.encode": n * reps,
            "codec.decode": reps,
        }
    )
    reports.append(
        _cli_report(
            "ass-demo", "ass-demo", "ass-demo", raw, inputs, outputs,
            {"ass_rounds": n * reps}, expected,
        )
    )
    return reports


_BUILDERS = {
    "placement-suite": _placement_suite,
    "fan-in": _fan_in,
    "batch-privacy": _batch_privacy,
}


def build(workload: str, seed: int, out_root: Path, tiny: bool = False) -> list[Report]:
    """Write the workload's inputs for `seed` under out_root; return its reports."""
    inputs = out_root / "inputs"
    outputs = out_root / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, inputs, outputs, tiny)
