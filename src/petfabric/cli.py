"""Command-line front end: load a config, run, write CSV reports.

One subcommand per experiment family:

    run-scenario     latency records for one scenario config
    sweep-epsilon    privacy-utility curve for the weight-sum query
    adversary-sim    distinguisher success rates over an epsilon grid
    ass-demo         split/reconstruct round trips (optionally with loss)
    bench-suite      the six-configuration placement comparison
    validate-config  parse and check a config, write nothing

Every run writes RFC-4180-style CSVs (LF line endings, '.' decimals) plus a
manifest.json recording the config hash, effective seed, tool version,
Python and numpy versions and worker count.
Outputs are a pure function of (config, seed): running a subcommand twice
with the same seed produces byte-identical CSVs.

Exit codes: 0 success, 2 config validation failure, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, ass
from .codec import decode_sum, encode
from .scenarios.config import (
    RECORDS_FILE,
    ConfigError,
    adversary_from_dict,
    ass_demo_from_dict,
    bench_from_dict,
    load_json,
    scenario_from_dict,
    sweep_from_dict,
)
from .scenarios.experiments import median, weight_sum_experiment
from .scenarios.runner import run_scenario, worker_count

SEED_ENV_VAR = "PET_FABRIC_SEED"

#: Most worker processes `--parallel` may ask for; a process pool starts
#: them all at its first task.
MAX_WORKERS = 64

RECORD_COLUMNS = ["scenario", "rep", "compute_ms", "hops", "end_to_end_ms", "seed"]
UTILITY_COLUMNS = ["epsilon", "mean_abs_err", "median_abs_err", "std_err", "reps"]
GROUND_TRUTH_COLUMNS = ["index", "weight"]
ADVERSARY_COLUMNS = [
    "epsilon",
    "gap_ratio",
    "analytic_pg",
    "empirical_pg",
    "trials",
    "ci_halfwidth",
]
ASS_DEMO_COLUMNS = [
    "rep",
    "n",
    "m",
    "modulus",
    "status",
    "encoded_sum",
    "reconstructed_sum",
    "true_average",
    "decoded_average",
    "within_bound",
    "missing",
]
BENCH_COLUMNS = [
    "scenario",
    "topology",
    "pet",
    "hops",
    "compute_ms",
    "mean_end_to_end_ms",
    "median_end_to_end_ms",
    "reps",
]


def _say(args, message: str) -> None:
    """With -v, one line of progress on stderr."""
    if args.verbose:
        print(f"petfabric: {message}", file=sys.stderr)


def _parse_seed(text: str, source: str) -> int:
    """ASCII digits with an optional leading '-'; int() alone would also take
    spaces, '_', a '+' and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ConfigError(f"{source}: not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # over the interpreter's digit limit
        raise ConfigError(f"{source}: more than {sys.get_int_max_str_digits()} digits") from None


def _resolve_seed(flag_seed, config_seed) -> int:
    """Flag beats environment beats config beats zero; a seed is >= 0."""
    if flag_seed is not None:
        seed, source = _parse_seed(flag_seed, "--seed"), "--seed"
    elif (env := os.environ.get(SEED_ENV_VAR)) is not None:
        seed, source = _parse_seed(env, SEED_ENV_VAR), SEED_ENV_VAR
    else:
        seed, source = config_seed or 0, "seed"
    if seed < 0:
        raise ConfigError(f"{source}: must be >= 0, got {seed}")
    return seed


def _write_reports(args, seed: int, workers: int, reports: dict) -> None:
    """Write each report CSV into --out, then manifest.json: what ran, on
    what, and with which interpreter and numpy."""
    import csv
    import hashlib

    import numpy as np

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in reports.items():
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        _say(args, f"wrote {out / name}")
    manifest = {
        "subcommand": args.subcommand,
        "config": str(args.config),
        "config_sha256": hashlib.sha256(Path(args.config).read_bytes()).hexdigest(),
        "seed": seed,
        "version": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "workers": workers,
        "outputs": sorted(reports),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# Subcommand bodies: (args, loaded config) -> (seed, workers, reports), where
# reports maps each CSV name to its (header, rows)
# --------------------------------------------------------------------------

def _run_scenario(args, spec):
    seed = _resolve_seed(args.seed, spec.seed)
    spec = spec.with_seed(seed)
    workers = worker_count(args.parallel, spec.repetitions)
    records = run_scenario(spec, workers=workers)
    rows = (
        [r.scenario, r.message_id, r.compute_ms, r.hop_count, r.end_to_end_ms, seed]
        for r in records
    )
    return seed, workers, {RECORDS_FILE.format(spec.name): (RECORD_COLUMNS, rows)}


def _sweep_epsilon(args, cfg):
    seed = _resolve_seed(args.seed, cfg.pop("seed"))
    report = weight_sum_experiment(**cfg, seed=seed)
    _say(args, f"true sum {report.ground_truth:.3f}")
    utility = (
        [p.epsilon, p.mean_abs_err, p.median_abs_err, p.std_err, p.reps] for p in report.points
    )
    # persist the seeded ground-truth dataset next to the report
    return seed, 1, {
        f"utility_{cfg['model']}.csv": (UTILITY_COLUMNS, utility),
        "ground_truth.csv": (GROUND_TRUTH_COLUMNS, enumerate(report.weights)),
    }


def _adversary_sim(args, cfg):
    from . import adversary

    seed = _resolve_seed(args.seed, cfg.pop("seed"))
    grid = adversary.guess_rate_grid(**cfg, seed=seed)
    rows = (
        [r.epsilon, r.gap_ratio, r.analytic_pg, r.empirical_pg, r.trials, r.ci_halfwidth]
        for r in grid
    )
    return seed, 1, {"adversary_guess_rates.csv": (ADVERSARY_COLUMNS, rows)}


def _ass_demo(args, cfg):
    import numpy as np

    seed = _resolve_seed(args.seed, cfg["seed"])
    params = cfg["encoding"]
    n, m = cfg["n"], cfg["m"]
    fp = ass.choose_modulus(n, params.q)
    sensor_ids = [f"s{i}" for i in range(n)]
    rows = []
    for rep in range(cfg["repetitions"]):
        rng = np.random.default_rng(seed + rep)
        values = rng.uniform(params.x_lo, params.x_hi, n)
        encoded = [encode(v, params) for v in values.tolist()]
        prefixes = ass.draw_prefixes(n, m, fp, rng)
        prefixes.reverse()  # popped in order, each row is freed once its bundle holds it
        bundles = [ass.split(x, prefixes.pop(), fp, sid) for x, sid in zip(encoded, sensor_ids)]
        if cfg["drop_one_share"]:
            victim, channel = ass.draw_lost_share(n, m, rng)
            bundles[victim] = ass.lose_share(bundles[victim], channel)
        base = [rep, n, m, fp.modulus]
        try:
            total = ass.reconstruct_sum(bundles, fp)
        except ass.MissingShareError as exc:
            missing = ";".join(f"{sid}:{ch}" for sid, ch in exc.missing)
            rows.append(base + ["missing-share", "", "", "", "", "", missing])
            continue
        true_avg = float(values.mean())
        decoded_avg = decode_sum(total, n, params) / n
        rows.append(
            base
            + [
                "ok",
                sum(encoded),
                total,
                true_avg,
                decoded_avg,
                abs(decoded_avg - true_avg) < 1.0 / params.k,
                "",
            ]
        )
    return seed, 1, {"ass_demo.csv": (ASS_DEMO_COLUMNS, rows)}


def _bench_suite(args, specs):
    import numpy as np

    seed = _resolve_seed(args.seed, specs[0].seed)
    workers = worker_count(args.parallel, specs[0].repetitions)
    rows = []
    for spec in specs:
        spec = spec.with_seed(seed)
        records = run_scenario(spec, workers=workers)
        e2e = np.array([r.end_to_end_ms for r in records])
        rows.append(
            [
                spec.name,
                spec.topology.kind,
                spec.pet.kind,
                records[0].hop_count,
                spec.compute_ms,
                float(e2e.mean()),
                float(median(e2e)),
                len(records),
            ]
        )
    return seed, workers, {"bench_suite.csv": (BENCH_COLUMNS, rows)}


class Subcommand(NamedTuple):
    help: str
    kind: str  # the config schema, as validate-config --kind names it
    load: Callable[[dict], object]
    run: Callable


SUBCOMMANDS = {
    "run-scenario": Subcommand(
        "run one scenario config, write latency records",
        "scenario", scenario_from_dict, _run_scenario,
    ),
    "sweep-epsilon": Subcommand(
        "privacy-utility curve for the weight-sum query",
        "sweep", sweep_from_dict, _sweep_epsilon,
    ),
    "adversary-sim": Subcommand(
        "distinguisher success over an epsilon grid",
        "adversary", adversary_from_dict, _adversary_sim,
    ),
    "ass-demo": Subcommand(
        "share/reconstruct round trips, optionally with loss",
        "ass-demo", ass_demo_from_dict, _ass_demo,
    ),
    "bench-suite": Subcommand(
        "the six-configuration placement comparison",
        "bench", bench_from_dict, _bench_suite,
    ),
}

LOADERS = {command.kind: command.load for command in SUBCOMMANDS.values()}


def _run(args) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel: must be >= 1, got {args.parallel}")
    if args.parallel > MAX_WORKERS:
        raise ConfigError(
            f"--parallel: at most {MAX_WORKERS} worker processes, got {args.parallel}"
        )
    command = SUBCOMMANDS[args.subcommand]
    config = command.load(load_json(args.config))
    _write_reports(args, *command.run(args, config))
    return 0


def _validate(args) -> int:
    LOADERS[args.kind](load_json(args.config))
    print(f"{args.config}: valid {args.kind} config")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

@functools.cache  # once per process: parse_args returns a fresh namespace each call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petfabric",
        description="Privacy-layer benchmarks over a latency-modeled pub/sub fabric.",
    )
    parser.add_argument("--version", action="version", version=f"petfabric {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    helps = {name: command.help for name, command in SUBCOMMANDS.items()}
    helps["validate-config"] = "check a config file, write nothing"
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        if name in SUBCOMMANDS:
            p.add_argument("--out", default="out", help="output directory (default: ./out)")
            p.add_argument(
                "--seed",
                default=None,
                help=f"master seed, ASCII digits; overrides ${SEED_ENV_VAR} and the config",
            )
            p.add_argument(
                "--parallel",
                type=int,
                default=1,
                help="worker processes for repetitions (run-scenario and bench-suite only)",
            )
        else:
            p.add_argument(
                "--kind",
                choices=sorted(LOADERS),
                default="scenario",
                help="which config schema to validate against (default: scenario)",
            )
        p.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return (_run if args.subcommand in SUBCOMMANDS else _validate)(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: report, do not traceback-bomb
        if args.verbose:
            import traceback

            _say(args, "runtime error")
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
