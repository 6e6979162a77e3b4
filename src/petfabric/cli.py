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
import csv
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, adversary, ass
from .codec import decode_sum, encode
from .scenarios import (
    ConfigError,
    MIN_REPS,
    benchmark_suite,
    encoding_from_dict,
    generate_weights,
    latency_from_config,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    weight_sum_experiment,
)
from .scenarios.config import (
    check_keys,
    load_json,
    optional_bool,
    read_int,
    read_number,
    read_numbers,
    require_key,
)
from .scenarios.runner import worker_count

log = logging.getLogger("petfabric")

SEED_ENV_VAR = "PET_FABRIC_SEED"

RECORD_COLUMNS = ["scenario", "rep", "compute_ms", "hops", "end_to_end_ms", "seed"]
UTILITY_COLUMNS = ["epsilon", "mean_abs_err", "median_abs_err", "std_err", "reps"]
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


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _resolve_seed(flag_seed, config_seed) -> int:
    """Flag beats environment beats config beats zero."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}: not an integer: {env!r}") from None
    if config_seed is not None:
        return config_seed
    return 0


def _write_manifest(
    out_dir: Path, subcommand: str, config_path, seed: int, outputs, workers: int = 1
) -> None:
    """Write manifest.json: what ran, on what, and with which interpreter and numpy."""
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest() if config_path else None
    manifest = {
        "subcommand": subcommand,
        "config": str(config_path) if config_path else None,
        "config_sha256": digest,
        "seed": seed,
        "version": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "workers": workers,
        "outputs": sorted(outputs),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# Experiment config loaders (strict, like scenario configs)
# --------------------------------------------------------------------------

def _sweep_from_dict(raw: dict) -> dict:
    check_keys(raw, {"n", "encoding", "model", "eps_grid", "reps", "sensitivity", "seed"}, "config")
    sensitivity = read_int(raw, "sensitivity", "config", None)
    if sensitivity is not None and sensitivity < 1:
        raise ConfigError(f"sensitivity: must be >= 1, got {sensitivity}")
    return {
        "n": read_int(raw, "n", "config"),
        "encoding": encoding_from_dict(require_key(raw, "encoding", "config")),
        "model": str(raw.get("model", "ldp")),
        "eps_grid": read_numbers(raw, "eps_grid", "config"),
        "reps": read_int(raw, "reps", "config", MIN_REPS),
        "sensitivity": sensitivity,
        "seed": read_int(raw, "seed", "config", None),
    }


def _adversary_from_dict(raw: dict) -> dict:
    check_keys(
        raw,
        {"eps_grid", "gap_ratios", "sensitivity", "trials", "prefix_sum", "model", "seed"},
        "config",
    )
    trials = read_int(raw, "trials", "config", 100_000)
    if trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {trials}")
    sensitivity = read_int(raw, "sensitivity", "config")
    if sensitivity < 1:
        raise ConfigError(f"sensitivity: must be >= 1, got {sensitivity}")
    model = str(raw.get("model", adversary.GDP_MODEL))
    if model not in (adversary.GDP_MODEL, adversary.LDP_MODEL):
        raise ConfigError(f"model: expected gdp or ldp, got {model!r}")
    return {
        "eps_grid": read_numbers(raw, "eps_grid", "config"),
        "gap_ratios": read_numbers(raw, "gap_ratios", "config"),
        "sensitivity": sensitivity,
        "trials": trials,
        "prefix_sum": read_int(raw, "prefix_sum", "config", 0),
        "model": model,
        "seed": read_int(raw, "seed", "config", None),
    }


def _ass_demo_from_dict(raw: dict) -> dict:
    check_keys(raw, {"n", "m", "encoding", "repetitions", "drop_one_share", "seed"}, "config")
    n = read_int(raw, "n", "config")
    m = read_int(raw, "m", "config")
    if n < 1:
        raise ConfigError(f"n: need at least one sensor, got {n}")
    if m < 2:
        raise ConfigError("m: additive sharing needs at least 2 channels (m >= 2)")
    reps = read_int(raw, "repetitions", "config", 100)
    if reps < 1:
        raise ConfigError(f"repetitions: must be >= 1, got {reps}")
    return {
        "n": n,
        "m": m,
        "encoding": encoding_from_dict(require_key(raw, "encoding", "config")),
        "repetitions": reps,
        "drop_one_share": optional_bool(raw, "drop_one_share", "config"),
        "seed": read_int(raw, "seed", "config", None),
    }


def _bench_from_dict(raw: dict) -> dict:
    check_keys(raw, {"latency", "repetitions", "m", "epsilon", "compute_ms", "seed"}, "config")
    reps = read_int(raw, "repetitions", "config", 100)
    if reps < 1:
        raise ConfigError(f"repetitions: must be >= 1, got {reps}")
    compute = raw.get("compute_ms")
    if compute is not None:
        if not isinstance(compute, dict):
            raise ConfigError("compute_ms: expected an object of scenario -> ms")
        compute = {k: read_number(compute, k, "compute_ms") for k in compute}
    return {
        "latency": latency_from_config(raw.get("latency", "testbed")),
        "repetitions": reps,
        "m": read_int(raw, "m", "config", 3),
        "epsilon": read_number(raw, "epsilon", "config", 1.0),
        "compute_ms": compute,
        "seed": read_int(raw, "seed", "config", None),
    }


_VALIDATORS = {
    "scenario": scenario_from_dict,
    "sweep": _sweep_from_dict,
    "adversary": _adversary_from_dict,
    "ass-demo": _ass_demo_from_dict,
    "bench": _bench_from_dict,
}


# --------------------------------------------------------------------------
# Subcommand implementations
# --------------------------------------------------------------------------

def _cmd_run_scenario(args) -> int:
    spec = load_scenario(args.config)
    seed = _resolve_seed(args.seed, spec.seed)
    spec = spec.with_seed(seed)
    workers = worker_count(args.parallel, spec.repetitions)
    records = run_scenario(spec, workers=workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = f"{spec.name}_records.csv"
    _write_csv(
        out / name,
        RECORD_COLUMNS,
        (
            [r.scenario, r.message_id, r.compute_ms, r.hop_count, r.end_to_end_ms, seed]
            for r in records
        ),
    )
    _write_manifest(out, "run-scenario", args.config, seed, [name], workers)
    log.info("wrote %d records to %s", len(records), out / name)
    return 0


def _cmd_sweep_epsilon(args) -> int:
    cfg = _sweep_from_dict(load_json(args.config))
    seed = _resolve_seed(args.seed, cfg["seed"])
    params = cfg["encoding"]
    report = weight_sum_experiment(
        n=cfg["n"],
        domain=(params.x_lo, params.x_hi),
        k=params.k,
        model=cfg["model"],
        eps_grid=cfg["eps_grid"],
        reps=cfg["reps"],
        seed=seed,
        sensitivity=cfg["sensitivity"],
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    utility_name = f"utility_{cfg['model']}.csv"
    _write_csv(
        out / utility_name,
        UTILITY_COLUMNS,
        (
            [p.epsilon, p.mean_abs_err, p.median_abs_err, p.std_err, p.reps]
            for p in report.points
        ),
    )
    # persist the seeded ground-truth dataset next to the report
    weights = generate_weights(cfg["n"], params.x_lo, params.x_hi, seed)
    _write_csv(
        out / "ground_truth.csv",
        ["index", "weight"],
        ([i, float(w)] for i, w in enumerate(weights)),
    )
    _write_manifest(out, "sweep-epsilon", args.config, seed, [utility_name, "ground_truth.csv"])
    log.info("true sum %.3f; wrote %s", report.ground_truth, out / utility_name)
    return 0


def _cmd_adversary_sim(args) -> int:
    cfg = _adversary_from_dict(load_json(args.config))
    seed = _resolve_seed(args.seed, cfg["seed"])
    rows = adversary.guess_rate_grid(
        epsilons=cfg["eps_grid"],
        gap_ratios=cfg["gap_ratios"],
        sensitivity=cfg["sensitivity"],
        trials=cfg["trials"],
        seed=seed,
        known_prefix_sum=cfg["prefix_sum"],
        model=cfg["model"],
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = "adversary_guess_rates.csv"
    _write_csv(
        out / name,
        ADVERSARY_COLUMNS,
        (
            [r.epsilon, r.gap_ratio, r.analytic_pg, r.empirical_pg, r.trials, r.ci_halfwidth]
            for r in rows
        ),
    )
    _write_manifest(out, "adversary-sim", args.config, seed, [name])
    return 0


def _cmd_ass_demo(args) -> int:
    cfg = _ass_demo_from_dict(load_json(args.config))
    seed = _resolve_seed(args.seed, cfg["seed"])
    params = cfg["encoding"]
    n, m = cfg["n"], cfg["m"]
    fp = ass.choose_modulus(n, params.q)
    rows = []
    for rep in range(cfg["repetitions"]):
        rng = np.random.default_rng(seed + rep)
        values = rng.uniform(params.x_lo, params.x_hi, n)
        encoded = [encode(float(v), params) for v in values]
        bundles = [
            ass.split(x, m, fp, rng, sensor_id=f"s{i}") for i, x in enumerate(encoded)
        ]
        if cfg["drop_one_share"]:
            victim = int(rng.integers(0, n))
            channel = int(rng.integers(1, m + 1))
            shares = list(bundles[victim].shares)
            shares[channel - 1] = None
            bundles[victim] = ass.ShareBundle(
                sensor_id=bundles[victim].sensor_id,
                shares=tuple(shares),
                modulus=fp.modulus,
            )
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = "ass_demo.csv"
    _write_csv(out / name, ASS_DEMO_COLUMNS, rows)
    _write_manifest(out, "ass-demo", args.config, seed, [name])
    return 0


def _cmd_bench_suite(args) -> int:
    cfg = _bench_from_dict(load_json(args.config))
    seed = _resolve_seed(args.seed, cfg["seed"])
    specs = benchmark_suite(
        latency=cfg["latency"],
        repetitions=cfg["repetitions"],
        seed=seed,
        m=cfg["m"],
        epsilon=cfg["epsilon"],
        compute_ms=cfg["compute_ms"],
    )
    workers = worker_count(args.parallel, cfg["repetitions"])
    rows = []
    for spec in specs:
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
                float(np.median(e2e)),
                len(records),
            ]
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = "bench_suite.csv"
    _write_csv(out / name, BENCH_COLUMNS, rows)
    _write_manifest(out, "bench-suite", args.config, seed, [name], workers)
    return 0


def _cmd_validate_config(args) -> int:
    raw = load_json(args.config)
    _VALIDATORS[args.kind](raw)
    print(f"{args.config}: valid {args.kind} config")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petfabric",
        description="Privacy-layer benchmarks over a latency-modeled pub/sub fabric.",
    )
    parser.add_argument("--version", action="version", version=f"petfabric {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, needs_out=True):
        p.add_argument("--config", required=True, help="path to the JSON config")
        if needs_out:
            p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"master seed; overrides ${SEED_ENV_VAR} and the config",
        )
        p.add_argument("--parallel", type=int, default=1, help="worker processes for repetitions")
        p.add_argument("-v", "--verbose", action="count", default=0)

    p = sub.add_parser("run-scenario", help="run one scenario config, write latency records")
    add_common(p)
    p.set_defaults(func=_cmd_run_scenario)

    p = sub.add_parser("sweep-epsilon", help="privacy-utility curve for the weight-sum query")
    add_common(p)
    p.set_defaults(func=_cmd_sweep_epsilon)

    p = sub.add_parser("adversary-sim", help="distinguisher success over an epsilon grid")
    add_common(p)
    p.set_defaults(func=_cmd_adversary_sim)

    p = sub.add_parser("ass-demo", help="share/reconstruct round trips, optionally with loss")
    add_common(p)
    p.set_defaults(func=_cmd_ass_demo)

    p = sub.add_parser("bench-suite", help="the six-configuration placement comparison")
    add_common(p)
    p.set_defaults(func=_cmd_bench_suite)

    p = sub.add_parser("validate-config", help="check a config file, write nothing")
    add_common(p, needs_out=False)
    p.add_argument(
        "--kind",
        choices=sorted(_VALIDATORS),
        default="scenario",
        help="which config schema to validate against (default: scenario)",
    )
    p.set_defaults(func=_cmd_validate_config)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: report, do not traceback-bomb
        if args.verbose:
            log.exception("runtime error")
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
