"""Run one petfabric benchmark workload and print its metrics.

    python3 perfbench/run.py --workload placement-suite --seed 0 --seconds 20 --trace 0

Run from a checkout that holds petfabric's ``src/`` and ``configs/``; there
is nothing to build. A run

1. runs the workload once at the default seed and checks every report's
   outputs against the golden sha256 digests in ``golden.json``;
2. writes the workload's inputs for ``--seed`` and times ``SETUP_RUNS``
   fresh interpreters that import ``petfabric.cli`` and validate them;
3. repeats the workload for ``--seconds``; the first repetition fixes the
   reference digests (the goldens at the default seed) that every later
   one must match.

With ``--trace 1`` every other repetition runs with spans around each
layer's public functions (see ``tracing.py``), each traced repetition must
make exactly the layer calls its inputs imply and write the same bytes as
the untraced ones, and one ``python -X importtime`` breaks start-up down.

Host time is the only metric. Simulated quantities (end-to-end ms, hop
counts, error statistics) are outputs and are checked byte for byte through
the digests. ``setup_s`` is the median wall time of the set-up
interpreters. ``run_s`` is the median wall time of a repetition rescaled by
the host's speed during the run, measured with ``reference_kernel``; the
raw median is printed too, as ``run_wall_s``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Outputs, inputs and spans go under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracing
import workloads
from workloads import DEFAULT_SEED, ROOT, WORKLOADS

SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: Fresh interpreters timed per run; setup_s is their median.
SETUP_RUNS = 3
SUBPROCESS_TIMEOUT_S = 120

#: About the median seconds reference_kernel() took on the host the bounds were set on
#: (2-core shared Intel Xeon, Python 3.11, numpy 2.4). run_s is rescaled
#: to a host of that speed; see reference_kernel.
REFERENCE_KERNEL_S = 0.05
KERNEL_STEPS = 20_000

SETUP_SCRIPT = """\
import sys
from petfabric import cli
for arg in sys.argv[1:]:
    kind, _, path = arg.partition("=")
    if cli.main(["validate-config", "--kind", kind, "--config", path]) != 0:
        sys.exit(1)
"""

UNCONTROLLED = [
    "no CPU pinning",
    "no page-cache drop",
    "shared host: other tenants' load is not controlled",
    "--parallel (process-sharded repetitions) is not exercised; workers=1",
]


class SetupFailed(Exception):
    """A set-up interpreter could not import petfabric or validate a config."""


@dataclass
class Iteration:
    """One run of every report of a workload."""

    times: dict[str, float] = field(default_factory=dict)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return sum(self.times.values())


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_iteration(reports, reference: Optional[dict], tracer=None) -> Iteration:
    """Run every report once; a report fails if it raises, exits non-zero,
    or its digests differ from `reference` (when one is given)."""
    it = Iteration()
    gc.collect()
    for report in reports:
        report.prepare()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = report.invoke()
            else:
                with tracer.installed():
                    result = report.invoke()
            it.times[report.name] = time.perf_counter() - start
            it.digests[report.name] = report.digest(result)
        except Exception:
            it.times.setdefault(report.name, time.perf_counter() - start)
            it.failures.append(f"{report.name}: {traceback.format_exc(limit=3)}")
            continue
        if reference is not None and it.digests[report.name] != reference.get(report.name):
            it.failures.append(f"{report.name}: digests differ from the reference")
    return it


def reference_kernel() -> float:
    """Seconds a fixed pure-Python workload takes right now.

    The shared host's speed swings by up to 60% over minutes while the
    benchmark code stays the same, which no run length averages away. This
    kernel has petfabric's instruction mix (topic strings, tuples, dicts,
    struct packing, scalar numpy draws) but runs none of its code, so a
    change to petfabric moves the workload's time and not the kernel's.
    run_s is scaled by REFERENCE_KERNEL_S over the kernel's median time,
    timed before each untraced repetition. Set-up time is not rescaled: a
    fresh interpreter's imports and file reads track the kernel poorly.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    table: dict[str, tuple] = {}
    buf = bytearray()
    start = time.perf_counter()
    for i in range(KERNEL_STEPS):
        topic = f"cabin/sim/s{i & 63}/value"
        levels = topic.split("/")
        table[topic] = (levels[2], i, rng.random())
        buf += struct.pack(">BQd", i & 0x1F, i, table[topic][2])
        if len(buf) > 4096:
            buf.clear()
    return time.perf_counter() - start


def time_setup(reports) -> float:
    """Wall time of a fresh interpreter that imports petfabric.cli and
    validates every input config of the workload."""
    cmd = [sys.executable, "-c", SETUP_SCRIPT, *(f"{r.kind}={r.config}" for r in reports)]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupFailed(proc.stderr.strip() or f"exit {proc.returncode}")
    return elapsed


def import_times() -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import petfabric.cli"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupFailed(proc.stderr.strip()[-2000:])
    return tracing.import_breakdown(proc.stderr)


def _git_commit() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "workers": 1,
        "uncontrolled": UNCONTROLLED,
    }


#: Work-unit throughputs. Each applies to the workloads whose reports do
#: that work, so they are reported beside the end-to-end metrics, which
#: every workload has, and among the traced run's metrics, 0 where unused.
RATES = ("scenario_reps_per_s", "sweep_points_per_s", "adversary_trials_per_s", "ass_rounds_per_s")


def _rates(reports, iterations: list[Iteration]) -> dict[str, float]:
    """Median over iterations of work units per second of the reports that
    do that work, per unit (scenario_reps, sweep_points, ...)."""
    out = {}
    for unit in {u for r in reports for u in r.units}:
        doing = [r for r in reports if unit in r.units]
        work = sum(r.units[unit] for r in doing)
        out[f"{unit}_per_s"] = statistics.median(
            work / sum(it.times[r.name] for r in doing) for it in iterations
        )
    return out


def _write_spans(path: Path, tracer) -> None:
    spans = [s for s in tracer.spans if s is not None]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\trep\tself_ns\n")
        for i, (span, own) in enumerate(zip(spans, tracing.self_times(spans))):
            fh.write(f"{i}\t{span.name}\t{span.start_ns}\t{span.end_ns}\t{span.parent}\t{span.rep}\t{own}\n")


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    setup_runs: int = SETUP_RUNS,
    out_root: Optional[Path] = None,
) -> dict:
    """Run one workload; returns a dict with every field of the result.

    tiny shrinks every report and skips the golden check (the goldens are
    recorded at full size); the benchmark's own tests use it, with their
    own out_root.
    """
    out_root = out_root or OUT_ROOT / workload
    iterations: list[Iteration] = []
    reference = None
    if not tiny:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]
        golden_reports = workloads.build(workload, DEFAULT_SEED, out_root / "golden")
        iterations.append(run_iteration(golden_reports, golden))
        if seed == DEFAULT_SEED:
            reference = golden

    reports = workloads.build(workload, seed, out_root / "seeded", tiny)
    setup = [time_setup(reports) for _ in range(setup_runs)]

    plain: list[Iteration] = []
    traced: list[Iteration] = []
    stats: dict[str, list[int]] = {}
    counters: Counter = Counter()
    coverage: list[str] = []
    expected = sum((r.expected for r in reports), Counter())
    tracer = None
    run_kernel = []
    deadline = time.perf_counter() + seconds
    while True:
        run_kernel.append(reference_kernel())
        plain.append(run_iteration(reports, reference))
        if reference is None:
            reference = plain[0].digests
        if trace:
            tracer = tracing.Tracer()
            traced.append(run_iteration(reports, reference, tracer))
            it_stats, it_counters = tracer.summary()
            coverage.extend(tracing.coverage_errors(tracing.counts(it_stats, it_counters), expected))
            for name, entry in it_stats.items():
                total = stats.setdefault(name, [0, 0, 0])
                for i in range(3):
                    total[i] += entry[i]
            counters.update(it_counters)
        if time.perf_counter() >= deadline:
            break
    iterations += plain + traced

    attempted = sum(len(it.times) for it in iterations)
    failures = [f for it in iterations for f in it.failures]
    run_s = statistics.median(it.run_s for it in plain)
    run_speed = REFERENCE_KERNEL_S / statistics.median(run_kernel)
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (run_s * run_speed, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    rates = _rates(reports, plain)
    result = {
        "workload": workload,
        "env": environment(seed),
        "iteration_run_s": [it.run_s for it in plain],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": plain[0].digests,
        "end_to_end": e2e,
        "rates": {name: (rates.get(name, 0.0), "1/s") for name in RATES},
        "wall": {
            "run_wall_s": (run_s, "s"),
            "run_host_speed": (run_speed, "ratio"),
        },
    }
    if trace:
        traced_s = sum(it.run_s for it in traced)
        per_layer = {**result["rates"], **tracing.layer_metrics(stats, counters, len(traced), traced_s)}
        per_layer["trace.overhead_ratio"] = (
            statistics.median(it.run_s for it in traced) / run_s - 1.0, "ratio"
        )
        for family, value in import_times().items():
            per_layer[f"import.{family}_s"] = (value, "s")
        result["per_layer"] = per_layer
        result["coverage_errors"] = coverage
        _write_spans(out_root / "spans.tsv", tracer)
    result["correct"] = not failures and not coverage
    return result


def _print_result(result: dict, trace: bool) -> None:
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("digests " + json.dumps(result["digests"], sort_keys=True))
    for failure in result["failures"]:
        print("FAILED " + failure.rstrip().replace("\n", "\n    "))
    for error in result.get("coverage_errors", []):
        print("COVERAGE " + error)
    for name, (value, unit) in result["end_to_end"].items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, (value, unit) in result["wall"].items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, (value, unit) in result["rates"].items():
        if value:
            print(f"metric {name} {value:.6g} {unit}")
    print(
        f"metric failed_ratio {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']} reports)"
    )
    for name, (value, unit) in result.get("per_layer", {}).items():
        print(f"layer {name} {value:.6g} {unit}")
    metrics = result["per_layer"] if trace else result["end_to_end"]
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "petfabric" / "__init__.py").is_file() or not workloads.SHIPPED_CONFIGS.is_dir():
        print(f"perfbench: no petfabric checkout at {ROOT} (need src/ and configs/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import petfabric.cli  # noqa: F401  (fail here, before any result)
    except ImportError as exc:
        print(f"perfbench: cannot import petfabric: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _print_result(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
