"""Spans around petfabric's layer boundaries, recorded from outside the package.

The traced run replaces each public function of a layer, at the name its
caller looks it up by, with a wrapper that records a span: name, start,
end, parent span and scenario repetition id. Spans stay in memory until the
run ends. Nothing under ``src/`` changes, and the wrappers draw no random
numbers, so a traced run writes the same bytes as an untraced one.

A layer's self time is its spans' duration minus the time their child spans
cover. The wrappers' own cost lands in the self time of the enclosing span;
``trace.overhead_ratio`` reports how much that is.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional

#: The modules of petfabric, in the order metrics are reported.
LAYERS = (
    "codec",
    "dp",
    "ass",
    "adversary",
    "fabric.cbor",
    "fabric.envelope",
    "fabric.broker",
    "scenarios.runner",
    "scenarios.experiments",
    "cli",
)

#: Counts the coverage self-check compares with what the inputs imply.
CHECKED = (
    "cli.main",
    "scenarios.runner.run_scenario",
    "scenarios.runner.run",
    "scenarios.runner.rep",
    "scenarios.experiments.load_test",
    "scenarios.experiments.weight_sum",
    "scenarios.experiments.sweep_points",
    "fabric.broker.init",
    "fabric.broker.publish",
    "fabric.broker.subscribe",
    "fabric.broker.deliveries",
    "fabric.broker.hop_sample",
    "fabric.broker.acl_check",
    "fabric.broker.acl_denials",
    "fabric.broker.filler_published",
    "fabric.cbor.encode",
    "fabric.cbor.decode",
    "fabric.envelope.construct",
    "codec.encode",
    "codec.decode",
    "dp.laplace_scalar",
    "dp.laplace_block",
    "dp.laplace_block.draws",
    "dp.gdp_aggregate",
    "dp.krr_perturb",
    "ass.split",
    "ass.reconstruct_sum",
    "ass.reconstruct_sum.bundles",
    "ass.reconstruct_sum.errors",
    "ass.choose_modulus",
    "adversary.grid",
    "adversary.empirical",
    "adversary.trials",
)


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at the top
    rep: int  # scenario repetition id, -1 outside a repetition


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start_ns, span.end_ns))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0, span.start_ns
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end_ns - span.start_ns - covered)
    return out


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._rep = -1

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[tuple[str, Callable]] = None,
        rep_arg: Optional[int] = None,
    ) -> Callable:
        """A stand-in for fn that records a span named `name`.

        count: (counter, f) adds f(args, kwargs, result) to the counter.
        rep_arg: the positional argument that is a repetition id; spans
        inside the call carry it.
        """
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if rep_arg is not None:
                outer, self._rep = self._rep, args[rep_arg]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[name + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._rep)
                if rep_arg is not None:
                    self._rep = outer
            if count is not None:
                counters[count[0]] += count[1](args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap petfabric's layer boundaries for the duration of the block."""
        saved = []
        try:
            for target, attr, wrapper in _wrappers(self):
                saved.append((target, attr, vars(target)[attr]))
                setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def summary(self) -> tuple[dict[str, list[int]], Counter]:
        """Per span name [calls, total ns, self ns], plus the counters."""
        spans = [s for s in self.spans if s is not None]
        stats: dict[str, list[int]] = {}
        for span, own in zip(spans, self_times(spans)):
            entry = stats.setdefault(span.name, [0, 0, 0])
            entry[0] += 1
            entry[1] += span.end_ns - span.start_ns
            entry[2] += own
        return stats, Counter(self.counters)


def _wrappers(tracer: Tracer):
    """(where the caller looks the name up, name, wrapper) for every layer."""
    from petfabric import adversary, ass, cli, dp, scenarios
    from petfabric.fabric import broker, envelope
    from petfabric.scenarios import experiments, runner

    def at(target, attr, name, count=None, rep_arg=None):
        return target, attr, tracer.wrap(name, vars(target)[attr], count, rep_arg)

    def laplace(module):
        fn = vars(module)["sample_laplace"]
        scalar = tracer.wrap("dp.laplace_scalar", fn)
        block = tracer.wrap(
            "dp.laplace_block", fn, ("dp.laplace_block.draws", lambda a, k, r: r.size)
        )

        def sample_laplace(scale, rng, size=None):
            return scalar(scale, rng) if size is None else block(scale, rng, size)

        return module, "sample_laplace", sample_laplace

    denied = ("fabric.broker.acl_denials", lambda a, k, r: not r)
    return [
        at(cli, "main", "cli.main"),
        at(cli, "run_scenario", "scenarios.runner.run_scenario"),
        at(runner, "run_scenario_outcomes", "scenarios.runner.run"),
        at(experiments, "run_scenario_outcomes", "scenarios.runner.run"),
        at(runner, "_run_once", "scenarios.runner.rep", rep_arg=1),
        at(
            cli, "weight_sum_experiment", "scenarios.experiments.weight_sum",
            ("scenarios.experiments.sweep_points", lambda a, k, r: sum(p.reps for p in r.points)),
        ),
        at(scenarios, "load_test", "scenarios.experiments.load_test"),
        at(cli, "encode", "codec.encode"),
        at(runner, "encode", "codec.encode"),
        at(experiments, "encode", "codec.encode"),
        at(cli, "decode_sum", "codec.decode"),
        at(runner, "decode", "codec.decode"),
        at(runner, "decode_sum", "codec.decode"),
        at(experiments, "decode", "codec.decode"),
        at(experiments, "decode_sum", "codec.decode"),
        laplace(dp),
        laplace(adversary),
        at(dp, "gdp_aggregate", "dp.gdp_aggregate"),
        at(dp, "krr_perturb", "dp.krr_perturb"),
        at(ass, "split", "ass.split"),
        at(
            ass, "reconstruct_sum", "ass.reconstruct_sum",
            ("ass.reconstruct_sum.bundles", lambda a, k, r: len(a[0])),
        ),
        at(ass, "choose_modulus", "ass.choose_modulus"),
        at(adversary, "guess_rate_grid", "adversary.grid"),
        at(
            adversary, "empirical_guess_rate", "adversary.empirical",
            ("adversary.trials", lambda a, k, r: a[1]),
        ),
        at(broker, "cbor_encode", "fabric.cbor.encode", ("fabric.cbor.bytes", lambda a, k, r: len(r))),
        at(broker, "cbor_decode", "fabric.cbor.decode"),
        at(envelope.Envelope, "__init__", "fabric.envelope.construct"),
        at(broker.Broker, "__init__", "fabric.broker.init"),
        at(broker.Broker, "register_client", "fabric.broker.register_client"),
        at(broker.AclTable, "allow", "fabric.broker.acl_allow"),
        at(broker.Broker, "subscribe", "fabric.broker.subscribe"),
        at(
            broker.Broker, "publish", "fabric.broker.publish",
            ("fabric.broker.deliveries", lambda a, k, r: len(r.deliveries)),
        ),
        at(
            broker.Broker, "inject_load", "fabric.broker.inject_load",
            ("fabric.broker.filler_published", lambda a, k, r: r.published),
        ),
        at(broker.AclTable, "permits_publish", "fabric.broker.acl_check", denied),
        at(broker.AclTable, "permits_subscribe_topic", "fabric.broker.acl_check", denied),
        at(broker.AclTable, "permits_subscribe_filter", "fabric.broker.acl_check", denied),
        at(broker, "topic_matches", "fabric.broker.topic_match"),
        at(broker.LatencyModel, "sample_hop_ms", "fabric.broker.hop_sample"),
    ]


def counts(stats: dict[str, list[int]], counters: Counter) -> Counter:
    """Calls per span name merged with the counters."""
    merged = Counter({name: entry[0] for name, entry in stats.items()})
    merged.update(counters)
    return merged


def coverage_errors(observed: Counter, expected: Counter) -> list[str]:
    """Checked counts that differ from the ones the inputs imply."""
    return [
        f"{key}: traced {observed.get(key, 0)}, inputs imply {expected.get(key, 0)}"
        for key in CHECKED
        if observed.get(key, 0) != expected.get(key, 0)
    ]


def layer_metrics(
    stats: dict[str, list[int]],
    counters: Counter,
    iterations: int,
    traced_run_s: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from spans summed over `iterations` traced runs of
    the workload, whose total wall time is traced_run_s. Counts are per run
    of the workload; times are per call, in microseconds."""

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def total_ns(*names):
        return sum(stats.get(n, [0, 0, 0])[1] for n in names)

    def self_ns(*names):
        return sum(stats.get(n, [0, 0, 0])[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_run(value):
        return value / iterations

    def us_per_call(name):
        return ratio(total_ns(name), calls(name)) / 1e3

    m: dict[str, tuple[float, str]] = {}
    for name in ("fabric.cbor.encode", "fabric.cbor.decode"):
        m[name + ".calls"] = (per_run(calls(name)), "count")
        m[name + ".us_per_call"] = (us_per_call(name), "us")
    m["fabric.cbor.decode_per_encode"] = (
        ratio(calls("fabric.cbor.decode"), calls("fabric.cbor.encode")), "ratio"
    )
    m["fabric.cbor.bytes_per_payload"] = (
        ratio(counters["fabric.cbor.bytes"], calls("fabric.cbor.encode")), "bytes"
    )
    m["fabric.envelope.constructed"] = (per_run(calls("fabric.envelope.construct")), "count")
    m["fabric.envelope.us_per_call"] = (us_per_call("fabric.envelope.construct"), "us")

    brokers = calls("fabric.broker.init")
    publishes = calls("fabric.broker.publish")
    setup = ("fabric.broker.init", "fabric.broker.register_client",
             "fabric.broker.acl_allow", "fabric.broker.subscribe")
    m["fabric.broker.brokers_built"] = (per_run(brokers), "count")
    m["fabric.broker.setup_us_per_broker"] = (ratio(self_ns(*setup), brokers) / 1e3, "us")
    m["fabric.broker.acl_grants_per_broker"] = (ratio(calls("fabric.broker.acl_allow"), brokers), "count")
    m["fabric.broker.publish.calls"] = (per_run(publishes), "count")
    m["fabric.broker.publish.self_us_per_call"] = (
        ratio(self_ns("fabric.broker.publish"), publishes) / 1e3, "us"
    )
    m["fabric.broker.deliveries_per_publish"] = (
        ratio(counters["fabric.broker.deliveries"], publishes), "count"
    )
    m["fabric.broker.acl_checks.calls"] = (per_run(calls("fabric.broker.acl_check")), "count")
    m["fabric.broker.acl_checks.us_per_call"] = (us_per_call("fabric.broker.acl_check"), "us")
    m["fabric.broker.topic_matches.calls"] = (per_run(calls("fabric.broker.topic_match")), "count")
    m["fabric.broker.topic_matches.per_publish"] = (
        ratio(calls("fabric.broker.topic_match"), publishes), "count"
    )
    m["fabric.broker.hop_samples"] = (per_run(calls("fabric.broker.hop_sample")), "count")
    m["fabric.broker.filler_published"] = (per_run(counters["fabric.broker.filler_published"]), "count")
    m["fabric.broker.acl_denials"] = (per_run(counters["fabric.broker.acl_denials"]), "count")

    for op in ("laplace_scalar", "gdp_aggregate", "krr_perturb"):
        m[f"dp.{op}.calls"] = (per_run(calls(f"dp.{op}")), "count")
        m[f"dp.{op}.us_per_call"] = (us_per_call(f"dp.{op}"), "us")
    draws = counters["dp.laplace_block.draws"]
    m["dp.laplace_block.calls"] = (per_run(calls("dp.laplace_block")), "count")
    m["dp.laplace_block.draws"] = (per_run(draws), "count")
    m["dp.laplace_block.us_per_draw"] = (ratio(total_ns("dp.laplace_block"), draws) / 1e3, "us")

    trials = counters["adversary.trials"]
    m["adversary.trials"] = (per_run(trials), "count")
    m["adversary.us_per_trial"] = (ratio(total_ns("adversary.empirical"), trials) / 1e3, "us")

    for op in ("split", "reconstruct_sum"):
        m[f"ass.{op}.calls"] = (per_run(calls(f"ass.{op}")), "count")
        m[f"ass.{op}.us_per_call"] = (us_per_call(f"ass.{op}"), "us")
    m["ass.reconstruct_sum.bundles_per_call"] = (
        ratio(counters["ass.reconstruct_sum.bundles"], calls("ass.reconstruct_sum")), "count"
    )
    m["ass.choose_modulus.calls"] = (per_run(calls("ass.choose_modulus")), "count")
    m["ass.missing_share_errors"] = (per_run(counters["ass.reconstruct_sum.errors"]), "count")

    for op in ("encode", "decode"):
        m[f"codec.{op}.calls"] = (per_run(calls(f"codec.{op}")), "count")
        m[f"codec.{op}.us_per_call"] = (us_per_call(f"codec.{op}"), "us")

    reps = calls("scenarios.runner.rep")
    points = counters["scenarios.experiments.sweep_points"]
    m["scenarios.runner.reps"] = (per_run(reps), "count")
    m["scenarios.runner.us_per_rep"] = (ratio(total_ns("scenarios.runner.rep"), reps) / 1e3, "us")
    m["scenarios.experiments.sweep_points"] = (per_run(points), "count")
    m["scenarios.experiments.us_per_sweep_point"] = (
        ratio(total_ns("scenarios.experiments.weight_sum"), points) / 1e3, "us"
    )

    layer_self: Counter = Counter()
    for name, entry in stats.items():
        layer_self[layer_of(name)] += entry[2]
    m["cli.self_s"] = (per_run(layer_self["cli"]) / 1e9, "s")
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (ratio(layer_self[layer] / 1e9, traced_run_s), "ratio")
    return m


IMPORT_FAMILIES = ("numpy", "scipy", "petfabric")


def import_breakdown(importtime_log: str) -> dict[str, float]:
    """Seconds of `python -X importtime` self time per package family.

    A module imported by numpy, scipy or petfabric counts toward the nearest
    of those that imported it, so stdlib modules numpy pulls in count as
    numpy. Modules outside all three families count toward none.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(fields[0])))
    totals = dict.fromkeys(IMPORT_FAMILIES, 0)
    stack: list[tuple[int, Optional[str]]] = []
    # importtime prints a module after the modules it imported, one level
    # deeper; read backwards, every module follows its importer
    for depth, name, self_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        family = name.split(".")[0]
        if family not in totals:
            family = stack[-1][1] if stack else None
        stack.append((depth, family))
        if family is not None:
            totals[family] += self_us
    return {family: us / 1e6 for family, us in totals.items()}
