"""Scenario engine: config strictness, flow wiring, calibrated latencies."""

import json

import numpy as np
import pytest

from petfabric.cli import main
from petfabric.codec import EncodingParams, decode, encode
from petfabric.fabric.broker import LatencyModel, topic_matches
from petfabric.scenarios.config import (
    MAX_SHARES,
    ConfigError,
    PetConfig,
    REFERENCE_COMPUTE_MS,
    ScenarioSpec,
    SensorConfig,
    Topology,
    ass_demo_from_dict,
    bench_from_dict,
    hop_bound,
    load_scenario,
    scenario_from_dict,
)
from petfabric.scenarios.runner import run_scenario, run_scenario_outcomes

PARAMS = EncodingParams(1, 50, 120)


def make_spec(**overrides):
    base = dict(
        name="test",
        topology=Topology("on-device"),
        pet=PetConfig("none"),
        sensors=SensorConfig(),
        encoding=PARAMS,
        latency=LatencyModel(2.494),
        compute_ms=0.307,
        repetitions=3,
        seed=42,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


GOOD_CONFIG = {
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


# -- config validation ----------------------------------------------------------

def test_good_config_parses():
    spec = scenario_from_dict(GOOD_CONFIG)
    assert spec.name == "baseline-on-device"
    assert spec.latency.per_hop_mean_ms == 2.494
    assert spec.encoding.q == 170


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(GOOD_CONFIG))
    assert load_scenario(path) == scenario_from_dict(GOOD_CONFIG)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(bad)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda c: c.update(extra=1), "unknown keys"),
        (lambda c: c["topology"].update(nope=1), "topology: unknown keys"),
        (lambda c: c["pet"].update(kind="ass", m=1), "pet.m"),
        (lambda c: c["pet"].update(kind="ass", m=1, drop_one_share=True), "pet.m"),
        (lambda c: c["pet"].update(kind="ldp"), "pet.epsilon"),
        (lambda c: c["pet"].update(epsilon=0.5), "pet.epsilon: not valid"),
        (lambda c: c["pet"].update(drop_one_share=True), "drop_one_share"),
        (
            lambda c: c["pet"].update(kind="ass", m=3, drop_one_share="false"),
            "pet.drop_one_share: expected true or false",
        ),
        (
            lambda c: c["pet"].update(kind="ass", m=3, parallel_shares=False),
            r"^pet: unknown keys \['parallel_shares'\]",
        ),
        (lambda c: c["sensors"].update(count=0), "sensors.count"),
        (lambda c: c["sensors"]["generator"].update(kind="zipf"), "generator.kind"),
        (
            lambda c: c["sensors"]["generator"].update(low=10),
            r"^sensors.generator: unknown keys \['low'\]",
        ),
        (lambda c: c["encoding"].update(k=0), "positive integer"),
        (lambda c: c.update(latency="warp-speed"), "unknown preset"),
        (lambda c: c.update(compute_ms=-1), "compute_ms"),
        (lambda c: c.update(repetitions=0), "repetitions"),
        (lambda c: c["topology"].update(kind="relay-chain"), "depth"),
        (lambda c: c["topology"].update(depth=3), "only valid for relay-chain"),
        (lambda c: c.update(repetitions=3.9), "repetitions: expected an integer, got 3.9"),
        (lambda c: c.update(repetitions=True), "repetitions: expected an integer"),
        (lambda c: c.update(seed="42"), "seed: expected an integer"),
        (lambda c: c.update(compute_ms=float("nan")), "compute_ms: expected a finite number"),
        (lambda c: c.update(overhead_ms=0.0), r"^config: unknown keys \['overhead_ms'\]"),
        (
            lambda c: c["pet"].update(kind="ldp", epsilon=float("inf")),
            "pet.epsilon: expected a finite number",
        ),
        (lambda c: c["pet"].update(kind="ass", m=3.0), "pet.m: expected an integer"),
        (lambda c: c["sensors"].update(count=False), "sensors.count: expected an integer"),
        (lambda c: c["encoding"].update(k=1.5), "encoding.k: expected an integer"),
        (lambda c: c["encoding"].update(x_hi=float("-inf")), "encoding.x_hi: expected a finite"),
        (
            lambda c: c.update(latency={"per_hop_mean_ms": True}),
            "^latency.per_hop_mean_ms: expected a finite number",
        ),
        (lambda c: c.update(topology=5), "topology: expected an object"),
        (lambda c: c.update(pet=["none"]), "pet: expected an object"),
        (lambda c: c.update(sensors="one"), "sensors: expected an object"),
        (lambda c: c["sensors"].update(generator=3), "sensors.generator: expected an object"),
        (lambda c: c.update(name=5), "name: expected a string, got 5"),
        (lambda c: c.update(name="../x"), "name: must not contain"),
        (lambda c: c["pet"].update(kind=3), "pet.kind: expected a string, got 3"),
        (
            lambda c: (c["pet"].update(kind="ass", m=3), c["encoding"].update(k=10**17)),
            "^encoding.k: sensors.count \\* q = 1 \\* 17000000000000000000 must be below",
        ),
        (
            lambda c: (c["pet"].update(kind="ldp", epsilon=0.01), c["encoding"].update(k=10**19)),
            "^encoding.k: sensors.count",
        ),
        (
            lambda c: c["pet"].update(kind="ldp", epsilon=1e-17),
            "^pet.epsilon: 1 \\* \\(170 \\+ 64 \\* 170 / 1e-17\\) must be below 2",
        ),
        (
            lambda c: c["pet"].update(kind="ldp", epsilon=1e-320),
            "^pet.epsilon: 1 \\* \\(170 \\+ 64 \\* 170 / 1e-320\\)",
        ),
        (
            lambda c: (c["pet"].update(kind="gdp", epsilon=1e-320), c["sensors"].update(count=3)),
            "^pet.epsilon: 3 \\* ",
        ),
        (lambda c: c["pet"].update(kind="ass", m=2**62), "^pet.m: at most 1024 shares"),
        (lambda c: c["pet"].update(kind="ass", m=1025), "^pet.m: at most 1024 shares"),
        (
            lambda c: c["encoding"].update(x_lo=0.5, x_hi=0.7),
            "^encoding: encoded width q = 0 must be >= 1",
        ),
        # the jitter decides the hop distribution; there is no key for it
        (
            lambda c: c.update(latency={"per_hop_mean_ms": 1.5, "distribution": "gaussian"}),
            r"^latency: unknown keys \['distribution'\]",
        ),
        # null is refused, not read as the absent key's default
        (
            lambda c: c["pet"].update(kind="gdp", epsilon=1.0, aggregator=None),
            "^pet.aggregator: expected a string, got None$",
        ),
        (
            lambda c: c["pet"].update(epsilon=None),
            "^pet.epsilon: expected a finite number, got None$",
        ),
        (lambda c: c["pet"].update(m=None), "^pet.m: expected an integer, got None$"),
    ],
)
def test_config_rejections_name_the_field(mutate, message):
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    mutate(cfg)
    with pytest.raises(ConfigError, match=message):
        scenario_from_dict(cfg)


def test_share_cap_is_inclusive():
    # checked at load only: a run at the cap would split every reading 1024 ways
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    cfg["pet"] = {"kind": "ass", "m": MAX_SHARES}
    assert scenario_from_dict(cfg).pet.m == MAX_SHARES == 1024
    demo = {"n": 10, "m": MAX_SHARES, "encoding": {"k": 1, "x_lo": 50, "x_hi": 120}}
    assert ass_demo_from_dict(demo)["m"] == MAX_SHARES
    with pytest.raises(ConfigError, match="^m: at most 1024 shares"):
        ass_demo_from_dict({**demo, "m": MAX_SHARES + 1})


def test_encoded_sum_bound_is_exclusive():
    # on [0, 1] the encoded width q equals k
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    cfg["encoding"] = {"k": 2**62 - 1, "x_lo": 0, "x_hi": 1}
    assert scenario_from_dict(cfg).encoding.q == 2**62 - 1
    cfg["encoding"]["k"] = 2**62
    with pytest.raises(ConfigError, match="^encoding.k: "):
        scenario_from_dict(cfg)


def test_noise_bound_is_exclusive():
    # at epsilon 64 the Laplace scale is q / 64, so the bound reads q + q < 2**62
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    cfg["pet"] = {"kind": "ldp", "epsilon": 64}
    cfg["encoding"] = {"k": 2**61 - 1, "x_lo": 0, "x_hi": 1}
    assert scenario_from_dict(cfg).encoding.q == 2**61 - 1
    cfg["encoding"]["k"] = 2**61
    # q is the larger factor of q + 64 b = q * (1 + 64 b / q) = q * 2 here
    with pytest.raises(ConfigError, match="^encoding: "):
        scenario_from_dict(cfg)


def test_clock_bound_is_exclusive(tmp_path):
    # one repetition at zero hop latency: the bound reads 1000 * compute_ms < 2**63,
    # and doubles near 9.2e15 are 2 apart
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    cfg.update(repetitions=1, latency={"per_hop_mean_ms": 0}, compute_ms=9223372036854774.0)
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(cfg))
    assert main(["run-scenario", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    cfg["compute_ms"] = 9223372036854776.0
    with pytest.raises(ConfigError, match="^compute_ms: the virtual clock reaches"):
        scenario_from_dict(cfg)


def test_relay_chain_constraints():
    with pytest.raises(ConfigError, match="unprocessed"):
        make_spec(topology=Topology("relay-chain", depth=5), pet=PetConfig("ldp", epsilon=1))
    with pytest.raises(ConfigError, match="single source"):
        make_spec(
            topology=Topology("relay-chain", depth=5), sensors=SensorConfig(count=2)
        )


def test_virtualized_constraints():
    with pytest.raises(ConfigError, match="no virtualized form"):
        make_spec(topology=Topology("virtualized"), pet=PetConfig("ldp", epsilon=1))
    with pytest.raises(ConfigError, match="one source"):
        make_spec(
            topology=Topology("virtualized"),
            pet=PetConfig("ass", m=3),
            sensors=SensorConfig(count=2),
        )
    with pytest.raises(ConfigError, match="one source"):
        make_spec(
            topology=Topology("virtualized"),
            pet=PetConfig("none"),
            sensors=SensorConfig(count=2),
        )


def test_latency_inline_object():
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    cfg["latency"] = {"per_hop_mean_ms": 1.5, "jitter_std_ms": 0.2}
    assert scenario_from_dict(cfg).latency == LatencyModel(1.5, 0.2)


@pytest.mark.parametrize(
    "name,code",
    [("n" * 243, 0), ("n" * 244, 2), ("\u00e9" * 122, 2), ("\ud800", 2)],
    ids=["243-ascii-bytes", "244-ascii-bytes", "244-utf8-bytes", "lone-surrogate"],
)
def test_a_name_too_long_for_its_report_file_exits_2(tmp_path, capsys, name, code):
    # run-scenario writes <name>_records.csv, and a file name takes 255 bytes
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(GOOD_CONFIG, name=name)))
    out = tmp_path / "out"
    assert main(["run-scenario", "--config", str(path), "--out", str(out)]) == code
    if code == 0:
        assert (out / f"{name}_records.csv").is_file()
    else:
        assert capsys.readouterr().err.startswith("config error: name: ")


# -- hop structure and calibrated latencies ---------------------------------------

def test_hop_counts_follow_the_flow():
    # two hops per message on the critical path, counted as the flow runs
    cases = [
        (Topology("on-device"), PetConfig("none"), 2),
        (Topology("on-device"), PetConfig("ldp", epsilon=1), 2),
        (Topology("on-device"), PetConfig("gdp", epsilon=1), 2),
        (Topology("on-device"), PetConfig("ass", m=3), 6),
        (Topology("virtualized"), PetConfig("none"), 4),
        (Topology("virtualized"), PetConfig("gdp", epsilon=1), 4),
        (Topology("virtualized"), PetConfig("ass", m=3), 8),
        (Topology("relay-chain", depth=5), PetConfig("none"), 12),
    ]
    for topology, pet, hops in cases:
        assert run_scenario(make_spec(topology=topology, pet=pet))[0].hop_count == hops
        assert hops <= hop_bound(pet.m, topology.depth)  # the clock bound's count


def test_baseline_calibration_value():
    # 0.307 ms compute + 2 hops x 2.494 ms = 5.295 ms exactly
    records = run_scenario(make_spec())
    for rec in records:
        assert rec.end_to_end_ms == pytest.approx(5.295)
        assert rec.hop_count == 2 == len(rec.hop_delays_ms)


def test_ldp_additive_model_value():
    # same calibration with 0.488 ms compute: the additive model gives
    # 5.476 ms; the residual against measured hardware is not modeled
    records = run_scenario(make_spec(pet=PetConfig("ldp", epsilon=0.01), compute_ms=0.488))
    assert records[0].end_to_end_ms == pytest.approx(5.476)


def test_virtualized_gdp_doubles_hops_of_on_device():
    common = dict(pet=PetConfig("gdp", epsilon=1.0), compute_ms=0.0, repetitions=2)
    on_dev = run_scenario(make_spec(topology=Topology("on-device"), **common))
    virt = run_scenario(make_spec(topology=Topology("virtualized"), **common))
    assert virt[0].hop_count == 2 * on_dev[0].hop_count
    assert virt[0].end_to_end_ms == pytest.approx(2 * on_dev[0].end_to_end_ms)


def test_relay_chain_hop_count_and_latency():
    spec = make_spec(
        topology=Topology("relay-chain", depth=5),
        latency=LatencyModel(3.88),
        compute_ms=0.0,
        repetitions=4,
    )
    for rec in run_scenario(spec):
        assert rec.hop_count == 12 == len(rec.hop_delays_ms)
        assert rec.end_to_end_ms == pytest.approx(46.56)


def test_hop_count_dominance_with_jitter():
    # with per-hop mean d and negligible compute, an H-hop path averages
    # H*d within 3 * jitter * sqrt(H) / sqrt(N) over N runs
    d, jitter, runs = 3.0, 0.4, 400
    spec = make_spec(
        topology=Topology("relay-chain", depth=5),
        latency=LatencyModel(d, jitter),
        compute_ms=0.0,
        repetitions=runs,
        seed=77,
    )
    records = run_scenario(spec)
    hops = records[0].hop_count
    mean = float(np.mean([r.end_to_end_ms for r in records]))
    assert abs(mean - hops * d) <= 3 * jitter * (hops**0.5) / (runs**0.5)


def test_records_are_additive_with_jitter():
    spec = make_spec(latency=LatencyModel(2.0, 0.5), repetitions=10)
    for rec in run_scenario(spec):
        assert rec.end_to_end_ms == rec.compute_ms + sum(rec.hop_delays_ms)


def test_determinism_same_seed_same_records():
    spec = make_spec(latency=LatencyModel(2.0, 0.5), repetitions=8)
    assert run_scenario(spec) == run_scenario(spec)
    assert run_scenario(spec) != run_scenario(spec.with_seed(43))


def test_parallel_workers_match_serial():
    spec = make_spec(latency=LatencyModel(2.0, 0.5), repetitions=6)
    assert run_scenario(spec, workers=1) == run_scenario(spec, workers=3)


# -- payload correctness through the fabric ----------------------------------------

def test_raw_flow_reproduces_values():
    spec = make_spec(
        sensors=SensorConfig(count=4), latency=LatencyModel(1.0), repetitions=5
    )
    for out in run_scenario_outcomes(spec):
        assert out.error is None
        # raw flow: only quantization separates result from truth
        assert 0 <= out.truth - out.result < 4 * 1.0  # n * 1/k


def test_virtualized_relay_forwards_the_value():
    spec = make_spec(
        topology=Topology("virtualized"),
        sensors=SensorConfig(count=1),
        compute_ms=0.0,
        repetitions=3,
    )
    for out in run_scenario_outcomes(spec):
        assert out.result == decode(encode(out.truth, PARAMS), PARAMS)
        assert out.record.hop_count == 4 == len(out.record.hop_delays_ms)


def test_gdp_mean_flow():
    spec = make_spec(
        pet=PetConfig("gdp", epsilon=1e6, aggregator="mean"),
        sensors=SensorConfig(count=3),
        repetitions=3,
    )
    for out in run_scenario_outcomes(spec):
        assert out.result == pytest.approx(out.truth, abs=1.5)  # quantization + rounding


def test_ass_flow_reconstructs_exactly():
    spec = make_spec(
        pet=PetConfig("ass", m=3),
        sensors=SensorConfig(count=5),
        compute_ms=0.591,
        repetitions=10,
    )
    for out in run_scenario_outcomes(spec):
        assert out.error is None
        assert out.encoded_result == out.encoded_truth
        assert out.record.hop_count == 6 == len(out.record.hop_delays_ms)


def test_ass_drop_injection_names_the_lost_share():
    spec = make_spec(
        pet=PetConfig("ass", m=3, drop_one_share=True),
        sensors=SensorConfig(count=5),
        repetitions=20,
    )
    outs = run_scenario_outcomes(spec)
    drops = set()
    for out in outs:
        assert out.error is not None
        assert out.error.missing == [out.injected_drop]
        sensor, channel = out.injected_drop
        assert sensor in {f"s{i}" for i in range(5)} and 1 <= channel <= 3
        drops.add(out.injected_drop)
    assert len(drops) > 1  # the dropped share varies across repetitions
    with pytest.raises(type(outs[0].error)):
        run_scenario(spec)  # the strict entry point aborts


def test_virtualized_ass_flow():
    spec = make_spec(
        topology=Topology("virtualized"),
        pet=PetConfig("ass", m=3),
        compute_ms=17.265,
        repetitions=3,
    )
    for out in run_scenario_outcomes(spec):
        assert out.error is None
        assert out.encoded_result == out.encoded_truth
        assert out.record.hop_count == 8 == len(out.record.hop_delays_ms)


def test_krr_flow_stays_in_domain():
    # randomized response reports values from the encoded domain itself,
    # so the decoded result stays within [decode(0), decode(q)]
    spec = make_spec(pet=PetConfig("krr", epsilon=0.1), repetitions=10)
    lo = (0 - PARAMS.offset) / PARAMS.k
    hi = (PARAMS.q - PARAMS.offset) / PARAMS.k
    for out in run_scenario_outcomes(spec):
        assert lo <= out.result <= hi


def test_the_topic_match_memo_keeps_every_pair_of_a_large_run():
    # each sensor adds a grant and a subscription pair to the memo, so 2,500
    # sensors hold more pairs than a memo bounded at 4,096 would keep
    spec = make_spec(sensors=SensorConfig(count=2500), repetitions=2)
    run_scenario(spec)
    misses = topic_matches.cache_info().misses
    run_scenario(spec)
    assert topic_matches.cache_info().misses == misses


# -- the six-scenario comparison ---------------------------------------------------

def test_bench_from_dict_structural_ordering():
    suite = bench_from_dict({"repetitions": 10, "seed": 1})
    assert [s.name for s in suite] == [
        "baseline-on-device",
        "ldp-on-device",
        "gdp-on-device",
        "gdp-virtualized",
        "ass-on-device",
        "ass-virtualized",
    ]
    means = []
    for spec in suite:
        recs = run_scenario(spec)
        means.append(float(np.mean([r.end_to_end_ms for r in recs])))
    base, ldp, gdp_dev, gdp_virt, ass_dev, ass_virt = means
    assert base < ldp <= gdp_dev < gdp_virt < ass_dev < ass_virt
    assert base == pytest.approx(5.295)
    assert suite[0].compute_ms == REFERENCE_COMPUTE_MS["baseline"]
