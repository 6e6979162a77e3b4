"""Acceptance suite: the twelve exit criteria, one test each.

Every test prints a single PASS line (visible with `pytest -s` or
`-rP`) and enforces its runtime budget. Statistical criteria run at
fixed seeds; tolerances sit several standard errors out at the stated
sample sizes, so the seeds are reproducibility anchors, not tuning.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from petfabric import adversary, ass, dp
from petfabric.cli import main as cli_main
from petfabric.codec import EncodingParams, decode_sum, encode
from petfabric.fabric.broker import LATENCY_PRESETS, LatencyModel
from petfabric.fabric.cbor import CborDecodeError
from petfabric.fabric.envelope import Envelope, EnvelopeError, Scheme, cbor_decode, cbor_encode
from petfabric.scenarios.config import PetConfig, ScenarioSpec, SensorConfig, Topology, bench_from_dict
from petfabric.scenarios.experiments import generate_weights, load_test, weight_sum_experiment
from petfabric.scenarios.runner import run_scenario, run_scenario_outcomes


@contextmanager
def criterion(number: int, label: str, budget_s: float | None):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f} s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.2f}s)"


def test_01_codec_roundtrip_bound():
    """One-sided quantization: 0 <= x - decode(encode(x)) < 1/k, never violated."""
    with criterion(1, "codec round-trip bound", 5.0):
        rng = np.random.default_rng(101)
        for lo, hi, k in [(50.0, 120.0, 1), (-10.0, 20.0, 7), (-273.15, 1000.0, 100)]:
            params = EncodingParams(k, lo, hi)
            offset = params.offset
            for x in rng.uniform(lo, hi, 100_000):
                x = float(x)
                m = encode(x, params) - offset
                num, den = x.as_integer_ratio()
                # exact rational comparison: m/k <= x < (m+1)/k
                assert m * den <= num * k < (m + 1) * den


def test_02_exact_average_reconstruction():
    """Shared-then-reconstructed averages stay within 1/k on 1000 seeded instances."""
    with criterion(2, "exact average via secret shares", 30.0):
        for k in (1, 100):
            params = EncodingParams(k, 50, 120)
            fp = ass.choose_modulus(500, params.q)
            for instance in range(1000):
                rng = np.random.default_rng(202_000 + instance)
                weights = rng.uniform(50, 120, 500)
                prefixes = ass.draw_prefixes(500, 3, fp, rng)
                bundles = [
                    ass.split(encode(float(w), params), pre, fp, sensor_id=f"s{i}")
                    for i, (w, pre) in enumerate(zip(weights, prefixes))
                ]
                average = ass.reconstruct_average(bundles, fp, params)
                assert abs(average - weights.mean()) < 1.0 / k


def test_03_share_secrecy():
    """Every m-1 channel subset is uniform on Z_Q and independent of the secret."""
    with criterion(3, "proper share subsets carry zero information", 60.0):
        fp = ass.FieldParams(modulus=101, n_max=1, width=100)
        secrets = (17, 83)
        subsets = [(1, 2), (1, 3), (2, 3)]
        shares = {}
        for secret in secrets:
            rng = np.random.default_rng(20_250_808 + secret)
            prefixes = ass.draw_prefixes(100_000, 3, fp, rng)
            shares[secret] = np.array(
                [ass.split(secret, pre, fp).shares for pre in prefixes], dtype=np.int64
            )
        for secret in secrets:
            for subset in subsets:
                partial = shares[secret][:, [c - 1 for c in subset]].sum(axis=1) % 101
                p = stats.chisquare(np.bincount(partial, minlength=101)).pvalue
                assert p > 0.01, (secret, subset, p)
        for subset in subsets:
            cols = [c - 1 for c in subset]
            a = shares[17][:, cols].sum(axis=1) % 101
            b = shares[83][:, cols].sum(axis=1) % 101
            _, p = adversary.two_sample_uniformity(a, b, 101)
            assert p > 0.01, (subset, p)


def test_04_guess_probability_grid():
    """Empirical distinguisher success matches 1 - exp(-eps*gap/(2*sens))/2."""
    with criterion(4, "distinguisher success closed form", 120.0):
        rows = adversary.guess_rate_grid(
            epsilons=[0.01, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0],
            gap_ratios=[0.1, 0.5, 1.0],
            sensitivity=1000,
            trials=100_000,
            seed=404,
        )
        assert len(rows) == 21
        for row in rows:
            assert abs(row.empirical_pg - row.analytic_pg) <= 0.01, row


def test_05_laplace_moments_and_gdp_error():
    """Noise variance 2b^2 within 2%; global-model MAE within 5% of its scale."""
    with criterion(5, "noise moments", 30.0):
        draws = dp.sample_laplace(2.0, np.random.default_rng(505), size=1_000_000)
        assert abs(draws.var(ddof=1) - 8.0) <= 0.02 * 8.0

        params = EncodingParams(1, 50, 120)
        weights = np.random.default_rng(42).uniform(50, 120, 500)
        encoded = [encode(float(w), params) for w in weights]
        exact = sum(encoded)
        budget = dp.PrivacyBudget(1.0, params.q)
        rng = np.random.default_rng(506)
        errors = np.array(
            [
                abs(dp.gdp_aggregate(encoded, budget, "sum", rng) - exact)
                for _ in range(10_000)
            ]
        )
        assert abs(errors.mean() - budget.scale) <= 0.05 * budget.scale


def test_06_utility_decay_against_oracle():
    """Median weight-sum error strictly decreasing in eps, within 10% of an
    independent Monte Carlo oracle; absolute magnitudes are not asserted."""
    with criterion(6, "privacy-utility decay", 120.0):
        seed, n, k = 606, 500, 1
        grid = [0.05, 0.1, 0.3, 0.5, 1.0]
        report = weight_sum_experiment(
            n, EncodingParams(k, 50, 120), "ldp", grid, reps=1000, seed=seed
        )
        medians = [p.median_abs_err for p in report.points]
        assert all(a > b for a, b in zip(medians, medians[1:]))

        # oracle: re-derive the dataset, then push numpy's own Laplace
        # sampler through the same decode pipeline
        params = EncodingParams(k, 50, 120)
        weights = generate_weights(n, 50, 120, seed)
        encoded = np.array([encode(float(w), params) for w in weights])
        quant_gap = float(weights.sum()) - decode_sum(int(encoded.sum()), n, params)
        oracle_rng = np.random.default_rng(999_000 + seed)
        for point in report.points:
            scale = params.q / point.epsilon
            noise = np.rint(oracle_rng.laplace(0.0, scale, size=(50_000, n))).sum(axis=1)
            oracle_median = float(np.median(np.abs(noise / k - quant_gap)))
            assert point.median_abs_err == pytest.approx(oracle_median, rel=0.10)


def test_07_relay_chain_hop_structure():
    """Five relays mean 12 hops; at 3.88 ms per hop the chain runs 46.56 ms."""
    with criterion(7, "hop-count structure", 5.0):
        spec = ScenarioSpec(
            name="relay-chain-5",
            topology=Topology("relay-chain", depth=5),
            pet=PetConfig("none"),
            sensors=SensorConfig(),
            encoding=EncodingParams(1, 50, 120),
            latency=LatencyModel(3.88),
            compute_ms=0.0,
            repetitions=100,
            seed=7,
        )
        records = run_scenario(spec)
        assert all(r.hop_count == 12 for r in records)
        mean = float(np.mean([r.end_to_end_ms for r in records]))
        assert abs(mean - 46.56) <= 0.02


def test_08_placement_ordering():
    """Six-configuration suite keeps the measured latency ordering."""
    with criterion(8, "placement latency ordering", 30.0):
        means = []
        for spec in bench_from_dict({"repetitions": 50, "seed": 8}):
            records = run_scenario(spec)
            means.append(float(np.mean([r.end_to_end_ms for r in records])))
        baseline, ldp, gdp_dev, gdp_virt, ass_dev, ass_virt = means
        assert baseline < ldp <= gdp_dev < gdp_virt < ass_dev < ass_virt, means


def test_09_load_neutrality():
    """400 msg/s of filler leaves the latency distribution indistinguishable."""
    with criterion(9, "broker load neutrality", 60.0):
        spec = ScenarioSpec(
            name="ldp-under-load",
            topology=Topology("on-device"),
            pet=PetConfig("ldp", epsilon=0.01),
            sensors=SensorConfig(),
            encoding=EncodingParams(1, 50, 120),
            latency=LATENCY_PRESETS["wifi-no-powersave"],
            compute_ms=0.488,
            repetitions=400,
            seed=909,
        )
        comparison = load_test(spec, rate_per_s=400.0)
        assert comparison.p_value > 0.01, comparison


def test_10_share_loss_fragility():
    """One lost share aborts with its name; no loss reconstructs exactly."""
    with criterion(10, "share-loss fragility", 10.0):
        common = dict(
            topology=Topology("on-device"),
            sensors=SensorConfig(count=5),
            encoding=EncodingParams(1, 50, 120),
            latency=LatencyModel(2.494),
            compute_ms=0.591,
            repetitions=100,
            seed=10,
        )
        lossy = ScenarioSpec(
            name="ass-lossy", pet=PetConfig("ass", m=3, drop_one_share=True), **common
        )
        outcomes = run_scenario_outcomes(lossy)
        assert len(outcomes) == 100
        for outcome in outcomes:
            assert outcome.error is not None
            assert outcome.error.missing == [outcome.injected_drop]

        clean = ScenarioSpec(name="ass-clean", pet=PetConfig("ass", m=3), **common)
        outcomes = run_scenario_outcomes(clean)
        assert len(outcomes) == 100
        for outcome in outcomes:
            assert outcome.error is None
            assert outcome.encoded_result == outcome.encoded_truth


# one golden envelope per scheme tag; bytes frozen from the canonical
# encoder and cross-checked by hand against the CBOR head rules
GOLDEN_ENVELOPES = [
    (
        Envelope(topic="cabin/sim/s1/value", sensor_id="s1", sequence=0,
                 scheme=Scheme.RAW, value=122, timestamp_us=0),
        "a5006273310100020003187a0600",
    ),
    (
        Envelope(topic="cabin/sim/s1/value", sensor_id="s1", sequence=7,
                 scheme=Scheme.LDP, value=-39, epsilon=0.5, timestamp_us=1_000_000),
        "a6006273310107020103382605fb3fe0000000000000061a000f4240",
    ),
    (
        Envelope(topic="cabin/out/value", sensor_id="aggregator", sequence=3,
                 scheme=Scheme.GDP, value=61184, epsilon=1.0, timestamp_us=2_500_000),
        "a6006a61676772656761746f72010302020319ef0005fb3ff0000000000000061a002625a0",
    ),
    (
        Envelope(topic="cabin/ass/2/value", sensor_id="s4", sequence=12,
                 scheme=Scheme.ASS_SHARE, value=84733, share_index=2, timestamp_us=777),
        "a600627334010c0203031a00014afd040206190309",
    ),
    (
        Envelope(topic="cabin/sim/s1/value", sensor_id="s1", sequence=1,
                 scheme=Scheme.KRR, value=46, epsilon=2.0, timestamp_us=42),
        "a6006273310101020403182e05fb400000000000000006182a",
    ),
]


def test_11_wire_format_golden_bytes():
    """Envelope payloads are bit-exact; malformed payloads refuse to decode."""
    with criterion(11, "wire-format golden bytes", 1.0):
        for env, hexbytes in GOLDEN_ENVELOPES:
            data = cbor_encode(env)
            assert data.hex() == hexbytes
            assert cbor_decode(data, topic=env.topic) == env

        from petfabric.fabric.cbor import encode as raw_encode

        with pytest.raises(EnvelopeError):  # missing mandatory value key
            cbor_decode(raw_encode({0: "s1", 1: 0, 2: 0, 6: 0}))
        with pytest.raises(EnvelopeError):  # unknown scheme tag
            cbor_decode(raw_encode({0: "s1", 1: 0, 2: 99, 3: 1, 6: 0}))
        with pytest.raises(EnvelopeError):  # share scheme without channel index
            cbor_decode(raw_encode({0: "s1", 1: 0, 2: 3, 3: 1, 6: 0}))
        with pytest.raises(CborDecodeError):  # truncated bytes
            cbor_decode(bytes.fromhex("a5006273310100020003187a06"))


def test_12_cli_determinism(tmp_path):
    """Any subcommand, run twice with one seed, emits byte-identical CSVs."""
    with criterion(12, "CLI byte-level determinism", None):
        configs = {
            "run-scenario": {
                "name": "ldp-smoke",
                "topology": {"kind": "on-device"},
                "pet": {"kind": "ldp", "epsilon": 0.5},
                "sensors": {"count": 2},
                "encoding": {"k": 1, "x_lo": 50, "x_hi": 120},
                "latency": "wifi-no-powersave",
                "compute_ms": 0.488,
                "repetitions": 25,
            },
            "sweep-epsilon": {
                "n": 60,
                "encoding": {"k": 1, "x_lo": 50, "x_hi": 120},
                "model": "gdp",
                "eps_grid": [0.5, 1.0],
                "reps": 100,
            },
            "adversary-sim": {
                "eps_grid": [0.5],
                "gap_ratios": [0.5],
                "sensitivity": 1000,
                "trials": 20_000,
            },
            "ass-demo": {
                "n": 10,
                "m": 3,
                "encoding": {"k": 1, "x_lo": 50, "x_hi": 120},
                "repetitions": 10,
            },
            "bench-suite": {"latency": "testbed", "repetitions": 5},
        }
        for subcommand, payload in configs.items():
            cfg = tmp_path / f"{subcommand}.json"
            cfg.write_text(json.dumps(payload))
            outputs = []
            for run in ("first", "second"):
                out = tmp_path / subcommand / run
                code = cli_main(
                    [subcommand, "--config", str(cfg), "--out", str(out), "--seed", "12"]
                )
                assert code == 0, subcommand
                manifest = json.loads((out / "manifest.json").read_text())
                outputs.append(
                    {name: (out / name).read_bytes() for name in manifest["outputs"]}
                )
            assert outputs[0] == outputs[1], f"{subcommand} CSVs differ between runs"
