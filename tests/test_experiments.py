"""Utility experiments: decay curves, oracle agreement, load neutrality."""

import math

import numpy as np
import pytest

from petfabric.codec import decode_sum, derive_params, encode
from petfabric.fabric import LATENCY_PRESETS, LatencyModel
from petfabric.scenarios import (
    PetConfig,
    ScenarioSpec,
    SensorConfig,
    Topology,
    generate_weights,
    load_test,
    weight_sum_experiment,
)


def test_weight_sum_report_shape():
    report = weight_sum_experiment(50, (50, 120), 1, "ldp", [0.5, 1.0], reps=100, seed=1)
    assert report.query == "weight-sum-ldp"
    assert [p.epsilon for p in report.points] == [0.5, 1.0]
    assert all(p.reps == 100 for p in report.points)
    # the report carries the dataset it ran on, as generate_weights draws it
    assert report.weights == tuple(generate_weights(50, 50, 120, 1).tolist())
    assert report.ground_truth == float(np.sum(report.weights))


def test_ground_truth_sum_plausibility():
    # 500 uniform weights on [50, 120] concentrate near 42,500
    report = weight_sum_experiment(500, (50, 120), 1, "ldp", [1.0], reps=100, seed=606)
    assert 41_100 < report.ground_truth < 43_900


def test_error_decreases_with_epsilon():
    report = weight_sum_experiment(200, (50, 120), 1, "ldp", [0.05, 0.5], reps=200, seed=5)
    assert report.points[0].median_abs_err > report.points[1].median_abs_err


def test_gdp_mean_abs_error_matches_closed_form():
    # sensitivity override 120 at eps=1 gives Laplace(120) noise, whose mean
    # absolute deviation is the scale itself; measured against the true (not
    # quantized) sum the error also carries the dataset's fixed floor gap c,
    # so the closed form is E|Lap(b) - c| = |c| + b * exp(-|c|/b)
    report = weight_sum_experiment(
        500, (50, 120), 1, "gdp", [1.0], reps=10_000, seed=17, sensitivity=120
    )
    params = derive_params(50, 120, 1)
    weights = generate_weights(500, 50, 120, 17)
    quant_gap = float(weights.sum()) - decode_sum(
        sum(encode(float(w), params) for w in weights), 500, params
    )
    b, c = 120.0, abs(quant_gap)
    closed_form = c + b * math.exp(-c / b)
    assert report.points[0].mean_abs_err == pytest.approx(closed_form, rel=0.05)
    # and the pure-noise component is the scale itself
    oracle_rng = np.random.default_rng(1700)
    oracle = np.abs(oracle_rng.laplace(0.0, b, size=200_000) - quant_gap).mean()
    assert report.points[0].mean_abs_err == pytest.approx(oracle, rel=0.05)


def test_ldp_medians_match_independent_oracle():
    seed, n, k = 606, 300, 1
    grid = [0.1, 1.0]
    report = weight_sum_experiment(n, (50, 120), k, "ldp", grid, reps=400, seed=seed)
    params = derive_params(50, 120, k)
    weights = generate_weights(n, 50, 120, seed)
    encoded = np.array([encode(float(w), params) for w in weights])
    quant_gap = float(weights.sum()) - decode_sum(int(encoded.sum()), n, params)
    oracle_rng = np.random.default_rng(31337)
    for pt in report.points:
        scale = params.q / pt.epsilon
        noise = np.rint(oracle_rng.laplace(0.0, scale, size=(20_000, n))).sum(axis=1)
        oracle = float(np.median(np.abs(noise / k - quant_gap)))
        assert pt.median_abs_err == pytest.approx(oracle, rel=0.10)


# -- load neutrality --------------------------------------------------------------

def ldp_load_spec(reps=200, seed=909):
    return ScenarioSpec(
        name="ldp-under-load",
        topology=Topology("on-device"),
        pet=PetConfig("ldp", epsilon=0.01),
        sensors=SensorConfig(),
        encoding=derive_params(50, 120, 1),
        latency=LATENCY_PRESETS["wifi-no-powersave"],
        compute_ms=0.488,
        repetitions=reps,
        seed=seed,
    )


def test_load_does_not_shift_latency():
    cmp = load_test(ldp_load_spec(), rate_per_s=400.0)
    assert cmp.p_value > 0.01
    assert cmp.filler_per_rep == 20
    assert cmp.baseline.n == cmp.loaded.n == 200


def test_zero_rate_reproduces_baseline_exactly():
    cmp = load_test(ldp_load_spec(reps=50), rate_per_s=0.0)
    assert cmp.ks_statistic == 0.0 and cmp.p_value == 1.0
    assert cmp.baseline == cmp.loaded


def test_negative_load_rate_raises_before_any_repetition(monkeypatch):
    from petfabric.scenarios import experiments

    runs = []
    monkeypatch.setattr(experiments, "run_scenario_outcomes", lambda *a, **k: runs.append(a))
    with pytest.raises(ValueError, match="rate_per_s"):
        load_test(ldp_load_spec(reps=2), rate_per_s=-1.0)
    assert runs == []


def test_load_test_constant_latency_is_trivially_neutral():
    spec = ScenarioSpec(
        name="const",
        topology=Topology("on-device"),
        pet=PetConfig("none"),
        sensors=SensorConfig(),
        encoding=derive_params(50, 120, 1),
        latency=LatencyModel(2.494),
        compute_ms=0.307,
        repetitions=30,
        seed=1,
    )
    cmp = load_test(spec, rate_per_s=400.0)
    assert cmp.p_value == 1.0  # all records identical constants
