"""Utility experiments: decay curves, oracle agreement, load neutrality."""

import math

import numpy as np
import pytest

from petfabric.codec import decode_sum, derive_params, encode
from petfabric.fabric import LATENCY_PRESETS, LatencyModel
from petfabric.scenarios import (
    ConfigError,
    PetConfig,
    ScenarioSpec,
    SensorConfig,
    Topology,
    generate_weights,
    load_test,
    profile_obfuscation_experiment,
    synthetic_brew_profile,
    weight_sum_experiment,
)


def test_weight_sum_report_shape():
    report = weight_sum_experiment(50, (50, 120), 1, "ldp", [0.5, 1.0], reps=100, seed=1)
    assert report.query == "weight-sum-ldp"
    assert [p.epsilon for p in report.points] == [0.5, 1.0]
    assert all(p.reps == 100 for p in report.points)


def test_weight_sum_validation():
    with pytest.raises(ConfigError, match="reps"):
        weight_sum_experiment(50, (50, 120), 1, "ldp", [0.5], reps=10, seed=1)
    with pytest.raises(ConfigError, match="model"):
        weight_sum_experiment(50, (50, 120), 1, "local", [0.5], reps=100, seed=1)
    with pytest.raises(ConfigError, match="eps_grid"):
        weight_sum_experiment(50, (50, 120), 1, "ldp", [], reps=100, seed=1)
    with pytest.raises(ConfigError, match="epsilon"):
        weight_sum_experiment(50, (50, 120), 1, "ldp", [0.0], reps=100, seed=1)
    with pytest.raises(ConfigError, match="n"):
        weight_sum_experiment(0, (50, 120), 1, "ldp", [0.5], reps=100, seed=1)


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


# -- brewing profile ------------------------------------------------------------

def test_brew_profile_shape():
    profile = synthetic_brew_profile(300)
    assert len(profile) == 300
    assert profile[0] == pytest.approx(20.0)
    assert max(profile) <= 94.0
    assert profile[-1] < 30.0  # cooled down
    with pytest.raises(ConfigError):
        synthetic_brew_profile(1)


def test_profile_rmse_scales_inversely_with_epsilon():
    profile = synthetic_brew_profile(300)
    report = profile_obfuscation_experiment(profile, [0.01, 1.0], seed=808, k=10, reps=100)
    ratio = report.points[0].rmse / report.points[1].rmse
    assert ratio == pytest.approx(100.0, rel=0.10)


def test_profile_rmse_matches_monte_carlo_oracle():
    profile = synthetic_brew_profile(300)
    report = profile_obfuscation_experiment(profile, [0.01, 1.0], seed=808, k=10, reps=100)
    params = derive_params(min(profile), max(profile), 10)
    encoded = np.array([encode(float(x), params) for x in profile])
    truth = np.array(profile)
    oracle_rng = np.random.default_rng(333)
    for pt in report.points:
        noise = np.rint(oracle_rng.laplace(0.0, params.q / pt.epsilon, size=(400, len(profile))))
        decoded = (encoded[None, :] + noise - params.offset) / params.k
        oracle = float(np.sqrt(np.mean((decoded - truth[None, :]) ** 2)))
        assert pt.rmse == pytest.approx(oracle, rel=0.10)


def test_profile_converges_to_quantization_floor():
    profile = synthetic_brew_profile(300)
    k = 10
    report = profile_obfuscation_experiment(profile, [1e9], seed=1, k=k, reps=10)
    # at negligible noise the RMSE is exactly the noiseless encode/decode
    # residual; one-sided floor residuals are quasi-uniform on [0, 1/k),
    # whose RMS is 1/(k*sqrt(3)) = 2/(k*sqrt(12))
    assert report.points[0].rmse == pytest.approx(report.quantization_rmse, abs=1e-12)
    assert report.quantization_rmse < 1.0 / k
    assert report.quantization_rmse <= 1.05 * 2.0 / (k * math.sqrt(12.0))


def test_profile_validation():
    with pytest.raises(ConfigError):
        profile_obfuscation_experiment([1.0], [0.5], seed=1)
    with pytest.raises(ConfigError):
        profile_obfuscation_experiment([1.0, 2.0], [], seed=1)
    with pytest.raises(ConfigError):
        profile_obfuscation_experiment([1.0, 2.0], [-1.0], seed=1)


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
