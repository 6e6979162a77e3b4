"""Utility experiments: decay curves, oracle agreement, load neutrality."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from petfabric.codec import EncodingParams, decode_sum, encode
from petfabric.fabric.broker import LATENCY_PRESETS, LatencyModel
from petfabric.scenarios.config import PetConfig, ScenarioSpec, SensorConfig, Topology
from petfabric.scenarios.experiments import (
    _ks_2samp_equal,
    generate_weights,
    load_test,
    weight_sum_experiment,
)


def test_weight_sum_report_shape():
    report = weight_sum_experiment(
        50, EncodingParams(1, 50, 120), "ldp", [0.5, 1.0], reps=100, seed=1
    )
    assert report.query == "weight-sum-ldp"
    assert [p.epsilon for p in report.points] == [0.5, 1.0]
    assert all(p.reps == 100 for p in report.points)
    # the report carries the dataset it ran on, as generate_weights draws it
    np.testing.assert_array_equal(report.weights, generate_weights(50, 50, 120, 1), strict=True)
    assert not report.weights.flags.writeable
    twin = dataclasses.replace(report, weights=report.weights[::-1])
    assert twin == report and hash(twin) == hash(report)  # eq and hash skip the array
    assert report.ground_truth == float(np.sum(report.weights))


def test_ground_truth_sum_plausibility():
    # 500 uniform weights on [50, 120] concentrate near 42,500
    report = weight_sum_experiment(
        500, EncodingParams(1, 50, 120), "ldp", [1.0], reps=100, seed=606
    )
    assert 41_100 < report.ground_truth < 43_900


def test_error_decreases_with_epsilon():
    report = weight_sum_experiment(
        200, EncodingParams(1, 50, 120), "ldp", [0.05, 0.5], reps=200, seed=5
    )
    assert report.points[0].median_abs_err > report.points[1].median_abs_err


def test_gdp_mean_abs_error_matches_closed_form():
    # sensitivity override 120 at eps=1 gives Laplace(120) noise, whose mean
    # absolute deviation is the scale itself; measured against the true (not
    # quantized) sum the error also carries the dataset's fixed floor gap c,
    # so the closed form is E|Lap(b) - c| = |c| + b * exp(-|c|/b)
    params = EncodingParams(1, 50, 120)
    report = weight_sum_experiment(
        500, params, "gdp", [1.0], reps=10_000, seed=17, sensitivity=120
    )
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
    params = EncodingParams(k, 50, 120)
    report = weight_sum_experiment(n, params, "ldp", grid, reps=400, seed=seed)
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
        encoding=EncodingParams(1, 50, 120),
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
        encoding=EncodingParams(1, 50, 120),
        latency=LatencyModel(2.494),
        compute_ms=0.307,
        repetitions=30,
        seed=1,
    )
    cmp = load_test(spec, rate_per_s=400.0)
    assert cmp.p_value == 1.0  # all records identical constants


# -- the in-house KS test ------------------------------------------------------------

#: sample sizes a side, fixed up front: the small sizes reach the rounding
#: fallback, 200 and 400 are the load tests' sizes
KS_SIZES = (1, 2, 3, 5, 7, 16, 50, 200, 400, 1000)
KS_SEEDS = range(20)


def exact_ks_p(n: int, h: int) -> Fraction:
    """P(D >= h/n) for two samples of n, from binomial coefficients:
    2 * sum_k (-1)**(k-1) * C(2n, n - k*h) / C(2n, n)."""
    terms = (
        (-1) ** (k - 1) * math.comb(2 * n, n - k * h) for k in range(1, n // h + 1)
    )
    return 2 * Fraction(sum(terms), math.comb(2 * n, n))


def ks_pair(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two normal samples, the second shifted by 0 to 1 sd; odd seeds are
    rounded to one decimal, so they carry ties."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(0.0, 1.0, n), rng.normal((seed % 5) * 0.25, 1.0, n)
    return (np.round(a, 1), np.round(b, 1)) if seed % 2 else (a, b)


@pytest.mark.parametrize("n", KS_SIZES)
def test_ks_matches_scipy_bit_for_bit_where_its_exact_method_succeeds(n):
    exact_runs = 0
    for seed in KS_SEEDS:
        a, b = ks_pair(n, seed)
        statistic, p_value = _ks_2samp_equal(a, b)
        with warnings.catch_warnings():
            # scipy warns when it leaves the exact method for the asymptotic one
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result = ks_2samp(a, b)
            except RuntimeWarning:
                h = round(statistic * n)
                assert p_value == 1.0 and abs(exact_ks_p(n, h) - 1) <= Fraction(1e-15)
                continue
        assert (statistic, p_value) == (float(result.statistic), float(result.pvalue))
        exact_runs += 1
    assert exact_runs > 0


def test_ks_clips_to_one_where_the_recurrence_rounds_above_it():
    # interleaved samples: the counts never differ by more than 1
    a = np.arange(7) * 2.0
    assert _ks_2samp_equal(a, a + 1.0) == (1 / 7, 1.0)
    assert abs(exact_ks_p(7, 1) - 1) <= Fraction(1e-15)


def test_ks_needs_two_samples_of_one_size():
    with pytest.raises(ValueError, match="equal size"):
        _ks_2samp_equal(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="non-empty"):
        _ks_2samp_equal(np.zeros(0), np.zeros(0))
