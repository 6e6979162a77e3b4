"""Utility experiments: decay curves, oracle agreement, load neutrality."""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from petfabric import dp
from petfabric.codec import EncodingParams, decode_sum, encode
from petfabric.fabric.broker import LATENCY_PRESETS, LatencyModel
from petfabric.scenarios.config import ScenarioSpec
from petfabric.scenarios.experiments import (
    UtilityPoint,
    UtilityReport,
    _ks_2samp_equal,
    generate_weights,
    load_test,
    median,
    weight_sum_experiment,
)
from test_dp import StubRng


def test_weight_sum_report_shape():
    report = weight_sum_experiment(
        50, EncodingParams(1, 50, 120), "ldp", [0.5, 1.0], reps=100, seed=1
    )
    assert [p.epsilon for p in report.points] == [0.5, 1.0]
    assert all(p.reps == 100 for p in report.points)
    # the report carries the dataset it ran on, as generate_weights draws it
    np.testing.assert_array_equal(report.weights, generate_weights(50, 50, 120, 1), strict=True)
    assert not report.weights.flags.writeable
    twin = dataclasses.replace(report, weights=report.weights[::-1])
    assert twin == report and hash(twin) == hash(report)  # eq and hash skip the array
    assert report.ground_truth == float(np.sum(report.weights))


#: array kind -> draw of n values, for the median bit check
MEDIAN_ARRAYS = {
    "normal": lambda rng, n: rng.normal(size=n),
    "signed-zeros": lambda rng, n: rng.choice([-1.0, -0.0, 0.0, 1.0], n),
    "only-zeros": lambda rng, n: rng.choice([-0.0, 0.0], n),
    "only-negative-zeros": lambda rng, n: np.full(n, -0.0),
    "repeated": lambda rng, n: rng.integers(0, 3, n).astype(float),
    "infinities": lambda rng, n: rng.choice([-np.inf, -1.0, 0.0, 2.0, np.inf], n),
    "nan": lambda rng, n: np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n)),
    "signed-nan": lambda rng, n: rng.choice([np.nan, -np.nan, 1.0, -0.0], n),
}


@pytest.mark.parametrize("kind", sorted(MEDIAN_ARRAYS))
def test_median_gives_the_bits_of_np_median(kind):
    rng = np.random.default_rng(20251)
    for n in [*range(1, 65), 349, 350, 1000, 1001]:
        for _ in range(5):
            values = MEDIAN_ARRAYS[kind](rng, n)
            values.flags.writeable = False
            with np.errstate(invalid="ignore"):  # -inf + inf in the middle pair
                want, got = np.median(values), median(values)
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (n, values)


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



def test_ldp_sweep_peak_holds_no_list_of_encoded_ints():
    # one repetition holds the weights, their int64 encodings, the draw's
    # float64 noise and its int64 result: four arrays of 8 B a record, plus
    # the Laplace draw's block scratch, and no list of encoded ints
    n = 2**16
    run = lambda: weight_sum_experiment(n, EncodingParams(1, 50, 120), "ldp", [1.0], 100, 3)
    run()  # first-call allocations are numpy's, not the sweep's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * n + 16 * dp.BLOCK


def per_repetition_ldp_sweep(n, encoding, eps_grid, reps, seed):
    """The ldp sweep with one perturbation, rounding and int64 sum per
    repetition: the reference the blocked repetitions must reproduce."""
    weights = generate_weights(n, encoding.x_lo, encoding.x_hi, seed)
    values = np.fromiter((encode(float(w), encoding) for w in weights), np.int64, n)
    true_sum = float(weights.sum())
    points = []
    for i, eps in enumerate(eps_grid):
        rng = np.random.default_rng(seed + 1 + i)
        budget = dp.PrivacyBudget(epsilon=eps, sensitivity=encoding.q)
        errors = np.empty(reps)
        for r in range(reps):
            noise = dp.sample_laplace(budget.scale, rng, size=values.shape)
            np.rint(noise, out=noise)
            out = noise.astype(np.int64)
            out += values
            errors[r] = abs(decode_sum(int(out.sum()), n, encoding) - true_sum)
        stats = errors.mean(), np.median(errors), errors.std(ddof=1)
        points.append(UtilityPoint(float(eps), *map(float, stats), reps))
    return UtilityReport(true_sum, tuple(points), weights)


def blocked_ldp_sweep(n, encoding, eps_grid, reps, seed):
    return weight_sum_experiment(n, encoding, "ldp", eps_grid, reps, seed)


def report_bits(report):
    return report.ground_truth, np.array(report.points).tobytes(), report.weights.tobytes()


def reps_around_a_block(n):
    rows = max(1, dp.BLOCK // n)
    return sorted({reps for reps in (1, rows - 1, rows, rows + 1, 2 * rows + 3) if reps >= 1})


BLOCKED_SWEEPS = [
    (n, reps)
    for n in (1, 7, 500, dp.BLOCK // 2, dp.BLOCK // 2 + 1, dp.BLOCK + 1)
    for reps in reps_around_a_block(n)
]


# one repetition has no sample standard deviation: std_err is nan on both sides
@pytest.mark.filterwarnings("ignore:Degrees of freedom:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "n, reps", BLOCKED_SWEEPS, ids=[f"n{n}-reps{r}" for n, r in BLOCKED_SWEEPS]
)
def test_blocked_ldp_sweep_gives_the_per_repetition_report(n, reps):
    # blocks of max(1, BLOCK // n) repetitions: one short or full block,
    # one and a bit, two and a bit, and one repetition a block past BLOCK // 2
    args = n, EncodingParams(1, 50, 120), [0.3, 2.0], reps, 29
    assert report_bits(blocked_ldp_sweep(*args)) == report_bits(per_repetition_ldp_sweep(*args))


def test_blocked_ldp_sweep_redraws_a_zero_inside_its_row(monkeypatch):
    # u == 0 in the middle row of the first block: the redraw is that row's
    # next random() call, made before the next row is drawn
    n, seed = 500, 29
    rows = dp.BLOCK // n
    reps, mid = 2 * rows + 3, rows // 2
    real_rng = np.random.default_rng

    def run(sweep):
        stub = StubRng(seed + 1, *[()] * mid, [0.25, 0.0])
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", lambda s: stub if s == seed + 1 else real_rng(s))
            return sweep(n, EncodingParams(1, 50, 120), [0.5], reps, seed), stub.sizes

    got, got_sizes = run(blocked_ldp_sweep)
    want, want_sizes = run(per_repetition_ldp_sweep)
    assert got_sizes == want_sizes == [(n,)] * (mid + 1) + [1] + [(n,)] * (reps - mid - 1)
    assert report_bits(got) == report_bits(want)


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
        topology="on-device",
        pet="ldp", epsilon=0.01,
        sensors=1,
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
        topology="on-device",
        pet="none",
        sensors=1,
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
