"""Distinguisher and eavesdropper: closed-form agreement, coverage sharpness."""

import math

import numpy as np
import pytest

from petfabric import adversary, ass
from petfabric.dp import BLOCK, PrivacyBudget, sample_laplace
from test_dp import reference_laplace


def budget(epsilon=1.0, sensitivity=1000):
    return PrivacyBudget(epsilon=epsilon, sensitivity=sensitivity)


def test_analytic_guess_rate_values():
    # exponent eps*gap/(2*sens): 0.5 -> 0.6967, 5 -> 0.9966
    assert adversary.analytic_guess_rate(1000, budget(1.0)) == pytest.approx(
        1 - 0.5 * math.exp(-0.5)
    )
    assert adversary.analytic_guess_rate(1000, budget(10.0)) == pytest.approx(0.9966, abs=1e-4)


def test_empirical_rate_at_half_exponent():
    # exponent 0.5 -> 0.6967
    rate = adversary.empirical_guess_rate(1000, 100_000, budget(1.0), np.random.default_rng(77))
    assert rate == pytest.approx(1 - 0.5 * math.exp(-0.5), abs=0.01)


def test_empirical_rate_tiny_epsilon_is_coin_flip():
    rate = adversary.empirical_guess_rate(100, 100_000, budget(1e-6), np.random.default_rng(78))
    assert rate == pytest.approx(0.5, abs=0.01)


def test_empirical_rate_huge_exponent_is_near_certain():
    rate = adversary.empirical_guess_rate(1000, 100_000, budget(10.0), np.random.default_rng(79))
    assert rate == pytest.approx(0.9966, abs=0.01)


def test_ldp_variant_matches_analytic_too():
    # integer-rounded noise barely moves the rate at these scales
    b = budget(1.0)
    rate = adversary.empirical_guess_rate(
        1000, 100_000, b, np.random.default_rng(81), model=adversary.LDP_MODEL
    )
    assert rate == pytest.approx(adversary.analytic_guess_rate(1000, b), abs=0.01)
    with pytest.raises(ValueError):
        adversary.empirical_guess_rate(1000, 100, b, np.random.default_rng(0), model="x")
    with pytest.raises(ValueError):
        adversary.empirical_guess_rate(1000, 0, b, np.random.default_rng(0))


@pytest.mark.parametrize("gap", [0, -10])
def test_empirical_rate_refuses_a_gap_below_one(gap):
    with pytest.raises(ValueError, match=f"gap must be >= 1, got {gap}"):
        adversary.empirical_guess_rate(gap, 100, budget(), np.random.default_rng(0))


@pytest.mark.parametrize("model", [adversary.GDP_MODEL, adversary.LDP_MODEL])
@pytest.mark.parametrize("seed", [0, 77, 2**40 + 3])
def test_empirical_rate_matches_the_release_expression(seed, model):
    # the gap is added into the noise; the rate must equal that of the
    # release built as its own array, z = where(truth, gap, 0) + noise
    b = budget(0.5)
    for gap in [1, 500, 130, 2**40 - 3]:
        rng = np.random.default_rng(seed)
        high_truth = rng.integers(0, 2, size=4099).astype(bool)
        noise = sample_laplace(b.scale, rng, size=4099)
        if model == adversary.LDP_MODEL:
            noise = np.rint(noise)
        z = np.where(high_truth, gap, 0) + noise
        want = float(np.mean((z > gap / 2) == high_truth))
        got = adversary.empirical_guess_rate(gap, 4099, b, np.random.default_rng(seed), model)
        assert got == want


@pytest.mark.parametrize("model", [adversary.GDP_MODEL, adversary.LDP_MODEL])
@pytest.mark.parametrize(
    "trials", [BLOCK - 1, BLOCK + 1, 100_000], ids=["BLOCK-1", "BLOCK+1", "100000"]
)
def test_empirical_rate_counted_in_blocks_matches_the_mean_over_the_release(trials, model):
    # the release is built and counted block by block; the rate must equal
    # the mean over the whole release, its noise drawn as one expression
    b = budget(0.5)
    for gap in [1, 500, 2**40 - 3]:
        rng = np.random.default_rng(trials)
        high_truth = rng.integers(0, 2, size=trials).astype(bool)
        noise = reference_laplace(b.scale, rng, trials)
        if model == adversary.LDP_MODEL:
            noise = np.rint(noise)
        z = np.where(high_truth, gap, 0) + noise
        want = float(np.mean((z > gap / 2) == high_truth))
        got = adversary.empirical_guess_rate(
            gap, trials, b, np.random.default_rng(trials), model
        )
        assert got == want


GRID_EPS = [0.01, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0]
GRID_RATIOS = [0.1, 0.5, 1.0]


@pytest.fixture(scope="module")
def grid_rows():
    return adversary.guess_rate_grid(
        GRID_EPS, GRID_RATIOS, sensitivity=1000, trials=100_000, seed=404
    )


def test_grid_within_three_sigma(grid_rows):
    assert len(grid_rows) == 21
    for row in grid_rows:
        assert abs(row.empirical_pg - row.analytic_pg) <= row.ci_halfwidth


def test_grid_monotone_in_epsilon_and_gap(grid_rows):
    def sigma(row):
        return math.sqrt(row.analytic_pg * (1 - row.analytic_pg) / row.trials)

    for ratio in GRID_RATIOS:
        col = [r for r in grid_rows if r.gap_ratio == ratio]
        for a, b in zip(col, col[1:]):
            assert b.empirical_pg >= a.empirical_pg - sigma(a)
    for eps in GRID_EPS:
        row = [r for r in grid_rows if r.epsilon == eps]
        for a, b in zip(row, row[1:]):
            assert b.empirical_pg >= a.empirical_pg - sigma(a)


def test_grid_rejects_vanishing_gap():
    with pytest.raises(ValueError):
        adversary.guess_rate_grid([1.0], [0.0001], sensitivity=100, trials=10, seed=0)


def test_grid_deterministic():
    a = adversary.guess_rate_grid([0.5], [0.5], 1000, 10_000, seed=5)
    b = adversary.guess_rate_grid([0.5], [0.5], 1000, 10_000, seed=5)
    assert a == b


# -- eavesdropper -----------------------------------------------------------------

def split(secret, m, fp, rng, sensor_id):
    """Draw one prefix and close it, as a single sensor's share flow does."""
    return ass.split(secret, ass.draw_prefixes(1, m, fp, rng)[0], fp, sensor_id)


def fresh_bundles(secret, count, fp, seed, m=3):
    rng = np.random.default_rng(seed)
    return [split(secret, m, fp, rng, sensor_id=f"r{i}") for i in range(count)]


def test_full_coverage_reconstructs_exactly():
    fp = ass.choose_modulus(3, 170)
    rng = np.random.default_rng(4)
    bundles = [
        split(s, 3, fp, rng, sensor_id=f"s{i}") for i, s in enumerate((100, 150, 170))
    ]
    coverage = adversary.CoverageSet(frozenset({1, 2, 3}))
    assert adversary.eavesdrop_reconstruct(coverage, bundles, fp) == 420
    assert adversary.eavesdrop_reconstruct(coverage, bundles, fp) == ass.reconstruct_sum(
        bundles, fp
    )


def test_partial_coverage_sees_uniform_noise():
    fp = ass.FieldParams(modulus=101, n_max=1, width=100)
    bundles = fresh_bundles(59, 100_000, fp, seed=90)
    for channels in [{1, 2}, {1, 3}, {2, 3}, {1}, {2}, {3}]:
        report = adversary.eavesdrop_reconstruct(
            adversary.CoverageSet(frozenset(channels)), bundles, fp
        )
        assert isinstance(report, adversary.UniformityReport)
        assert report.observations == 100_000 and report.bins == 101
        assert report.is_uniform(alpha=0.01)


def test_two_secrets_indistinguishable_from_partial_coverage():
    fp = ass.FieldParams(modulus=101, n_max=1, width=100)
    cov = adversary.CoverageSet(frozenset({1, 2}))
    a = adversary.partial_sums(cov, fresh_bundles(17, 50_000, fp, seed=91), fp)
    b = adversary.partial_sums(cov, fresh_bundles(83, 50_000, fp, seed=92), fp)
    _, p = adversary.two_sample_uniformity(a, b, 101)
    assert p > 0.01


def test_empty_coverage_is_trivially_uniform():
    fp = ass.FieldParams(modulus=101, n_max=1, width=100)
    report = adversary.eavesdrop_reconstruct(
        adversary.CoverageSet(frozenset()), fresh_bundles(5, 10, fp, seed=1), fp
    )
    assert isinstance(report, adversary.UniformityReport)
    assert report.observations == 0  # zero channels means nothing was seen
    assert report.p_value == 1.0 and report.is_uniform()
    empty = adversary.eavesdrop_reconstruct(adversary.CoverageSet(frozenset()), [], fp)
    assert empty.observations == 0 and empty.p_value == 1.0


def test_inconsistent_coverage_rejected():
    fp = ass.FieldParams(modulus=101, n_max=1, width=100)
    bundles = fresh_bundles(5, 3, fp, seed=2)
    with pytest.raises(adversary.CoverageError):
        adversary.eavesdrop_reconstruct(
            adversary.CoverageSet(frozenset({1, 4})), bundles, fp
        )
    with pytest.raises(adversary.CoverageError):
        adversary.CoverageSet(frozenset({0, 1}))


def test_coverage_reports_missing_observations():
    fp = ass.FieldParams(modulus=101, n_max=1, width=100)
    bundle = ass.ShareBundle(sensor_id="s", shares=(5, None, 7), modulus=101)
    with pytest.raises(adversary.CoverageError, match="never observed"):
        adversary.partial_sums(adversary.CoverageSet(frozenset({1, 2})), [bundle], fp)
