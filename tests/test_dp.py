"""Laplace mechanisms: closed-form moments, model comparisons, determinism.

Monte Carlo assertions use seeds that were checked against the analytic
values; tolerances sit several standard errors out at the stated sample
sizes, so the frozen seeds are not load-bearing, just reproducible.
"""

import math
import tracemalloc

import numpy as np
import pytest

from petfabric import adversary, dp
from petfabric.codec import EncodingParams, encode


@pytest.fixture(scope="module")
def weight_params():
    return EncodingParams(1, 50, 120)


@pytest.fixture(scope="module")
def weights_dataset(weight_params):
    rng = np.random.default_rng(42)
    return [encode(float(w), weight_params) for w in rng.uniform(50, 120, 500)]


def test_budget_validation():
    with pytest.raises(ValueError):
        dp.PrivacyBudget(0.0, 10)
    with pytest.raises(ValueError):
        dp.PrivacyBudget(-1.0, 10)
    with pytest.raises(ValueError):
        dp.PrivacyBudget(float("inf"), 10)
    with pytest.raises(ValueError):
        dp.PrivacyBudget(1.0, 0)
    assert dp.PrivacyBudget(0.5, 170).scale == 340.0
    assert dp.PrivacyBudget(1.0, 170).sensitivity == 170


def test_laplace_scale_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        dp.sample_laplace(0.0, rng)
    with pytest.raises(ValueError):
        dp.sample_laplace(-1.0, rng)


def test_laplace_median_is_zero():
    class MidpointRng:
        def random(self, size=None):
            return 0.5  # u - 1/2 == 0, the distribution's median

    assert dp.sample_laplace(1.0, MidpointRng()) == 0.0


def test_laplace_moments_one_million_draws():
    # mean 0 and variance 2*b^2 = 8 at b = 2
    draws = dp.sample_laplace(2.0, np.random.default_rng(505), size=1_000_000)
    assert abs(draws.var(ddof=1) - 8.0) <= 0.02 * 8.0
    assert abs(draws.mean()) <= 0.02 * 2.0 * math.sqrt(2.0)
    # mean absolute deviation of Laplace(b) is b
    assert abs(np.abs(draws).mean() - 2.0) <= 0.02 * 2.0


def test_laplace_deterministic_given_seed():
    a = dp.sample_laplace(3.0, np.random.default_rng(9), size=1000)
    b = dp.sample_laplace(3.0, np.random.default_rng(9), size=1000)
    assert np.array_equal(a, b)
    assert dp.sample_laplace(3.0, np.random.default_rng(9)) == pytest.approx(float(a[0]))


def reference_laplace(scale, rng, size):
    """The block draw as one expression, with its temporaries."""
    u = rng.random(size)
    while True:
        zero = u == 0.0
        if not zero.any():
            break
        u[zero] = rng.random(int(zero.sum()))
    u -= 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


class StubRng:
    """A seeded generator whose k-th random() call has `values[k]` written
    over its first draws, so exact zeros and exact halves can be forced."""

    def __init__(self, seed, *values):
        self._rng = np.random.default_rng(seed)
        self._values = list(values)
        self.sizes = []

    def random(self, size=None):
        out = self._rng.random(size)
        if self._values:
            forced = self._values.pop(0)
            out.flat[: len(forced)] = forced
        self.sizes.append(size)
        return out


SCALES = (0.5, 2.0, 170.0, 17_000.0)


@pytest.mark.parametrize("size", [1, 1000, (40, 500)], ids=["1", "1000", "40x500"])
@pytest.mark.parametrize("seed", [0, 9, 505, 2**31 + 7])
def test_block_laplace_matches_the_one_expression_bit_for_bit(seed, size):
    for scale in SCALES:
        got = dp.sample_laplace(scale, np.random.default_rng(seed), size=size)
        want = reference_laplace(scale, np.random.default_rng(seed), size)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "size",
    [dp.BLOCK - 1, dp.BLOCK, dp.BLOCK + 1, 3 * dp.BLOCK + 5, (3, dp.BLOCK - 1), 0, ()],
    ids=["BLOCK-1", "BLOCK", "BLOCK+1", "3BLOCK+5", "3x(BLOCK-1)", "0", "0-d"],
)
def test_block_laplace_matches_the_one_expression_across_blocks(size):
    # the log term runs block by block; every block edge, a short last
    # block, a 2-d array, an empty array and a 0-d array give the same bits
    for scale in SCALES:
        got = dp.sample_laplace(scale, np.random.default_rng(31), size=size)
        want = reference_laplace(scale, np.random.default_rng(31), size)
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [6, (2, 3)], ids=["6", "2x3"])
def test_block_laplace_redraws_zeros_like_the_one_expression(size):
    # two rounds of redraw: three zeros in the block, then one in the redraw
    forced = ([0.0, 0.3, 0.0, 0.7, 0.0], [0.0])
    stubs = StubRng(3, *forced), StubRng(3, *forced)
    got = dp.sample_laplace(2.0, stubs[0], size=size)
    want = reference_laplace(2.0, stubs[1], size)
    assert stubs[0].sizes == stubs[1].sizes == [size, 3, 1]
    assert np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()


def test_block_laplace_keeps_the_sign_of_zero_at_the_median():
    forced = [0.5, 0.25, 0.5, 0.75]
    got = dp.sample_laplace(3.0, StubRng(4, forced), size=4)
    want = reference_laplace(3.0, StubRng(4, forced), 4)
    assert got[0] == got[2] == 0.0 and not np.signbit(got[[0, 2]]).any()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [1, 510, 987])
def test_ldp_array_rounds_like_the_one_expression(seed, weights_dataset):
    budget = dp.PrivacyBudget(0.5, 170)
    xs = np.array(weights_dataset, dtype=np.int64).reshape(20, 25)
    got = dp.ldp_perturb_rows(xs, 1, budget, np.random.default_rng(seed))[0]
    noise = np.rint(reference_laplace(budget.scale, np.random.default_rng(seed), xs.shape))
    want = xs + noise.astype(np.int64)
    assert got.dtype == np.int64 and got.shape == xs.shape
    assert got.tobytes() == want.tobytes()


def peak_beyond_result(fn) -> int:
    """Bytes fn's call peaks at (tracemalloc) beyond the array it returns."""
    fn()  # first-call allocations are numpy's, not the kernel's
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return peak - getattr(result, "nbytes", 0)


KERNEL_ELEMENTS = 2**18
BUDGET = dp.PrivacyBudget(1.0, 170)
KERNELS = {
    "sample_laplace": lambda: dp.sample_laplace(
        2.0, np.random.default_rng(6), size=KERNEL_ELEMENTS
    ),
    "ldp_perturb_rows": lambda xs=np.full(KERNEL_ELEMENTS, 85, dtype=np.int64): (
        dp.ldp_perturb_rows(xs, 1, BUDGET, np.random.default_rng(6))
    ),
    "empirical_guess_rate": lambda: adversary.empirical_guess_rate(
        85, KERNEL_ELEMENTS, BUDGET, np.random.default_rng(6), "ldp"
    ),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_noise_kernels_hold_one_scratch_array(kernel):
    # one float64 scratch array and the per-trial truth bits, not a chain
    # of full-size temporaries
    assert peak_beyond_result(KERNELS[kernel]) <= 2.25 * 8 * KERNEL_ELEMENTS


#: Peak beyond the result, fixed from the arithmetic: the Laplace draw
#: holds one block of float64 scratch plus a few small objects; the
#: distinguisher holds its truth bits and noise, 9 B a trial, and per block
#: the Laplace scratch, the float64 candidates and two bool arrays.
BLOCK_BOUNDS = {
    "sample_laplace": 8 * dp.BLOCK + 4096,
    "empirical_guess_rate": 9 * KERNEL_ELEMENTS + 32 * dp.BLOCK,
}


@pytest.mark.parametrize("kernel", sorted(BLOCK_BOUNDS))
def test_noise_kernels_hold_block_sized_scratch(kernel):
    assert peak_beyond_result(KERNELS[kernel]) <= BLOCK_BOUNDS[kernel]


def test_ldp_identity_at_huge_epsilon(weight_params):
    rng = np.random.default_rng(1)
    budget = dp.PrivacyBudget(1e6, weight_params.q)
    assert all(dp.ldp_perturb(122, budget, rng) == 122 for _ in range(1000))


def test_ldp_noise_std_matches_closed_form():
    # scale = 170 / 0.01 = 17000; std of Laplace is b * sqrt(2)
    budget = dp.PrivacyBudget(0.01, 170)
    assert budget.scale == 17_000
    rng = np.random.default_rng(507)
    noisy = dp.ldp_perturb_rows(np.full(100_000, 122), 1, budget, rng)[0]
    target = 17_000 * math.sqrt(2.0)
    assert abs((noisy - 122).std(ddof=1) - target) <= 0.02 * target


def test_ldp_sum_error_matches_monte_carlo_oracle(weights_dataset, weight_params):
    # mean absolute error of a 500-record perturbed sum vs. an independent
    # oracle that sums raw numpy Laplace draws
    budget = dp.PrivacyBudget(0.5, weight_params.q)
    reps, n = 10_000, len(weights_dataset)
    exact = sum(weights_dataset)
    rng = np.random.default_rng(510)
    errs = np.empty(reps)
    for r in range(reps):
        errs[r] = abs(int(dp.ldp_perturb_rows(weights_dataset, 1, budget, rng).sum()) - exact)
    oracle_rng = np.random.default_rng(987)
    oracle = np.abs(
        np.rint(oracle_rng.laplace(0.0, budget.scale, size=(reps, n))).sum(axis=1)
    ).mean()
    assert abs(errs.mean() - oracle) <= 0.05 * oracle


def test_gdp_degenerate_noise(weight_params):
    noisy = dp.gdp_aggregate(
        [122], dp.PrivacyBudget(1e9, weight_params.q), np.random.default_rng(2)
    )
    assert noisy == pytest.approx(122, abs=1e-3)


def test_gdp_mean_absolute_error_is_the_scale(weights_dataset, weight_params):
    # E|Lap(b)| = b: at eps=1 and sensitivity 170 the MAE converges to 170
    budget = dp.PrivacyBudget(1.0, weight_params.q)
    exact = sum(weights_dataset)
    rng = np.random.default_rng(506)
    errs = [
        abs(dp.gdp_aggregate(weights_dataset, budget, rng) - exact)
        for _ in range(10_000)
    ]
    assert abs(np.mean(errs) - 170.0) <= 0.05 * 170.0


def test_gdp_error_flat_in_n_while_ldp_grows_sqrt_n(weight_params):
    # local noise accumulates per record (~sqrt(n) MAE growth); global noise
    # is one draw regardless of n
    rng = np.random.default_rng(508)
    budget = dp.PrivacyBudget(0.5, weight_params.q)
    reps = 3000
    ldp_mae, gdp_mae = {}, {}
    for n in (10, 100, 500):
        ldp_sums = np.rint(dp.sample_laplace(budget.scale, rng, size=(reps, n))).sum(axis=1)
        ldp_mae[n] = np.abs(ldp_sums).mean()
        gdp_mae[n] = np.abs(dp.sample_laplace(budget.scale, rng, size=reps)).mean()
    assert ldp_mae[10] < ldp_mae[100] < ldp_mae[500]
    assert ldp_mae[500] / ldp_mae[10] == pytest.approx(math.sqrt(50), rel=0.10)
    assert gdp_mae[500] / gdp_mae[10] == pytest.approx(1.0, rel=0.10)


def test_gdp_variance_advantage_is_factor_n(weight_params):
    # same epsilon, same query: Var(ldp sum) / Var(gdp) ~ n
    rng = np.random.default_rng(509)
    n, reps = 100, 5000
    budget = dp.PrivacyBudget(0.5, weight_params.q)
    ldp_sums = np.rint(dp.sample_laplace(budget.scale, rng, size=(reps, n))).sum(axis=1)
    gdp_draws = dp.sample_laplace(budget.scale, rng, size=reps)
    ratio = ldp_sums.var(ddof=1) / gdp_draws.var(ddof=1)
    assert ratio == pytest.approx(n, rel=0.15)


def test_gdp_errors():
    rng = np.random.default_rng(0)
    budget = dp.PrivacyBudget(1.0, 170)
    with pytest.raises(ValueError):
        dp.gdp_aggregate([], budget, rng)


@pytest.mark.parametrize(
    "xs",
    [
        [1.5, 2],
        [2, 1.5],
        [2.0, 2],
        [np.float64(122.0)],
        [100, np.float64(1.0), 170],
        [100, np.int64(1)],
        np.array([100, 122], dtype=np.int64),
    ],
)
def test_gdp_rejects_values_that_are_not_python_ints(xs):
    # truncating any of these would make the exact aggregate inexact
    rng = np.random.default_rng(0)
    with pytest.raises(TypeError, match="gdp_aggregate sums Python ints"):
        dp.gdp_aggregate(xs, dp.PrivacyBudget(1.0, 170), rng)
    assert rng.random() == np.random.default_rng(0).random()  # nothing drawn


def test_gdp_sum_is_exact_beyond_float_precision():
    # a float running sum would round 2**53 + 1 back to 2**53, twice
    budget = dp.PrivacyBudget(1e30, 1)
    noisy = dp.gdp_aggregate([2**53, 1, 1], budget, np.random.default_rng(0))
    assert noisy == 2**53 + 2


def test_ldp_sum_unbiased(weights_dataset, weight_params):
    budget = dp.PrivacyBudget(0.5, weight_params.q)
    rng = np.random.default_rng(511)
    n = len(weights_dataset)
    reps = 4000
    total = 0.0
    for _ in range(reps):
        total += int(dp.ldp_perturb_rows(weights_dataset, 1, budget, rng).sum())
    exact = sum(weights_dataset)
    # symmetric rounding keeps sums unbiased up to +-0.5 per record; the MC
    # error dominates, so allow a few standard errors of the sum estimator
    se = budget.scale * math.sqrt(2.0 * n / reps)
    assert abs(total / reps - exact) <= 4 * se + 0.5 * n


# -- k-ary randomized response ------------------------------------------------

def test_krr_identity_at_huge_epsilon(weight_params):
    rng = np.random.default_rng(3)
    assert all(dp.krr_perturb(122, 1e6, weight_params, rng) == 122 for _ in range(1000))


def test_krr_binary_domain_keep_probability():
    # q = 1, eps = ln 3: keep with probability 3/4
    p = EncodingParams(1, 0.0, 1.0)
    assert p.q == 1
    rng = np.random.default_rng(711)
    trials = 100_000
    kept = sum(dp.krr_perturb(1, math.log(3), p, rng) == 1 for _ in range(trials)) / trials
    assert abs(kept - 0.75) <= 0.01


def test_krr_transition_matrix():
    # q = 4, eps = 1: P[keep] = e/(e+4), each other value 1/(e+4)
    p = EncodingParams(1, 0.0, 4.0)
    assert p.q == 4
    keep = math.e / (math.e + 4.0)
    off = 1.0 / (math.e + 4.0)
    rng = np.random.default_rng(712)
    trials = 100_000
    for x in range(5):
        outs = np.array([dp.krr_perturb(x, 1.0, p, rng) for _ in range(trials)])
        freqs = np.bincount(outs, minlength=5) / trials
        for y in range(5):
            assert abs(freqs[y] - (keep if y == x else off)) <= 0.01


def test_krr_errors(weight_params):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        dp.krr_perturb(-1, 1.0, weight_params, rng)
    with pytest.raises(ValueError):
        dp.krr_perturb(weight_params.q + 1, 1.0, weight_params, rng)
    with pytest.raises(ValueError):
        dp.krr_perturb(10, 0.0, weight_params, rng)
