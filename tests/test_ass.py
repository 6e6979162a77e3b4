"""Additive sharing: field selection, exact reconstruction, secrecy, failure."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from petfabric import ass
from petfabric.codec import EncodingParams, encode
from petfabric.scenarios.config import MAX_SHARES


def split(secret, m, fp, rng, sensor_id="sensor"):
    """Draw one prefix and close it, as a single sensor's share flow does."""
    return ass.split(secret, ass.draw_prefixes(1, m, fp, rng)[0], fp, sensor_id)


def next_prime_bruteforce(n: int) -> int:
    """Independent oracle: trial division above n."""
    c = n + 1
    while True:
        if c >= 2 and all(c % d for d in range(2, int(c**0.5) + 1)):
            return c
        c += 1


@pytest.mark.parametrize("n_max,q", [(1, 3), (10, 10), (500, 170), (7, 1000), (500, 17000)])
def test_choose_modulus_matches_bruteforce(n_max, q):
    fp = ass.choose_modulus(n_max, q)
    assert fp.modulus == next_prime_bruteforce(n_max * q)
    assert fp.modulus > n_max * q


def test_choose_modulus_known_values():
    assert ass.choose_modulus(1, 3).modulus == 5
    assert ass.choose_modulus(10, 10).modulus == 101
    assert ass.choose_modulus(500, 170).modulus == 85009


def test_choose_modulus_bounds():
    with pytest.raises(ValueError):
        ass.choose_modulus(0, 10)
    with pytest.raises(ValueError):
        ass.choose_modulus(10, 0)
    with pytest.raises(OverflowError):
        ass.choose_modulus(1 << 32, 1 << 31)


def test_choose_modulus_is_memoized_but_never_caches_a_refusal():
    first = ass.choose_modulus(500, 170)
    assert ass.choose_modulus(500, 170) == first == ass.FieldParams(85009, 500, 170)
    for _ in range(3):
        with pytest.raises(ValueError):
            ass.choose_modulus(0, 170)
        with pytest.raises(OverflowError):
            ass.choose_modulus(ass.MAX_FIELD_BOUND // 170 + 1, 170)


def test_field_params_validation():
    with pytest.raises(ValueError, match="not prime"):
        ass.FieldParams(modulus=100, n_max=1, width=10)
    with pytest.raises(ValueError, match="wraparound"):
        ass.FieldParams(modulus=101, n_max=2, width=100)
    ass.FieldParams(modulus=101, n_max=1, width=100)  # 101 > 100


def test_is_prime_against_bruteforce():
    for n in range(2, 2000):
        assert ass.is_prime(n) == all(n % d for d in range(2, int(n**0.5) + 1))
    assert not ass.is_prime(0) and not ass.is_prime(1) and not ass.is_prime(-7)
    assert ass.is_prime(2**61 - 1)  # Mersenne prime
    assert not ass.is_prime(2**62 - 1)


def test_split_single_share_is_the_secret():
    fp = ass.choose_modulus(1, 170)
    bundle = split(122, 1, fp, np.random.default_rng(0))
    assert bundle.shares == (122,)


def test_split_reconstruct_roundtrip_many_seeds():
    fp = ass.choose_modulus(500, 170)
    assert fp.modulus == 85009
    for seed in range(10_000):
        rng = np.random.default_rng(seed)
        bundle = split(122, 3, fp, rng)
        assert sum(bundle.shares) % fp.modulus == 122


@settings(max_examples=200)
@given(
    secret=st.integers(0, 170),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_reconstruct_property(secret, m, seed):
    fp = ass.choose_modulus(500, 170)
    bundle = split(secret, m, fp, np.random.default_rng(seed), sensor_id="x")
    assert bundle.m == m
    assert all(0 <= s < fp.modulus for s in bundle.shares)
    assert sum(bundle.shares) % fp.modulus == secret


def test_split_validation():
    fp = ass.choose_modulus(3, 170)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        split(-1, 3, fp, rng)
    with pytest.raises(ValueError):
        split(171, 3, fp, rng)
    with pytest.raises(ValueError):
        split(5, 0, fp, rng)


def test_reconstruct_sum_examples():
    fp1 = ass.choose_modulus(1, 170)
    one = split(122, 1, fp1, np.random.default_rng(0))
    assert ass.reconstruct_sum([one], fp1) == 122

    fp = ass.choose_modulus(3, 170)
    rng = np.random.default_rng(4)
    bundles = [
        split(s, 3, fp, rng, sensor_id=f"s{i}") for i, s in enumerate((100, 150, 170))
    ]
    assert ass.reconstruct_sum(bundles, fp) == 420


def test_reconstruct_average_within_quantization_bound():
    for k in (1, 100):
        params = EncodingParams(k, 50, 120)
        fp = ass.choose_modulus(500, params.q)
        rng = np.random.default_rng(31 + k)
        weights = rng.uniform(50, 120, 500)
        bundles = [
            split(encode(float(w), params), 3, fp, rng, sensor_id=f"s{i}")
            for i, w in enumerate(weights)
        ]
        assert ass.reconstruct_sum(bundles, fp) == sum(
            encode(float(w), params) for w in weights
        )
        assert abs(ass.reconstruct_average(bundles, fp, params) - weights.mean()) < 1.0 / k


def test_reconstruct_average_single_exact_value():
    params = EncodingParams(1, 50, 120)
    fp = ass.choose_modulus(1, params.q)
    bundle = split(encode(72.0, params), 3, fp, np.random.default_rng(1))
    assert ass.reconstruct_average([bundle], fp, params) == 72.0


def test_no_wraparound_result_independent_of_modulus():
    # with Q > n*q the reconstruction never depends on which valid prime was
    # chosen: sharing the same secrets under a much larger field gives the
    # identical aggregate
    params = EncodingParams(1, 50, 120)
    small = ass.choose_modulus(50, params.q)
    big = ass.choose_modulus(5_000_000, params.q)
    rng = np.random.default_rng(8)
    secrets = [int(v) for v in rng.integers(0, params.q + 1, size=50)]
    totals = {}
    for fp in (small, big):
        bundles = [split(s, 4, fp, rng, sensor_id=f"s{i}") for i, s in enumerate(secrets)]
        totals[fp.modulus] = ass.reconstruct_sum(bundles, fp)
    assert totals[small.modulus] == totals[big.modulus] == sum(secrets)


def test_missing_share_error_names_the_pairs():
    fp = ass.choose_modulus(3, 170)
    rng = np.random.default_rng(5)
    bundles = [split(100, 3, fp, rng, sensor_id=f"s{i}") for i in range(3)]
    damaged = ass.ShareBundle(
        sensor_id="s1",
        shares=(bundles[1].shares[0], None, bundles[1].shares[2]),
        modulus=fp.modulus,
    )
    with pytest.raises(ass.MissingShareError) as excinfo:
        ass.reconstruct_sum([bundles[0], damaged, bundles[2]], fp)
    assert excinfo.value.missing == [("s1", 2)]
    assert "s1" in str(excinfo.value) and "channel 2" in str(excinfo.value)


def test_draw_lost_share_takes_victim_then_one_based_channel():
    rng = np.random.default_rng(8)
    draws = [ass.draw_lost_share(4, 3, rng) for _ in range(200)]
    assert {victim for victim, _ in draws} == {0, 1, 2, 3}
    assert {channel for _, channel in draws} == {1, 2, 3}
    replay = np.random.default_rng(8)
    assert draws[0] == (int(replay.integers(0, 4)), int(replay.integers(1, 4)))


def test_reconstruct_validation_errors():
    fp = ass.choose_modulus(2, 170)
    rng = np.random.default_rng(6)
    b1 = split(10, 3, fp, rng, sensor_id="a")
    b2 = split(20, 2, fp, rng, sensor_id="b")
    with pytest.raises(ValueError, match="share-count mismatch"):
        ass.reconstruct_sum([b1, b2], fp)
    other = ass.choose_modulus(3, 170)
    b3 = split(20, 3, other, rng, sensor_id="c")
    with pytest.raises(ValueError, match="modulus mismatch"):
        ass.reconstruct_sum([b1, b3], fp)
    with pytest.raises(ValueError, match="no bundles"):
        ass.reconstruct_sum([], fp)
    with pytest.raises(ValueError, match="n_max"):
        ass.reconstruct_sum([b1, b1, b1], fp)


def test_share_bundle_validation():
    with pytest.raises(ValueError):
        ass.ShareBundle(sensor_id="s", shares=(), modulus=101)
    with pytest.raises(ValueError):
        ass.ShareBundle(sensor_id="s", shares=(101,), modulus=101)
    with pytest.raises(ValueError):
        ass.ShareBundle(sensor_id="s", shares=(-1,), modulus=101)
    partial = ass.ShareBundle(sensor_id="s", shares=(5, None), modulus=101)
    assert partial.shares[1] is None and partial.m == 2


def test_missing_share_error_survives_pickling():
    import pickle

    err = ass.MissingShareError([("s1", 2), ("s7", 1)])
    clone = pickle.loads(pickle.dumps(err))
    assert clone.missing == [("s1", 2), ("s7", 1)]


def test_partial_sum_uniformity_chi_square():
    # any m-1 shares of a fixed secret look uniform on Z_Q
    fp = ass.FieldParams(modulus=101, n_max=1, width=100)
    prefixes = ass.draw_prefixes(100_000, 3, fp, np.random.default_rng(77))
    shares = np.array([ass.split(59, pre, fp).shares for pre in prefixes], dtype=np.int64)
    for subset in [(0, 1), (0, 2), (1, 2)]:
        partial = shares[:, list(subset)].sum(axis=1) % 101
        assert stats.chisquare(np.bincount(partial, minlength=101)).pvalue > 0.01


@pytest.mark.parametrize("modulus", [101, 85_009, 8_500_007, 2**40 + 15, 2**61 - 1])
@pytest.mark.parametrize("m", range(1, 7))
def test_split_draws_like_one_sized_prefix_draw(m, modulus):
    # a (count, m-1) block holds `count` prefixes of m-1 scalar draws each,
    # split closes each row, and the stream is left where the scalars leave it
    fp = ass.FieldParams(modulus=modulus, n_max=1, width=100)
    rng, twin = np.random.default_rng(m * modulus), np.random.default_rng(m * modulus)
    for count in (1, 7, 500):
        rows = ass.draw_prefixes(count, m, fp, rng)
        scalar = [[int(twin.integers(0, modulus)) for _ in range(m - 1)] for _ in range(count)]
        assert rows == scalar
        for secret, prefix in zip(range(0, 101, 4), rows):
            last = (secret - sum(prefix)) % modulus
            assert ass.split(secret, prefix, fp).shares == (*prefix, last)
        assert rng.integers(0, modulus) == twin.integers(0, modulus)
        assert rng.random() == twin.random()


def test_shares_stay_in_the_field_at_max_shares_near_2_62():
    modulus = (1 << 62) - 57  # the largest prime below 2^62
    fp = ass.FieldParams(modulus=modulus, n_max=1, width=170)
    rows = ass.draw_prefixes(3, MAX_SHARES, fp, np.random.default_rng(62))
    for secret, prefix in zip((0, 85, 170), rows):
        shares = ass.split(secret, prefix, fp).shares
        assert len(shares) == MAX_SHARES
        assert all(0 <= s < modulus for s in shares)
        assert sum(shares) % modulus == secret


def _bundles(m, sensors, modulus=101):
    return [
        ass.ShareBundle(sensor_id=f"s{i}", shares=tuple(range(1, m + 1)), modulus=modulus)
        for i in range(sensors)
    ]


def test_missing_share_error_lists_bundles_then_channels():
    fp = ass.FieldParams(modulus=101, n_max=5, width=20)
    bundles = _bundles(3, 5)
    bundles[3] = replace(bundles[3], shares=(None, 2, None))
    bundles[1] = replace(bundles[1], shares=(1, None, 3))
    with pytest.raises(ass.MissingShareError) as excinfo:
        ass.reconstruct_sum(bundles, fp)
    assert excinfo.value.missing == [("s1", 2), ("s3", 1), ("s3", 3)]


def test_a_mismatch_in_the_last_bundle_only_keeps_its_message():
    fp = ass.FieldParams(modulus=101, n_max=5, width=20)
    bundles = _bundles(3, 5)
    cases = [
        (
            replace(bundles[4], modulus=103),
            "modulus mismatch: bundle 's4' uses 103, field uses 101",
        ),
        (replace(bundles[4], shares=(1, 2)), "share-count mismatch: 's4' has 2 shares, expected 3"),
    ]
    for last, message in cases:
        with pytest.raises(ValueError) as excinfo:
            ass.reconstruct_sum(bundles[:4] + [last], fp)
        assert str(excinfo.value) == message
    # the bundles are checked in order, each for its modulus, then its count
    bundles[1] = replace(bundles[1], shares=(1, 2))
    bundles[4] = replace(bundles[4], modulus=103)
    with pytest.raises(ValueError, match="share-count mismatch: 's1' has 2"):
        ass.reconstruct_sum(bundles, fp)


@pytest.mark.parametrize(
    "shares,message",
    [
        ((1, 101, 2), "share 2 of 's' is 101, outside [0, 101)"),
        ((None, 5, -1), "share 3 of 's' is -1, outside [0, 101)"),
        ((1, 200, -1, 7), "share 2 of 's' is 200, outside [0, 101)"),
    ],
)
def test_share_bundle_names_the_first_share_out_of_range(shares, message):
    with pytest.raises(ValueError) as excinfo:
        ass.ShareBundle(sensor_id="s", shares=shares, modulus=101)
    assert str(excinfo.value) == message
