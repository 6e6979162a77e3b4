"""Utility and robustness experiments over the privacy mechanisms.

* weight_sum_experiment: the aggregate-load task. A seeded ground-truth
  dataset of passenger weights is drawn once, then privatized sums are
  compared against the true sum across an epsilon grid. Error statistics
  are reported in real units (kg), so they include both the mechanism's
  noise and the codec's one-sided quantization.
* profile_obfuscation_experiment: per-sample local noise on a time series,
  reported as RMSE per epsilon -- low epsilon buries the curve's shape,
  high epsilon converges to the quantization floor.
* load_test: runs a scenario with and without synthetic background traffic
  through the same broker and compares the end-to-end latency distributions
  with a two-sample KS test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import dp
from ..codec import decode, decode_sum, derive_params, encode
from ..dp import GDP_MODEL, LDP_MODEL
from .config import MIN_REPS, ConfigError, ScenarioSpec
from .runner import run_scenario_outcomes


@dataclass(frozen=True)
class UtilityPoint:
    """Error statistics versus ground truth at one epsilon (one CSV row)."""

    epsilon: float
    mean_abs_err: float
    median_abs_err: float
    std_err: float
    reps: int


@dataclass(frozen=True)
class UtilityReport:
    """Privacy-utility sweep for one query over a fixed dataset."""

    query: str
    ground_truth: float
    points: tuple[UtilityPoint, ...]


def generate_weights(n: int, low: float, high: float, seed: int) -> np.ndarray:
    """The experiment's seeded ground-truth dataset (uniform weights)."""
    return np.random.default_rng(seed).uniform(low, high, n)


def weight_sum_experiment(
    n: int,
    domain: tuple[float, float],
    k: int,
    model: str,
    eps_grid: Sequence[float],
    reps: int,
    seed: int,
    sensitivity: Optional[int] = None,
) -> UtilityReport:
    """Privatized total-weight query against its true value, per epsilon.

    The dataset is drawn once from `seed`; each epsilon then gets its own
    derived noise stream (seed + 1 + index). Under the local model every
    record is perturbed before summation; under the global model the exact
    sum receives a single draw. Sensitivity defaults to the encoded width q.
    """
    if n < 1:
        raise ConfigError(f"n: need at least one record, got {n}")
    if model not in (LDP_MODEL, GDP_MODEL):
        raise ConfigError(f"model: expected ldp or gdp, got {model!r}")
    if not eps_grid:
        raise ConfigError("eps_grid: must not be empty")
    if reps < MIN_REPS:
        raise ConfigError(f"reps: need at least {MIN_REPS} per epsilon, got {reps}")
    low, high = domain
    params = derive_params(low, high, k)
    weights = generate_weights(n, low, high, seed)
    encoded = [encode(float(w), params) for w in weights]
    # ldp perturbs an int64 array, converted here once; gdp sums exact ints
    values = np.array(encoded, dtype=np.int64) if model == LDP_MODEL else encoded
    true_sum = float(weights.sum())
    sens = sensitivity if sensitivity is not None else params.q

    points = []
    for i, eps in enumerate(eps_grid):
        if not eps > 0:
            raise ConfigError(f"eps_grid[{i}]: epsilon must be positive, got {eps}")
        rng = np.random.default_rng(seed + 1 + i)
        budget = dp.PrivacyBudget(epsilon=eps, sensitivity=sens)
        errors = np.empty(reps)
        for r in range(reps):
            if model == LDP_MODEL:
                noisy = int(dp.ldp_perturb_array(values, budget, rng).sum())
            else:
                noisy = dp.gdp_aggregate(values, budget, "sum", rng).value
            errors[r] = abs(decode_sum(noisy, n, params) - true_sum)
        points.append(
            UtilityPoint(
                epsilon=float(eps),
                mean_abs_err=float(errors.mean()),
                median_abs_err=float(np.median(errors)),
                std_err=float(errors.std(ddof=1)),
                reps=reps,
            )
        )
    return UtilityReport(
        query=f"weight-sum-{model}", ground_truth=true_sum, points=tuple(points)
    )


# --------------------------------------------------------------------------
# Time-series obfuscation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfilePoint:
    epsilon: float
    rmse: float


@dataclass(frozen=True)
class ProfileReport:
    """Per-epsilon RMSE of a locally privatized time series."""

    points: tuple[ProfilePoint, ...]
    quantization_rmse: float  # noiseless encode/decode floor
    samples: int
    reps: int


def synthetic_brew_profile(samples: int = 300) -> list[float]:
    """Deterministic brewing-cycle temperature curve: ramp, hold, cool-down."""
    if samples < 2:
        raise ConfigError(f"samples: a profile needs at least 2 points, got {samples}")
    ramp_end = max(2, int(samples * 0.4))
    hold_end = max(ramp_end + 1, int(samples * 0.7))
    profile = []
    for i in range(samples):
        if i < ramp_end:
            t = 20.0 + 73.0 * i / (ramp_end - 1)
        elif i < hold_end:
            t = 93.0 + 0.8 * math.sin(2.0 * math.pi * (i - ramp_end) / 25.0)
        else:
            t = 25.0 + (93.0 - 25.0) * math.exp(-(i - hold_end) / 30.0)
        profile.append(t)
    return profile


def profile_obfuscation_experiment(
    profile: Sequence[float],
    eps_grid: Sequence[float],
    seed: int,
    k: int = 10,
    reps: int = 100,
) -> ProfileReport:
    """Apply per-sample local noise to a time series at each epsilon.

    The encoding domain is the profile's own range; sensitivity is the full
    encoded width. RMSE is taken over all samples and repetitions against
    the true (unquantized) profile.
    """
    if len(profile) < 2:
        raise ConfigError(f"profile: need at least 2 samples, got {len(profile)}")
    if not eps_grid:
        raise ConfigError("eps_grid: must not be empty")
    if reps < 1:
        raise ConfigError(f"reps: must be >= 1, got {reps}")
    truth = np.asarray(profile, dtype=float)
    params = derive_params(float(truth.min()), float(truth.max()), k)
    encoded = np.array([encode(float(x), params) for x in truth], dtype=np.int64)
    exact = np.array([decode(int(y), params) for y in encoded])
    quantization_rmse = float(np.sqrt(np.mean((truth - exact) ** 2)))

    points = []
    for i, eps in enumerate(eps_grid):
        if not eps > 0:
            raise ConfigError(f"eps_grid[{i}]: epsilon must be positive, got {eps}")
        rng = np.random.default_rng(seed + 1 + i)
        budget = dp.PrivacyBudget(epsilon=float(eps), sensitivity=params.q)
        total_sq = 0.0
        for _ in range(reps):
            noisy = dp.ldp_perturb_array(encoded, budget, rng)
            decoded = (noisy - params.offset) / params.k
            total_sq += float(np.sum((decoded - truth) ** 2))
        points.append(
            ProfilePoint(epsilon=float(eps), rmse=math.sqrt(total_sq / (reps * len(truth))))
        )
    return ProfileReport(
        points=tuple(points),
        quantization_rmse=quantization_rmse,
        samples=len(truth),
        reps=reps,
    )


# --------------------------------------------------------------------------
# Broker load robustness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencySummary:
    mean_ms: float
    median_ms: float
    std_ms: float
    n: int


def _summarize(end_to_end: np.ndarray) -> LatencySummary:
    return LatencySummary(
        mean_ms=float(end_to_end.mean()),
        median_ms=float(np.median(end_to_end)),
        std_ms=float(end_to_end.std(ddof=1)) if len(end_to_end) > 1 else 0.0,
        n=len(end_to_end),
    )


@dataclass(frozen=True)
class LoadComparison:
    """Paired latency comparison of one scenario with and without filler."""

    rate_per_s: float
    baseline: LatencySummary
    loaded: LatencySummary
    ks_statistic: float
    p_value: float
    filler_per_rep: int


def load_test(
    base: ScenarioSpec, rate_per_s: float = 400.0, filler_window_s: float = 0.05
) -> LoadComparison:
    """Run `base` without and with injected background traffic.

    The loaded run shares the scenario seed; the filler consumes from the
    same random stream, so its presence reshuffles (but cannot shift) the
    sampled hop delays, and a rate of zero reproduces the baseline records
    byte for byte. Distributions are compared with a two-sample KS test.
    """
    if rate_per_s < 0:
        raise ConfigError(f"rate: must be >= 0, got {rate_per_s}")
    base_out = run_scenario_outcomes(base)
    loaded_out = run_scenario_outcomes(base, filler_rate=rate_per_s, filler_window_s=filler_window_s)
    base_e2e = np.array([o.record.end_to_end_ms for o in base_out])
    loaded_e2e = np.array([o.record.end_to_end_ms for o in loaded_out])
    if np.array_equal(base_e2e, loaded_e2e):
        statistic, p_value = 0.0, 1.0
    else:
        from scipy.stats import ks_2samp  # here, not at module level: it costs ~1 s

        result = ks_2samp(base_e2e, loaded_e2e)
        statistic, p_value = float(result.statistic), float(result.pvalue)
    return LoadComparison(
        rate_per_s=rate_per_s,
        baseline=_summarize(base_e2e),
        loaded=_summarize(loaded_e2e),
        ks_statistic=statistic,
        p_value=p_value,
        filler_per_rep=int(rate_per_s * filler_window_s),
    )
