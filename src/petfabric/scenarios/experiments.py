"""Utility and robustness experiments over the privacy mechanisms.

* weight_sum_experiment: the aggregate-load task. A seeded ground-truth
  dataset of passenger weights is drawn once, then privatized sums are
  compared against the true sum across an epsilon grid. Error statistics
  are reported in real units (kg), so they include both the mechanism's
  noise and the codec's one-sided quantization.
* load_test: runs a scenario with and without synthetic background traffic
  through the same broker and compares the end-to-end latency distributions
  with a two-sample KS test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import dp
# decode is unused here, but perfbench/tracing.py wraps experiments.decode
from ..codec import decode, decode_sum, derive_params, encode
from ..dp import LDP_MODEL
from .config import ScenarioSpec
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
    weights: tuple[float, ...]  # the dataset the sweep ran on


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

    Takes a sweep that `config.sweep_from_dict` accepted; nothing is
    re-checked here. The dataset is drawn once from `seed`; each epsilon
    then gets its own derived noise stream (seed + 1 + index). Under the
    local model every record is perturbed before summation; under the
    global model the exact sum receives a single draw. Sensitivity defaults
    to the encoded width q.
    """
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
        query=f"weight-sum-{model}",
        ground_truth=true_sum,
        points=tuple(points),
        weights=tuple(weights.tolist()),
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
        # a run skips inject_load, and so its check, for a rate <= 0
        raise ValueError(f"rate_per_s: must be >= 0, got {rate_per_s}")
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
