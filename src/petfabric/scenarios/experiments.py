"""Utility and robustness experiments over the privacy mechanisms.

* weight_sum_experiment: the aggregate-load task. A seeded ground-truth
  dataset of passenger weights is drawn once, then privatized sums are
  compared against the true sum across an epsilon grid. Error statistics
  are reported in real units (kg), so they include both the mechanism's
  noise and the codec's one-sided quantization.
* load_test: runs a scenario with and without synthetic background traffic
  through the same broker and compares the end-to-end latency distributions
  with a two-sample KS test and its exact p-value, computed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .. import dp
# decode is unused here, but perfbench/tracing.py wraps experiments.decode
from ..codec import EncodingParams, decode, decode_sum, encode
from ..dp import LDP_MODEL
from .config import ScenarioSpec
from .runner import run_scenario_outcomes

if TYPE_CHECKING:
    import numpy as np


class UtilityPoint(NamedTuple):
    """Error statistics versus ground truth at one epsilon (one CSV row)."""

    epsilon: float
    mean_abs_err: float
    median_abs_err: float
    std_err: float
    reps: int


@dataclass(frozen=True)
class UtilityReport:
    """Privacy-utility sweep for one query over a fixed dataset."""

    ground_truth: float
    points: tuple[UtilityPoint, ...]
    # the dataset the sweep ran on, read-only; eq and hash leave it out
    weights: np.ndarray = field(compare=False)


def generate_weights(n: int, low: float, high: float, seed: int) -> np.ndarray:
    """The experiment's seeded ground-truth dataset (uniform weights)."""
    import numpy as np

    return np.random.default_rng(seed).uniform(low, high, n)


def median(values: np.ndarray) -> np.float64:
    """`np.median` of a non-empty 1-D float array, to the bit.

    np.median's NaN check reads `np.ma.isMaskedArray`, and that one
    attribute imports all of numpy.ma (about 1.25 MiB). This partitions
    as numpy's `_median` does: the extra kth of -1 puts a NaN, if any,
    last. The `0.0 +` stands for the +0.0 that np.mean's sum starts from,
    which turns a -0.0 median into +0.0.
    """
    import numpy as np

    n = len(values)
    mid = np.partition(values, [(n - 1) // 2, n // 2, -1])
    if np.isnan(mid[-1]):
        return mid[-1]
    if n % 2:
        return 0.0 + mid[n // 2]
    return (0.0 + mid[n // 2 - 1] + mid[n // 2]) / 2


def weight_sum_experiment(
    n: int,
    encoding: EncodingParams,
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
    import numpy as np

    weights = generate_weights(n, encoding.x_lo, encoding.x_hi, seed)
    weights.flags.writeable = False
    # ldp perturbs an int64 array; gdp adds each draw to the one exact total
    encoded = (encode(float(w), encoding) for w in weights)
    values = np.fromiter(encoded, np.int64, n) if model == LDP_MODEL else [sum(encoded)]
    true_sum = float(weights.sum())
    sens = sensitivity if sensitivity is not None else encoding.q

    points = []
    for i, eps in enumerate(eps_grid):
        rng = np.random.default_rng(seed + 1 + i)
        budget = dp.PrivacyBudget(epsilon=eps, sensitivity=sens)
        errors = np.empty(reps)
        for r in range(reps):
            if model == LDP_MODEL:
                noisy = int(dp.ldp_perturb_array(values, budget, rng).sum())
            else:
                noisy = dp.gdp_aggregate(values, budget, rng)
            errors[r] = abs(decode_sum(noisy, n, encoding) - true_sum)
        points.append(
            UtilityPoint(
                epsilon=float(eps),
                mean_abs_err=float(errors.mean()),
                median_abs_err=float(median(errors)),
                std_err=float(errors.std(ddof=1)),
                reps=reps,
            )
        )
    return UtilityReport(
        ground_truth=true_sum,
        points=tuple(points),
        weights=weights,
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
        median_ms=float(median(end_to_end)),
        std_ms=float(end_to_end.std(ddof=1)) if len(end_to_end) > 1 else 0.0,
        n=len(end_to_end),
    )


@dataclass(frozen=True)
class LoadComparison:
    """Paired latency comparison of one scenario with and without filler.

    ks_statistic and p_value are the two-sample KS statistic and its exact
    two-sided p-value. They equal those of SciPy's ks_2samp bit for bit
    except where SciPy falls back to its asymptotic form: where the exact
    recurrence rounds above 1 (p_value is then 1.0) and above 10 000
    repetitions a side (p_value stays exact).
    """

    rate_per_s: float
    baseline: LatencySummary
    loaded: LatencySummary
    ks_statistic: float
    p_value: float
    filler_per_rep: int


def _ks_2samp_equal(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample KS statistic and exact two-sided p-value, equal sizes only.

    With n points a side and h the largest gap between the two counts of
    points <= x, the statistic is h / n and the p-value is Hodges' (1958)
    P(D >= h / n), evaluated with the float recurrence of SciPy's ks_2samp
    exact method, in its operation order, so the two agree bit for bit
    wherever that method succeeds. They differ in two cases:

    * where the recurrence rounds above 1 (for n <= 400, 360 pairs (n, h),
      all with h <= 5, e.g. n=7, h=1) the p-value is clipped to 1.0; SciPy
      falls back to its asymptotic form there (0.99996 at n=7, h=1),
      though the exact value lies within 2e-16 of 1;
    * above 10 000 points a side SciPy switches to the asymptotic form;
      this stays exact.
    """
    n = len(a)
    if n == 0 or len(b) != n:
        raise ValueError(f"need two non-empty samples of equal size, got {n} and {len(b)}")
    import numpy as np

    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    gaps = np.searchsorted(a, pooled, side="right") - np.searchsorted(b, pooled, side="right")
    h = int(np.abs(gaps).max())
    if h == 0:
        return 0.0, 1.0
    # P(D >= h/n) = 2 * A0 * (1 - A1 * (1 - A2 * (...))), Horner-like
    p = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        p = term * (1.0 - p)
    return h * 1.0 / n, min(2 * p, 1.0)


def load_test(
    base: ScenarioSpec, rate_per_s: float = 400.0, filler_window_s: float = 0.05
) -> LoadComparison:
    """Run `base` without and with injected background traffic.

    The loaded run shares the scenario seed; the filler consumes from the
    same random stream, so its presence reshuffles (but cannot shift) the
    sampled hop delays, and a rate of zero reproduces the baseline records
    byte for byte. Distributions are compared with a two-sample KS test
    whose p-value is the exact two-sided one; it differs from
    SciPy's ks_2samp only where that falls back to its asymptotic form
    (see `_ks_2samp_equal`).
    """
    if rate_per_s < 0:
        # a run skips inject_load, and so its check, for a rate <= 0
        raise ValueError(f"rate_per_s: must be >= 0, got {rate_per_s}")
    import numpy as np

    base_out = run_scenario_outcomes(base)
    loaded_out = run_scenario_outcomes(base, filler_rate=rate_per_s, filler_window_s=filler_window_s)
    base_e2e = np.array([o.record.end_to_end_ms for o in base_out])
    loaded_e2e = np.array([o.record.end_to_end_ms for o in loaded_out])
    statistic, p_value = _ks_2samp_equal(base_e2e, loaded_e2e)
    return LoadComparison(
        rate_per_s=rate_per_s,
        baseline=_summarize(base_e2e),
        loaded=_summarize(loaded_e2e),
        ks_statistic=statistic,
        p_value=p_value,
        filler_per_rep=int(rate_per_s * filler_window_s),
    )
