"""Adversary simulations that quantify what the privacy layer leaks.

Two attackers are modeled:

* A likelihood-ratio distinguisher against Laplace-privatized sums. It knows
  every record except the target's, which it knows is one of two candidate
  values, and it thresholds the noisy release at the midpoint between the
  two induced sums -- the Neyman-Pearson-optimal rule for Laplace noise.
  The known records shift the release and the threshold alike, so they
  cancel out of the decision: the game is played between 0 and the gap.
  Its success probability has the closed form

      Pr[correct] = 1 - exp(-eps * gap / (2 * sensitivity)) / 2,

  which is the yardstick the Monte Carlo simulation is checked against.
  The same rule covers the local and global deployment models; only what
  carries the noise differs (the published record vs. the released sum).

* A passive eavesdropper against additive secret shares. Observing all m
  broadcast channels lets it reconstruct the aggregate exactly; observing
  any proper subset yields per-sharing partial sums that are uniform on
  Z_Q, demonstrated with a chi-square test over repeated fresh sharings.

The distinguisher simulation reuses the deployed mechanism's noise sampler
rather than reimplementing it, so what is validated is the mechanism as
shipped. Trials are vectorized in blocks of `dp.BLOCK` and fully determined
by the injected seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from . import ass
from .dp import BLOCK, GDP_MODEL, LDP_MODEL, PrivacyBudget, sample_laplace

if TYPE_CHECKING:
    import numpy as np


class CoverageError(ValueError):
    """Observed channels are inconsistent with the published channel set."""


def analytic_guess_rate(gap: int, budget: PrivacyBudget) -> float:
    """Closed-form success probability of the midpoint rule."""
    return 1.0 - 0.5 * math.exp(-budget.epsilon * gap / (2.0 * budget.sensitivity))


def empirical_guess_rate(
    gap: int,
    trials: int,
    budget: PrivacyBudget,
    rng: np.random.Generator,
    model: str = GDP_MODEL,
) -> float:
    """Monte Carlo of the full release-and-attack pipeline.

    Per trial: draw the truth uniformly from {0, gap}, release
    z = truth + noise, and guess high iff z > gap / 2 (ties go low). Under
    the global model the noise is one real-valued Laplace draw at the query
    scale; under the local model it is the integer-rounded draw the sensor
    actually publishes.
    """
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if model not in (GDP_MODEL, LDP_MODEL):
        raise ValueError(f"unknown model {model!r}, expected 'gdp' or 'ldp'")
    import numpy as np

    high_truth = rng.integers(0, 2, size=trials).astype(bool)
    z = sample_laplace(budget.scale, rng, size=trials)
    correct = 0
    for start in range(0, trials, BLOCK):
        zb = z[start : start + BLOCK]
        hb = high_truth[start : start + BLOCK]
        if model == LDP_MODEL:
            np.rint(zb, out=zb)
        zb += np.where(hb, gap, 0)  # the release: truth + noise
        correct += np.count_nonzero((zb > gap / 2) == hb)
    return correct / trials


class GuessRateRow(NamedTuple):
    """One grid point of the distinguisher sweep (one CSV row)."""

    epsilon: float
    gap_ratio: float
    analytic_pg: float
    empirical_pg: float
    trials: int
    ci_halfwidth: float


def guess_rate_grid(
    epsilons: Sequence[float],
    gap_ratios: Sequence[float],
    sensitivity: int,
    trials: int,
    seed: int,
    model: str = GDP_MODEL,
) -> list[GuessRateRow]:
    """Sweep the (epsilon, gap/sensitivity) grid; one seeded run per point.

    ci_halfwidth is three binomial standard errors at the analytic rate.
    """
    import numpy as np

    rows: list[GuessRateRow] = []
    index = 0
    for eps in epsilons:
        for ratio in gap_ratios:
            gap = round(ratio * sensitivity)
            budget = PrivacyBudget(epsilon=eps, sensitivity=sensitivity)
            rng = np.random.default_rng(seed + index)
            index += 1
            analytic = analytic_guess_rate(gap, budget)
            empirical = empirical_guess_rate(gap, trials, budget, rng, model=model)
            halfwidth = 3.0 * math.sqrt(analytic * (1.0 - analytic) / trials)
            rows.append(
                GuessRateRow(
                    epsilon=eps,
                    gap_ratio=ratio,
                    analytic_pg=analytic,
                    empirical_pg=empirical,
                    trials=trials,
                    ci_halfwidth=halfwidth,
                )
            )
    return rows


# --------------------------------------------------------------------------
# Partial-coverage eavesdropper
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageSet:
    """The broadcast channels (1-based) an eavesdropper can observe."""

    observed_channels: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "observed_channels", frozenset(self.observed_channels))
        if any(ch < 1 for ch in self.observed_channels):
            raise CoverageError("channels are numbered from 1")

    def is_full(self, m: int) -> bool:
        return self.observed_channels == frozenset(range(1, m + 1))


@dataclass(frozen=True)
class UniformityReport:
    """Chi-square evidence that observed partial sums are uniform on Z_Q."""

    observations: int
    bins: int
    chi_square: float
    p_value: float

    def is_uniform(self, alpha: float = 0.01) -> bool:
        return self.p_value > alpha


def partial_sums(
    coverage: CoverageSet, bundles: Sequence[ass.ShareBundle], fp: ass.FieldParams
) -> np.ndarray:
    """Per-bundle sum of the observed shares, mod Q."""
    import numpy as np

    channels = sorted(coverage.observed_channels)
    sums = np.empty(len(bundles), dtype=np.int64)
    for i, b in enumerate(bundles):
        if channels and channels[-1] > b.m:
            raise CoverageError(
                f"coverage {channels} inconsistent with {b.m} published channels"
            )
        total = 0
        for ch in channels:
            s = b.shares[ch - 1]
            if s is None:
                raise CoverageError(f"share {ch} of {b.sensor_id!r} was never observed")
            total += s
        sums[i] = total % fp.modulus
    return sums


def eavesdrop_reconstruct(
    coverage: CoverageSet,
    bundles: Sequence[ass.ShareBundle],
    fp: ass.FieldParams,
) -> Union[int, UniformityReport]:
    """What the eavesdropper gets from its channel coverage.

    Full coverage: the exact reconstructed aggregate (the attack succeeds).
    Anything less: a UniformityReport over the per-bundle partial sums. For
    the report to carry statistical weight, pass bundles spanning many fresh
    sharings; chi-square binning over all of Z_Q needs a modest modulus
    (roughly Q <= 1009) to keep expected counts usable -- for larger fields
    secrecy follows from the uniform draw itself.
    """
    if bundles:
        m = bundles[0].m
        if any(ch > m for ch in coverage.observed_channels):
            raise CoverageError(
                f"coverage {sorted(coverage.observed_channels)} inconsistent with "
                f"{m} published channels"
            )
        if coverage.is_full(m):
            return ass.reconstruct_sum(bundles, fp)
    if not bundles or not coverage.observed_channels:
        # nothing observed: trivially consistent with uniform
        return UniformityReport(observations=0, bins=fp.modulus, chi_square=0.0, p_value=1.0)
    import numpy as np
    from scipy.stats import chisquare  # here, not at module level: it costs ~1 s

    sums = partial_sums(coverage, bundles, fp)
    counts = np.bincount(sums, minlength=fp.modulus)

    result = chisquare(counts)
    return UniformityReport(
        observations=len(bundles),
        bins=fp.modulus,
        chi_square=float(result.statistic),
        p_value=float(result.pvalue),
    )


def two_sample_uniformity(
    sums_a: np.ndarray, sums_b: np.ndarray, bins: int
) -> tuple[float, float]:
    """Chi-square homogeneity test between two partial-sum samples.

    Returns (statistic, p-value); a large p-value means the two secrets'
    observation distributions are statistically indistinguishable. Bins
    empty in both samples are dropped (they contribute nothing).
    """
    import numpy as np
    from scipy.stats import chi2_contingency

    counts = np.stack(
        [np.bincount(sums_a, minlength=bins), np.bincount(sums_b, minlength=bins)]
    )
    counts = counts[:, counts.sum(axis=0) > 0]

    result = chi2_contingency(counts)
    return float(result.statistic), float(result.pvalue)
