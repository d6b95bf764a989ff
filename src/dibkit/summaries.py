"""Two-sample sufficient statistics and binomial-rate ingestion.

Every estimator in this package consumes a :class:`TwoSampleSummary`: the
mean and size of the current sample plus the mean and size of an external
sample believed to measure a shifted copy of the same quantity.  For binary
outcomes, :func:`from_raw_binomial` converts raw success counts into both
the raw-rate summary and the standardized (unit sample SD) quantities used
throughout the large-sample machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TwoSampleSummary",
    "BinomialRaw",
    "StandardizedSummary",
    "from_raw_binomial",
    "standardized_two_sample",
    "conflict_stats",
]


@dataclass(frozen=True)
class TwoSampleSummary:
    """Sufficient statistics of the current and external samples.

    theta_hat : current-data mean (MLE of the parameter of interest)
    n         : current sample size
    beta_hat  : external-data mean
    m         : external sample size
    """

    theta_hat: float
    n: int
    beta_hat: float
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"sample sizes must be >= 1, got n={self.n}, m={self.m}")
        if not math.isfinite(self.delta_hat):  # also non-finite when either mean is
            raise ValueError("sample means and their conflict beta_hat - theta_hat must be finite")

    @property
    def delta_hat(self) -> float:
        """Observed conflict: external mean minus current mean."""
        return self.beta_hat - self.theta_hat

    @property
    def p_finite(self) -> float:
        """Current-data share n/(n+m), in (0, 1)."""
        return self.n / (self.n + self.m)

    def shifted(self, a: float) -> "TwoSampleSummary":
        """Both means translated by ``a`` (used by location-invariance checks)."""
        return TwoSampleSummary(self.theta_hat + a, self.n, self.beta_hat + a, self.m)


@dataclass(frozen=True)
class BinomialRaw:
    """Raw success count out of a number of trials."""

    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in [0, trials]")

    @property
    def rate(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class StandardizedSummary:
    """A sample mean divided by its plug-in sample SD.

    ``value_st * sd`` recovers the raw mean; for a binomial rate p the SD is
    sqrt(p*(1-p)) without finite-sample correction.
    """

    value_st: float
    sd: float
    size: int

    def __post_init__(self) -> None:
        if self.sd <= 0:
            raise ValueError("sd must be positive")
        if self.size < 1:
            raise ValueError("size must be positive")

    @property
    def raw(self) -> float:
        return self.value_st * self.sd


def _standardize_binomial(sample: BinomialRaw) -> StandardizedSummary:
    p = sample.rate
    if sample.successes == 0 or sample.successes == sample.trials:
        raise ValueError("zero sample SD: degenerate rate (0 or 1)")
    sd = math.sqrt(p * (1.0 - p))
    return StandardizedSummary(value_st=p / sd, sd=sd, size=sample.trials)


def from_raw_binomial(
    current: BinomialRaw, external: BinomialRaw
) -> tuple[TwoSampleSummary, tuple[StandardizedSummary, StandardizedSummary]]:
    """Build the raw-rate summary and per-sample standardized values.

    Returns ``(raw_summary, (current_st, external_st))``.  Degenerate rates
    (0 or 1) raise a ``ValueError`` since the plug-in SD vanishes.
    """
    cur_st = _standardize_binomial(current)
    ext_st = _standardize_binomial(external)
    raw = TwoSampleSummary(current.rate, current.trials, external.rate, external.trials)
    return raw, (cur_st, ext_st)


def standardized_two_sample(
    current_st: StandardizedSummary, external_st: StandardizedSummary
) -> TwoSampleSummary:
    """Assemble the standardized-scale summary consumed by the estimators."""
    return TwoSampleSummary(
        current_st.value_st, current_st.size, external_st.value_st, external_st.size
    )


def conflict_stats(s: TwoSampleSummary) -> tuple[float, float, float]:
    """Observed conflict, its standardized version, and the current-data share.

    Returns ``(delta_hat, xi_hat, p_finite)`` where
    ``xi_hat = delta_hat / sqrt(1/n + 1/m)`` is the natural test statistic
    for "no conflict" (standard normal when the two means agree).
    """
    delta_hat = s.delta_hat
    xi_hat = delta_hat / math.sqrt(1.0 / s.n + 1.0 / s.m)
    return delta_hat, xi_hat, s.p_finite
