"""Hypothesis testing with borrowing estimators.

The statistic throughout is ``Z = sqrt(n) * (estimate - theta0)`` with a
one-sided upper rejection region.  Because every estimator has the form
``theta_hat + q(delta_hat)``, the exact finite-sample law of Z reduces to a
one-dimensional integral over the observed conflict: conditionally on
``delta_hat = t`` the remaining randomness of ``theta_hat`` is normal with
known moments, so

    P(Z <= z | theta, delta) =
        E_t[ Phi( sqrt(n+m) * (z/sqrt(n) - (theta-theta0) - q(t)
                               + m/(n+m) * (t - delta)) ) ]

with ``t ~ N(delta, 1/n + 1/m)``.  Every estimator, the heavy-tailed-prior
posterior mode included, takes this one deterministic path: the law at one
truth is built once (Gauss-Legendre panels over ``delta +/- 9.5`` sd, split
at the correction's breakpoints) and evaluated at any number of ``z``;
its density and second moment are sums over the same nodes, and its
quantiles invert it numerically.  These also give the exact ``densities``
artifact, and the same panels over the conflict limit give the local limit
laws (:mod:`dibkit.asymptotics`).  The panels resolve a smooth correction
to rounding, so ``breakpoints`` must name every kink and jump of ``q``.

Critical values depend on what is assumed about the conflict under the null:
exactly zero, bounded by a known value, or unrestricted.  In the unrestricted
convention the per-conflict quantiles of non-suppressing estimators grow
without bound and the critical value is reported as infinite.  The worked
example's bounded-conflict p-value is the same law's exact upper tail, and
its tipping point is a root of that p-value in the conflict bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Literal, Union

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .estimators import (
    EstimatorConfig,
    SensitivityMmse,
    conflict_correction,
    est_pooled,
    estimator_id,
)
from .risk import _legendre_panels
from .summaries import TwoSampleSummary

__all__ = [
    "AllDelta",
    "DeltaZero",
    "DeltaBounded",
    "Convention",
    "TestSpec",
    "CriticalValue",
    "PowerCurve",
    "SweetSpot",
    "sampling_cdf",
    "null_quantile",
    "critical_value",
    "power",
    "power_curve",
    "sweet_spot",
    "p2_p3",
    "pvalue",
    "tipping_point",
    "NoCrossingError",
    "alasso_local_power_decay",
]


class NoCrossingError(ValueError):
    """The p-value curve does not reach the target on the tipping-point bracket."""


@dataclass(frozen=True)
class AllDelta:
    """Control the error rate for every conflict value."""

    id: ClassVar[str] = "all-delta"


@dataclass(frozen=True)
class DeltaZero:
    """Assume no conflict under the null."""

    id: ClassVar[str] = "delta-zero"


@dataclass(frozen=True)
class DeltaBounded:
    """Assume the conflict is at most ``delta0`` under the null."""

    id: ClassVar[str] = "delta-bounded"
    delta0: float

    def __post_init__(self) -> None:
        if not self.delta0 > 0:
            raise ValueError("delta0 must be positive")


Convention = Union[AllDelta, DeltaZero, DeltaBounded]  # each ``id`` is its CLI and CSV identifier


@dataclass(frozen=True)
class TestSpec:
    theta0: float
    alpha: float
    convention: Convention
    estimator: EstimatorConfig
    n: int
    m: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.n < 1 or self.m < 1:
            raise ValueError("sample sizes must be >= 1")


@dataclass(frozen=True)
class CriticalValue:
    """Critical Z value; ``math.inf`` when no finite value controls the error rate.

    ``flagged`` marks a non-monotone quantile profile whose maximum sat on the
    grid boundary, i.e. the supremum may not have been bracketed.
    """

    value: float
    sup_at: float | None
    flagged: bool = False

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class PowerCurve:
    estimator: str
    convention: str
    theta: float
    delta: np.ndarray
    rejection_prob: np.ndarray
    critical: float
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Exact sampling law via conditional-normal quadrature
# ---------------------------------------------------------------------------


_PANEL_RULE = leggauss(12)  # Gauss-Legendre rule on each conflict panel
_PANEL_WIDTH = 0.5  # widest panel, in sd units of the conflict statistic
_SPAN = 9.5  # half-width of the integrated conflict range, in the same units


def _normal_panels(center: float, sd: float, kinks) -> tuple[np.ndarray, np.ndarray]:
    """Panel nodes over ``center +/- _SPAN sd`` split at the kinks inside, weighted by N(center, sd^2)."""
    lo, hi = center - _SPAN * sd, center + _SPAN * sd
    if not lo < hi:
        raise ValueError(f"conflict span {center:g} +/- {_SPAN:g} * {sd:g} rounds to a single point")
    t, w = _legendre_panels(sorted({lo, hi, *(b for b in kinks if lo < b < hi)}), _PANEL_RULE, _PANEL_WIDTH * sd)
    return t, w * (np.exp(-((t - center) ** 2) / (2.0 * sd * sd)) / (sd * math.sqrt(2.0 * math.pi)))


class _ConditionalLaw:
    """Law of Z at one truth, as a fixed quadrature over the conflict statistic.

    ``shift`` is ``theta - theta0``.  Holds, per panel node ``t``, its weight
    times the normal density of ``t``, the correction ``q(t)`` (whose range
    brackets the quantiles) and the offset ``m/(n+m) (t - delta) - q(t) -
    shift`` of the standardized conditional mean; panels split at every
    breakpoint of the correction.  Given ``t``, Z is N(-root_n inner, root_n^2 / root_nm^2).
    """

    def __init__(self, estimator: EstimatorConfig, n: int, m: int, shift: float, delta: float) -> None:
        s = math.sqrt(1.0 / n + 1.0 / m)
        t, self.weights = _normal_panels(delta, s, estimator.breakpoints(n, m))
        self.q = conflict_correction(estimator, t, n, m, delta_true=delta)
        self.inner = -shift - self.q + (m / (n + m)) * (t - delta)
        self.root_n, self.root_nm = math.sqrt(n), math.sqrt(n + m)

    def _u(self, z: float | np.ndarray) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        return self.root_nm * (zs[:, None] / self.root_n + self.inner)

    def cdf(self, z: float | np.ndarray) -> float | np.ndarray:
        out = np.sum(self.weights * ndtr(self._u(z)), axis=-1)
        return out if np.ndim(z) else float(out[0])

    def sf(self, z: float) -> float:
        """P(Z > z), summed over upper tails so that small probabilities keep their digits."""
        return float(np.sum(self.weights * ndtr(-self._u(z))))

    def pdf(self, z: np.ndarray) -> np.ndarray:
        phi = np.exp(-0.5 * self._u(z) ** 2) * (self.root_nm / (self.root_n * math.sqrt(2.0 * math.pi)))
        return np.sum(self.weights * phi, axis=-1)

    def quantile(self, prob: float) -> float:
        # at shift 0, Z - root_n q is the current-data error: N(0, 1) at any conflict
        lo = self.root_n * float(np.min(self.q)) - 9.0
        hi = self.root_n * float(np.max(self.q)) + 9.0
        return float(brentq(lambda z: self.cdf(z) - prob, lo, hi, xtol=1e-10))

    def second_moment(self) -> float:
        return float(np.sum(self.weights * (self.inner**2 + 1.0 / self.root_nm**2))) * self.root_n**2

    def grid(self, points: int) -> np.ndarray:
        return np.linspace(self.quantile(1e-7), self.quantile(1.0 - 1e-7), points)

    def distance(self, other: "_ConditionalLaw") -> float:
        """sup |F - G| on 401 points of this law's grid, then 401 more around the largest gap."""
        z = self.grid(401)
        gap = np.abs(self.cdf(z) - other.cdf(z))
        k = int(np.argmax(gap))
        z = np.linspace(z[max(k - 1, 0)], z[min(k + 1, z.size - 1)], 401)
        return float(max(gap[k], np.max(np.abs(self.cdf(z) - other.cdf(z)))))


def sampling_cdf(
    spec: TestSpec, z: float | np.ndarray, theta: float, delta: float
) -> float | np.ndarray:
    """P(Z <= z) for ``Z = sqrt(n)(estimate - theta0)`` at the given truth."""
    return _ConditionalLaw(spec.estimator, spec.n, spec.m, theta - spec.theta0, delta).cdf(z)


def null_quantile(spec: TestSpec, delta: float, prob: float | None = None) -> float:
    """(1-alpha) quantile of Z under ``theta = theta0`` at the given conflict."""
    prob = 1.0 - spec.alpha if prob is None else prob
    return _ConditionalLaw(spec.estimator, spec.n, spec.m, 0.0, delta).quantile(prob)


def _default_grid(spec: TestSpec, points: int) -> np.ndarray:
    """Null conflicts from 0 to the bound, or to well past every breakpoint when there is none."""
    if isinstance(spec.convention, DeltaBounded):
        return np.linspace(0.0, spec.convention.delta0, points)
    s = math.sqrt(1.0 / spec.n + 1.0 / spec.m)
    top = 10.0 * s
    for b in spec.estimator.breakpoints(spec.n, spec.m):
        top = max(top, 4.0 * abs(b))
    return np.linspace(0.0, top, points)


def critical_value(
    spec: TestSpec,
    delta_grid: np.ndarray | None = None,
    *,
    points: int = 41,
) -> CriticalValue:
    """Critical Z under the spec's conflict convention (sup of per-conflict quantiles).

    Unbounded growth across the probe extensions of the grid reports an
    infinite critical value (non-suppressing estimators under the
    unrestricted convention).
    """
    conv = spec.convention
    if isinstance(conv, DeltaZero):
        return CriticalValue(null_quantile(spec, 0.0), sup_at=0.0)

    grid = np.asarray(_default_grid(spec, points) if delta_grid is None else delta_grid, dtype=float)
    quants = np.array([null_quantile(spec, d) for d in grid])
    k = int(np.argmax(quants))
    sup_val, sup_at = float(quants[k]), float(grid[k])

    flagged = False
    diffs = np.diff(quants)
    non_monotone = np.any(diffs > 1e-9) and np.any(diffs < -1e-9)
    if k in (0, grid.size - 1) and non_monotone:
        flagged = True

    if isinstance(conv, AllDelta):
        # probe beyond the grid: quantiles still rising -> no finite sup
        top = grid[-1] if grid[-1] > 0 else 1.0
        probe = [null_quantile(spec, 2.0 * top), null_quantile(spec, 4.0 * top)]
        tol = 1e-6
        if probe[0] > sup_val + tol and probe[1] > probe[0] + tol:
            return CriticalValue(math.inf, sup_at=None)
        sup_val = max(sup_val, *probe)
    return CriticalValue(sup_val, sup_at=sup_at, flagged=flagged)


def power(
    spec: TestSpec,
    critical: float | CriticalValue,
    theta: float,
    delta: float,
) -> float:
    """Rejection probability P(Z > critical) at the given truth."""
    crit = float(critical)
    if math.isinf(crit):
        return 0.0
    return _ConditionalLaw(spec.estimator, spec.n, spec.m, theta - spec.theta0, delta).sf(crit)


def power_curve(
    spec: TestSpec,
    theta: float,
    delta_grid: np.ndarray | None = None,
    *,
    points: int = 33,
) -> PowerCurve:
    """Rejection probability over a conflict grid at the spec's critical value."""
    grid = np.asarray(_default_grid(spec, points) if delta_grid is None else delta_grid, dtype=float)
    crit = critical_value(spec)
    probs = np.array([power(spec, crit, theta, d) for d in grid])
    return PowerCurve(
        estimator=estimator_id(spec.estimator),
        convention=spec.convention.id,
        theta=theta,
        delta=grid,
        rejection_prob=probs,
        critical=crit.value,
        meta={"flagged": crit.flagged, "sup_at": crit.sup_at, "alpha": spec.alpha},
    )


@dataclass(frozen=True)
class SweetSpot:
    """Conflict range where the borrowing test beats the plain test's power."""

    interval: tuple[float, float] | None
    candidate: tuple[float, float]
    grid: np.ndarray
    gain: np.ndarray


def sweet_spot(
    spec: TestSpec,
    theta: float,
    *,
    points: int = 61,
) -> SweetSpot:
    """Locate conflicts below the bound where the borrowing test has higher power.

    The analytic candidate ``(delta0 - (theta - theta0), delta0)`` is reported
    alongside the numerically located region.
    """
    conv = spec.convention
    if not isinstance(conv, DeltaBounded):
        raise ValueError("sweet spot is defined for the bounded-conflict convention")
    curve = power_curve(spec, theta, points=points)
    mle_power = float(ndtr(math.sqrt(spec.n) * (theta - spec.theta0) - ndtri(1.0 - spec.alpha)))
    grid, gain = curve.delta, curve.rejection_prob - mle_power
    positive = gain > 0.0
    if not np.any(positive):
        interval = None
    else:
        idx = np.flatnonzero(positive)
        interval = (float(grid[idx[0]]), float(grid[idx[-1]]))
    candidate = (conv.delta0 - (theta - spec.theta0), conv.delta0)
    return SweetSpot(interval=interval, candidate=candidate, grid=grid, gain=gain)


# ---------------------------------------------------------------------------
# Conflict-plausibility diagnostics and the worked-example p-values
# ---------------------------------------------------------------------------


def p2_p3(s: TwoSampleSummary, delta0: float, theta_assumed: float) -> tuple[float, float]:
    """Plug-in probabilities that the conflict sits in the favorable ranges.

    ``p3`` is the chance the estimated conflict stays below ``delta0``;
    ``p2`` additionally requires it to exceed ``delta0 - (theta_hat -
    theta_assumed)``, the sweet-spot lower edge.  Sampling references are
    normal, centered at the observed values, with the exact joint covariance
    of the two statistics; ``p2 <= p3`` holds by construction.
    """
    if not delta0 > 0:
        raise ValueError("delta0 must be positive")
    n, m = s.n, s.m
    s_del = math.sqrt(1.0 / n + 1.0 / m)
    p3 = float(ndtr((delta0 - s.delta_hat) / s_del))

    # theta_hat* ~ N(obs, 1/n); delta_hat* | theta_hat* ~ N(obs - (theta_hat*-obs), 1/m)
    xg, wg = leggauss(96)
    th_star = s.theta_hat + 4.0 / math.sqrt(n) * xg
    # the N(obs, 1/n) density at th_star, times the rule's half-width 4/sqrt(n)
    wts = wg * np.exp(-8.0 * xg * xg) * (4.0 / math.sqrt(2.0 * math.pi))
    mu_cond = s.delta_hat - (th_star - s.theta_hat)
    upper = ndtr((delta0 - mu_cond) * math.sqrt(m))
    lower = ndtr((delta0 - (th_star - theta_assumed) - mu_cond) * math.sqrt(m))
    p2 = float(np.sum(wts * np.maximum(0.0, upper - lower)))
    return min(p2, p3), p3


PValueOption = Literal["mle-alldelta", "pooled-deltazero", "dib-deltabounded"]


def pvalue(
    option: PValueOption,
    s: TwoSampleSummary,
    theta0: float,
    delta0: float | None = None,
    sens: float | None = None,
) -> float:
    """One-sided upper p-value under the three conflict conventions.

    All quantities live on the summary's scale; ``delta0`` is the assumed
    conflict bound on that same scale.  The bounded-conflict option is the
    exact upper tail of the sensitivity-indexed borrowing statistic at
    ``theta = theta0`` and the worst null conflict ``delta = delta0``.
    """
    n, m = s.n, s.m
    if option == "mle-alldelta":
        z1 = math.sqrt(n) * (s.theta_hat - theta0)
        return float(ndtr(-z1))
    if option == "pooled-deltazero":
        z2 = math.sqrt(n) * (est_pooled(s).theta_est - theta0)
        return float(ndtr(-z2 / math.sqrt(n / (n + m))))
    if option == "dib-deltabounded":
        if delta0 is None or sens is None:
            raise ValueError("bounded-conflict option needs delta0 and sens")
        config = SensitivityMmse(sens)
        z_obs = math.sqrt(n) * (config.result(s).theta_est - theta0)
        return _ConditionalLaw(config, n, m, 0.0, delta0).sf(z_obs)
    raise ValueError(f"unknown p-value option {option!r}")


def tipping_point(
    s: TwoSampleSummary,
    theta0: float,
    sens: float,
    target_p: float,
    *,
    bracket: tuple[float, float] = (1e-3, 0.5),
    grid_points: int = 33,
) -> float:
    """Conflict bound at which the bounded-conflict p-value first rises to ``target_p``.

    The exact p-value is not monotone in the bound, so the root is taken on
    the first grid interval whose right end reaches the target; the curve
    must start below it.
    """
    if not 0.0 < target_p < 1.0:
        raise ValueError("target_p must lie in (0, 1)")

    def excess(d0: float) -> float:
        return pvalue("dib-deltabounded", s, theta0, d0, sens) - target_p

    grid = np.linspace(bracket[0], bracket[1], grid_points)
    gaps = np.array([excess(d0) for d0 in grid])
    k = int(np.argmax(gaps >= 0.0))  # first point at the target; 0 also when none is
    if k == 0:
        raise NoCrossingError(
            f"no sign change on bracket: p starts at {gaps[0] + target_p:.4g} and peaks "
            f"at {gaps.max() + target_p:.4g}, target {target_p:.4g}"
        )
    return float(brentq(excess, grid[k - 1], grid[k], xtol=1e-14))


def alasso_local_power_decay(
    tau: float,
    h_theta: float,
    h: float,
    n_ladder: tuple[int, ...],
    *,
    alpha: float = 0.025,
    estimator: EstimatorConfig | None = None,
) -> list[dict[str, float]]:
    """Unrestricted-convention power along a sample-size ladder with m = 100 n.

    The local location ``h_theta / sqrt(n)`` shrinks while the critical value
    of an oracle-property estimator grows, so the detection power decays
    toward zero; the returned rows expose that sequence.
    """
    from .estimators import AdaptiveLasso

    config = AdaptiveLasso(tau=tau) if estimator is None else estimator
    rows: list[dict[str, float]] = []
    for n in n_ladder:
        m = 100 * n
        spec = TestSpec(theta0=0.0, alpha=alpha, convention=AllDelta(), estimator=config, n=n, m=m)
        crit = critical_value(spec)
        pw = power(spec, crit, theta=h_theta / math.sqrt(n), delta=h / math.sqrt(n))
        rows.append(
            {
                "n": float(n),
                "critical": float(crit),
                "power": pw,
                "estimator": estimator_id(config),
            }
        )
    return rows
