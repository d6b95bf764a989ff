"""Hypothesis testing with borrowing estimators.

The statistic throughout is ``Z = sqrt(n) * (estimate - theta0)`` with a
one-sided upper rejection region.  Its exact finite-sample law at a truth
``(theta, delta)`` is the conditional-normal mixture over the observed
conflict derived in :mod:`dibkit._law`; every estimator, the
heavy-tailed-prior posterior mode included, takes that one deterministic
path, built once per truth and evaluated at any number of ``z``.

Critical values depend on what is assumed about the conflict under the null:
exactly zero, bounded by a known value, or unrestricted.  In the unrestricted
convention the per-conflict quantiles of non-suppressing estimators grow
without bound and the critical value is reported as infinite.  The worked
example's bounded-conflict p-value is the same law's exact upper tail, and
its tipping point is a root of that p-value in the conflict bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Literal, Union

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr

from ._law import ConditionalLaw, bracketed_roots, conditional_laws, quantiles, upper_tails
from .estimators import (
    EstimatorConfig,
    Mle,
    SensitivityMmse,
    _check_finite,
    conflict_correction,  # noqa: F401  (the benchmark's tracer test patches this binding)
    est_pooled,
    estimator_id,
)
from .summaries import TwoSampleSummary, _check_sizes

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
        _check_finite(delta0=self.delta0)
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
        _check_finite(theta0=self.theta0)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if 1.0 - self.alpha == 1.0:  # the critical value is the quantile at 1 - alpha
            raise ValueError(f"alpha must be large enough that 1 - alpha is below 1, got {self.alpha:g}")
        _check_sizes(self.n, self.m)


@dataclass(frozen=True)
class CriticalValue:
    """Critical Z value; ``math.inf`` when no finite value controls the error rate.

    ``flagged`` is set only under ``AllDelta``: it marks a non-monotone
    quantile profile whose maximum sat at an end of the conflict grid, so the
    supremum over every conflict may lie off the grid.  Under ``DeltaZero``
    and ``DeltaBounded`` the grid spans the whole null set, so a maximum at
    its end is the true supremum and the flag stays False.
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


def _laws(spec: TestSpec, theta: float) -> Callable[[np.ndarray], list[ConditionalLaw]]:
    """The builder of Z's laws at ``theta`` over a batch of conflicts; ``theta`` is checked now, before any work."""
    _check_finite(theta=theta)
    return lambda deltas: conditional_laws(spec.estimator, spec.n, spec.m, theta - spec.theta0, deltas)


def sampling_cdf(
    spec: TestSpec, z: float | np.ndarray, theta: float, delta: float
) -> float | np.ndarray:
    """P(Z <= z) for ``Z = sqrt(n)(estimate - theta0)`` at the given truth."""
    return _laws(spec, theta)([delta])[0].cdf(z)


def null_quantile(spec: TestSpec, delta: float, prob: float | None = None) -> float:
    """(1-alpha) quantile of Z under ``theta = theta0`` at the given conflict."""
    prob = 1.0 - spec.alpha if prob is None else prob
    return float(quantiles(_laws(spec, spec.theta0)([delta]), [prob])[0])


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
    if isinstance(conv, DeltaZero):  # the one null conflict is 0
        delta_grid = np.zeros(1)
    grid = np.asarray(_default_grid(spec, points) if delta_grid is None else delta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("critical_value needs at least one null conflict")
    top = grid[-1] if grid[-1] > 0 else 1.0
    # the grid and AllDelta's two probes beyond it, solved in one batch
    deltas = np.append(grid, [2.0 * top, 4.0 * top]) if isinstance(conv, AllDelta) else grid
    solved = quantiles(_laws(spec, spec.theta0)(deltas), np.full(deltas.size, 1.0 - spec.alpha))
    quants, probe = solved[: grid.size], solved[grid.size :]
    k = int(np.argmax(quants))
    flagged = False
    if isinstance(conv, AllDelta):
        # probe beyond the grid: quantiles still rising -> no finite sup
        tol = 1e-6
        if probe[0] > quants[k] + tol and probe[1] > probe[0] + tol:
            return CriticalValue(math.inf, sup_at=None)
        diffs = np.diff(quants)
        flagged = k in (0, grid.size - 1) and bool(np.any(diffs > 1e-9) and np.any(diffs < -1e-9))
    j = int(np.argmax(solved))  # a probe's quantile is reported with its own conflict
    return CriticalValue(float(solved[j]), sup_at=float(deltas[j]), flagged=flagged)


def power(
    spec: TestSpec,
    critical: float | CriticalValue,
    theta: float,
    delta: float,
) -> float:
    """Rejection probability P(Z > critical) at the given truth."""
    laws = _laws(spec, theta)
    crit = float(critical)
    return 0.0 if math.isinf(crit) else float(upper_tails(laws([delta]), crit)[0])


def power_curve(
    spec: TestSpec,
    theta: float,
    delta_grid: np.ndarray | None = None,
    *,
    points: int = 33,
) -> PowerCurve:
    """Rejection probability over a conflict grid at the spec's critical value."""
    laws = _laws(spec, theta)
    grid = np.asarray(_default_grid(spec, points) if delta_grid is None else delta_grid, dtype=float)
    crit = critical_value(spec)
    probs = np.zeros(grid.size) if math.isinf(crit.value) else upper_tails(laws(grid), crit.value)
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
    alongside the numerically located region.  The plain (MLE) test's power
    is taken by the same quadrature on the same grid, so comparing ``Mle()``
    with itself gains exactly zero.
    """
    conv = spec.convention
    if not isinstance(conv, DeltaBounded):
        raise ValueError("sweet spot is defined for the bounded-conflict convention")
    curve = power_curve(spec, theta, points=points)
    plain = power_curve(replace(spec, estimator=Mle()), theta, curve.delta)
    grid, gain = curve.delta, curve.rejection_prob - plain.rejection_prob
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


@functools.cache
def _p2_p3_rule() -> tuple[np.ndarray, np.ndarray]:
    """``p2_p3``'s 96-node Gauss-Legendre rule on [-1, 1], built on first use.

    Its weights come times the N(0, 1) density at 4x and the half-width 4,
    so they integrate against the current mean's N(obs, 1/n) law over +/- 4 sd.
    """
    xg, wg = leggauss(96)
    return xg, wg * np.exp(-8.0 * xg * xg) * (4.0 / math.sqrt(2.0 * math.pi))


def p2_p3(s: TwoSampleSummary, delta0: float, theta_assumed: float) -> tuple[float, float]:
    """Plug-in probabilities that the conflict sits in the favorable ranges.

    ``p3`` is the chance the estimated conflict stays below ``delta0``;
    ``p2`` additionally requires it to exceed ``delta0 - (theta_hat -
    theta_assumed)``, the sweet-spot lower edge.  Sampling references are
    normal, centered at the observed values, with the exact joint covariance
    of the two statistics; ``p2 <= p3`` holds by construction.
    """
    DeltaBounded(delta0)  # the one check of a conflict bound
    _check_finite(theta_assumed=theta_assumed)
    n, m = s.n, s.m
    s_del = math.sqrt(1.0 / n + 1.0 / m)
    p3 = float(ndtr((delta0 - s.delta_hat) / s_del))

    # theta_hat* ~ N(obs, 1/n); delta_hat* | theta_hat* ~ N(obs - (theta_hat*-obs), 1/m)
    xg, wts = _p2_p3_rule()
    th_star = s.theta_hat + 4.0 / math.sqrt(n) * xg
    mu_cond = s.delta_hat - (th_star - s.theta_hat)
    upper = ndtr((delta0 - mu_cond) * math.sqrt(m))
    lower = ndtr((delta0 - (th_star - theta_assumed) - mu_cond) * math.sqrt(m))
    p2 = float(np.sum(wts * np.maximum(0.0, upper - lower)))
    return min(p2, p3), p3


def _bounded_pvalues(s: TwoSampleSummary, theta0: float, sens: float) -> Callable[[np.ndarray], np.ndarray]:
    """The bounded-conflict p-value at any conflict bounds, with the estimator and its observed Z built once."""
    config = SensitivityMmse(sens)
    z_obs = math.sqrt(s.n) * (config.result(s).theta_est - theta0)
    return lambda delta0s: upper_tails(conditional_laws(config, s.n, s.m, 0.0, delta0s), z_obs)


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
    _check_finite(theta0=theta0)
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
        return float(_bounded_pvalues(s, theta0, sens)([DeltaBounded(delta0).delta0])[0])
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
    the first grid interval whose right end reaches the target, by secant
    steps kept inside that interval; the curve must start below it.
    """
    if not 0.0 < target_p < 1.0:
        raise ValueError("target_p must lie in (0, 1)")
    if grid_points < 2:  # the root is sought on a grid interval
        raise ValueError(f"tipping point needs grid_points >= 2, got grid_points = {grid_points}")
    _check_finite(theta0=theta0)
    left, right = (DeltaBounded(d0).delta0 for d0 in bracket)  # each end is a conflict bound
    if not left < right:
        raise ValueError(f"tipping-point bracket must be increasing, got {bracket}")
    pvalues = _bounded_pvalues(s, theta0, sens)  # the grid and every secant step evaluate this one p-value
    grid = np.linspace(left, right, grid_points)
    gaps = pvalues(grid) - target_p
    k = int(np.argmax(gaps >= 0.0))  # first point at the target; 0 also when none is
    if k == 0:
        raise NoCrossingError(
            f"no sign change on bracket: p starts at {gaps[0] + target_p:.4g} and peaks "
            f"at {gaps.max() + target_p:.4g}, target {target_p:.4g}"
        )
    lo, hi = grid[k - 1], grid[k]
    start = lo - gaps[k - 1] * (hi - lo) / (gaps[k] - gaps[k - 1])  # false position
    root = bracketed_roots(
        lambda d0, rows: (pvalues(d0) - target_p, None),  # secant steps: no slope
        [lo], [hi], [start], abs_tol=1e-14, rel_tol=4.0 * np.finfo(float).eps, prev=([hi], [gaps[k]]),
    )
    return float(root[0])


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
