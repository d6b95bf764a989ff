"""Point estimators that blend current and external sample means.

Every estimator here can be written as ``theta_hat + q(delta_hat)`` where
``delta_hat = beta_hat - theta_hat`` is the observed conflict and ``q`` is an
estimator-specific correction.  Each configuration class carries its own
formulas: the vectorized correction (or the mixing weight ``w`` where
``q = w * delta_hat``), the kinks of the correction, whether it has a local
limit law, and the fields it reports on a single summary.
:func:`conflict_correction` is the vectorized workhorse shared by the risk,
testing and Monte Carlo modules; the public ``est_*`` functions run the same
kernel on one summary.

Families
--------
- plain MLE and full pooling,
- test-then-pool (pool unless the conflict z-statistic is significant),
- mean-squared-error minimizers: the oracle weight, its plug-in version,
  and the sensitivity-indexed generalization,
- penalized likelihood with an adaptive lasso penalty on the conflict,
- power priors with fixed, Hellinger-distance and empirical-Bayes weights,
- full Bayes with normal or heavy-tailed (Student t) priors on the conflict,
- the limited-translation compromise rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, ClassVar, Mapping, Union, get_args

import numpy as np

from .summaries import TwoSampleSummary

__all__ = [
    "Mle",
    "Pooled",
    "TestThenPool",
    "OracleMmse",
    "AdaptiveMmse",
    "SensitivityMmse",
    "GeneralizedBorrow",
    "AdaptiveLasso",
    "FixedPowerPrior",
    "HellingerPowerPrior",
    "EmpiricalBayesPowerPrior",
    "NormalPriorBayes",
    "StudentTPriorBayes",
    "LimitedTranslation",
    "EstimatorConfig",
    "EstimateResult",
    "estimate",
    "estimator_id",
    "config_from_id",
    "conflict_correction",
    "est_mle",
    "est_pooled",
    "est_ttpool",
    "est_ommse",
    "est_ammse",
    "est_ammse_s",
    "est_gdib",
    "est_alasso",
    "power_prior_mean",
    "gamma_hd",
    "gamma_eb",
    "est_hdpp",
    "est_ebpp",
    "est_np",
    "est_lstp",
    "est_ltr",
    "lstp_delta_mode",
    "lstp_profile_objective",
    "alasso_delta",
]


# ---------------------------------------------------------------------------
# Shared formulas and estimator families
# ---------------------------------------------------------------------------


def _check_finite(**values: Any) -> None:
    """Reject the first value that is not finite, naming it; a tuple (a list option) must be finite throughout."""
    for name, value in values.items():
        if not (all(map(math.isfinite, value)) if isinstance(value, tuple) else math.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


def _pooled_weight(n: int, m: int) -> float:
    return m / (n + m)


def _power_prior_weight(gamma: np.ndarray, n: int, m: int) -> np.ndarray:
    return m * gamma / (m * gamma + n)  # m/(m + n/gamma), written to stay finite as gamma -> 0


def _hellinger_gamma(x: np.ndarray) -> np.ndarray:
    """``(1 - sqrt(1 - e))^2`` with ``e = exp(-x)``, written as ``(e / (1 + sqrt(1 - e)))^2`` to keep its digits.

    The first form cancels once ``e`` is small (0 where the value is 9.3e-45);
    ``1 - e`` is taken as ``-expm1(-x)``, which keeps its digits as ``x -> 0``.
    """
    r = np.exp(-x) / (1.0 + np.sqrt(-np.expm1(-x)))
    # squared in place, as an array's ** 2 is; an np.float64's ** 2 is pow, which can be one ulp off
    r *= r
    return r


def _mixing(values: np.ndarray) -> np.ndarray:
    """A user mixing function's values, checked to lie in [0, 1]."""
    w = np.asarray(values, dtype=float)[()]  # an np.float64 where 0-d, as in lstp_delta_mode
    if not ((w >= 0.0) & (w <= 1.0)).all():  # NaN fails both comparisons
        raise ValueError("invalid mixing function: g must map into [0, 1]")
    return w


def _ltr_constants(n: int, m: int) -> tuple[float, float]:
    big_m = math.sqrt(1.0 / n + 1.0 / m)
    big_c = big_m * (2.0 * m + n) / (m + n)
    return big_m, big_c


class _Estimator:
    """What a configuration knows about its estimator.

    A kind sets ``id``, the short stable identifier used in CSV output and CLI
    flags, and defines its vectorized correction: ``correction(d, n, m,
    delta_true)`` itself or, where ``q = w * d``, the mixing weight
    ``weight(d, n, m, delta_true)``.  ``_evaluate`` gives the correction at
    one conflict together with the optional :class:`EstimateResult` fields
    the kind reports (``delta_est``, ``gamma_est``, ``weight``), computing
    each piece they share once.

    Contract: every correction is odd in the conflict and the conflict it is
    evaluated at, ``q(-d, n, m, -delta_true) == -q(d, n, m, delta_true)``,
    bit for bit (a weight is even in both).  The risk module relies on it to
    evaluate the MSE once per distinct ``|delta|``.
    """

    id: ClassVar[str]
    # the limit law is the finite law at n = p, m = 1 - p (_law.limit_borrowing), split also at these kinks
    # in xi that ``breakpoints`` misses; None (no limit law) where the correction depends on n beyond p
    limit_breakpoints: ClassVar[tuple[float, ...] | None] = ()

    def correction(self, d: np.ndarray, n: int, m: int, delta_true: float | None = None):
        return self.weight(d, n, m, delta_true) * d

    def _evaluate(self, d: np.ndarray, n: int, m: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The correction at ``d`` and the reported fields, bit for bit as their own methods give them."""
        w = self.weight(d, n, m)
        return w * d, {"weight": w}

    def result(self, s: TwoSampleSummary) -> EstimateResult:
        """``theta_hat + q(delta_hat)`` on one summary, with the fields the kind reports."""
        q, reported = self._evaluate(np.float64(s.delta_hat), s.n, s.m)
        return EstimateResult(s.theta_hat + float(q), **{f: float(v) for f, v in reported.items()})

    def breakpoints(self, n: int, m: int) -> tuple[float, ...]:
        """Conflict values where the correction is non-smooth (for quadrature splits)."""
        return ()


class _Mmse(_Estimator):
    """MSE-optimal mixing weight with the conflict's pull scaled by ``sens``."""

    def weight(self, d, n, m, delta_true=None):
        return m / (n + m + m * n * d * d * self.sens)


class _PowerPrior(_Estimator):
    """Power prior: the external likelihood raised to the power ``gamma_est``."""

    def weight(self, d, n, m, delta_true=None):
        return _power_prior_weight(self.gamma_est(d, n, m), n, m)

    def _evaluate(self, d, n, m):
        gamma = self.gamma_est(d, n, m)
        w = _power_prior_weight(gamma, n, m)
        return w * d, {"gamma_est": gamma, "weight": w}


class _ConflictMode(_Estimator):
    """Estimate the conflict as ``delta_est``, then pool the corrected external mean.

    ``theta_est = (n theta_hat + m (beta_hat - delta_est)) / (n + m)``, i.e.
    ``q = m/(n+m) * (delta_hat - delta_est)``.
    """

    def correction(self, d, n, m, delta_true=None):
        return _pooled_weight(n, m) * (d - self.delta_est(d, n, m))

    def _evaluate(self, d, n, m):
        delta_est = self.delta_est(d, n, m)
        return _pooled_weight(n, m) * (d - delta_est), {"delta_est": delta_est}


# ---------------------------------------------------------------------------
# Configurations (tagged choice of estimator + tuning parameters)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mle(_Estimator):
    """Current-data mean only; never borrows."""

    id: ClassVar[str] = "mle"

    def weight(self, d, n, m, delta_true=None):
        return 0.0


@dataclass(frozen=True)
class Pooled(_Estimator):
    """Precision-weighted combination of both means; optimal at zero conflict."""

    id: ClassVar[str] = "pooled"

    def weight(self, d, n, m, delta_true=None):
        return _pooled_weight(n, m)


@dataclass(frozen=True)
class TestThenPool(_Estimator):
    """Pool unless the squared conflict z-statistic reaches ``c`` (default 3.84)."""

    id: ClassVar[str] = "ttpool"
    c: float = 3.84

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError("test-then-pool threshold c must be positive")

    def weight(self, d, n, m, delta_true=None):
        # ties resolve to rejection
        xi2 = d * d / (1.0 / n + 1.0 / m)
        return np.where(xi2 >= self.c, 0.0, _pooled_weight(n, m))

    def breakpoints(self, n, m):
        b = math.sqrt(self.c * (1.0 / n + 1.0 / m))
        return (-b, b)


@dataclass(frozen=True)
class OracleMmse(_Mmse):
    """MSE-optimal mixing weight computed at a known conflict value.

    ``delta_true=None`` means "track the true conflict of the evaluation
    scenario"; the risk module substitutes the scenario's conflict, which is
    how the oracle lower bound on risk curves is produced.  The scalar
    estimator :func:`est_ommse` always requires an explicit value.
    """

    id: ClassVar[str] = "ommse"
    sens: ClassVar[float] = 1.0  # the adaptive weight, evaluated at the true conflict
    delta_true: float | None = None

    def __post_init__(self) -> None:
        if self.delta_true is not None:
            _check_finite(delta_true=self.delta_true)

    @property
    def limit_breakpoints(self) -> tuple[float, ...] | None:  # n m delta_true^2 grows with n; 0 is pooled
        return () if not self.delta_true else None

    def weight(self, d, n, m, delta_true=None):
        dt = self.delta_true if self.delta_true is not None else delta_true
        if dt is None:
            raise ValueError("oracle MMSE needs a conflict value (delta_true)")
        return super().weight(dt, n, m)


@dataclass(frozen=True)
class AdaptiveMmse(_Mmse):
    """Oracle MMSE weight with the observed conflict plugged in."""

    id: ClassVar[str] = "ammse"
    sens: ClassVar[float] = 1.0  # the sens = 1 member of the sensitivity family


@dataclass(frozen=True)
class SensitivityMmse(_Mmse):
    """Adaptive MMSE family indexed by a sensitivity-to-conflict ``sens >= 0``.

    ``sens=0`` always pools, ``sens=1`` recovers the plain adaptive MMSE and
    larger values suppress external data more aggressively.
    """

    id: ClassVar[str] = "ammse-s"
    sens: float = 1.0

    def __post_init__(self) -> None:
        if not self.sens >= 0:
            raise ValueError("sensitivity must be non-negative")


@dataclass(frozen=True)
class GeneralizedBorrow(_Estimator):
    """User-supplied mixing function ``g`` applied to ``n * delta_hat^2 * sens``.

    ``g`` must map non-negative reals into [0, 1].  It receives an ndarray of
    these values from the vector methods, and one ``np.float64`` from ``result``
    (so from ``estimate`` and ``est_gdib``), which has no buffer: ``g`` must
    not write into its input.
    """

    id: ClassVar[str] = "gdib"
    g: Callable[[np.ndarray | np.float64], np.ndarray | float]
    sens: float

    def __post_init__(self) -> None:
        if not self.sens >= 0:
            raise ValueError("sensitivity must be non-negative")

    def weight(self, d, n, m, delta_true=None):
        return _mixing(self.g(n * d * d * self.sens))


@dataclass(frozen=True)
class AdaptiveLasso(_ConflictMode):
    """Penalized likelihood with an adaptive L1 penalty on the conflict."""

    id: ClassVar[str] = "alasso"
    limit_breakpoints: ClassVar[None] = None  # its threshold in sqrt(n) delta_hat units grows as (n+m)^tau
    tau: float = 0.25

    def __post_init__(self) -> None:
        if not 0 < self.tau < 0.5:
            raise ValueError("tau must lie in (0, 0.5)")

    def delta_est(self, d, n, m):
        return alasso_delta(d, n, m, self.tau)

    def breakpoints(self, n, m):
        b = math.sqrt((n + m) ** (1.0 + self.tau) / (2.0 * n * m))
        return (-b, b)


@dataclass(frozen=True)
class FixedPowerPrior(_PowerPrior):
    """External likelihood raised to a fixed power ``gamma`` in (0, 1]."""

    id: ClassVar[str] = "power-prior"
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")

    def gamma_est(self, d, n, m):
        return np.float64(self.gamma)


@dataclass(frozen=True)
class HellingerPowerPrior(_PowerPrior):
    """Power prior with gamma estimated from the Hellinger distance."""

    id: ClassVar[str] = "hdpp"
    limit_breakpoints: ClassVar[tuple[float, ...]] = (0.0,)

    def gamma_est(self, d, n, m):
        return _hellinger_gamma(n * d * d / 8.0)


@dataclass(frozen=True)
class EmpiricalBayesPowerPrior(_PowerPrior):
    """Power prior with gamma estimated by marginal-likelihood maximization."""

    id: ClassVar[str] = "ebpp"
    limit_breakpoints: ClassVar[tuple[float, ...]] = (-1.0, 1.0)

    def gamma_est(self, d, n, m):
        # (1/m) / (max(d^2, 1/n + 1/m) - 1/n), whose (1/n + 1/m) - 1/n cancels when m >> n
        return 1.0 / np.maximum(m * d * d - m / n, 1.0)


@dataclass(frozen=True)
class NormalPriorBayes(_Estimator):
    """Posterior mode under a N(0, 1/n) prior on the conflict."""

    id: ClassVar[str] = "np"

    def weight(self, d, n, m, delta_true=None):
        return m / (2.0 * m + n)

    def delta_est(self, d, n, m):
        return self.weight(d, n, m) * d

    def _evaluate(self, d, n, m):
        w = self.weight(d, n, m)
        q = w * d
        return q, {"delta_est": q, "weight": w}


@dataclass(frozen=True)
class StudentTPriorBayes(_ConflictMode):
    """Posterior mode under a location-scale t prior (scale 1/sqrt(n)) on the conflict."""

    id: ClassVar[str] = "lstp"
    v: int = 3

    def __post_init__(self) -> None:
        if not 3 <= self.v <= sys.float_info.max:  # the mode's cubic is solved in floats
            raise ValueError("degrees of freedom v must lie between 3 and the largest float")

    def delta_est(self, d, n, m):
        return lstp_delta_mode(d, n, m, self.v)

    def breakpoints(self, n, m):
        """Where the posterior mode jumps between the cubic's outer roots, if it does.

        In x = sqrt(n/v) d and y = sqrt(n/v) delta_hat the stationary points
        solve x/(1+x^2) = k (y - x) with k = m/(n+m) v/(v+1).  The curve's least
        slope is -1/8, so the line cuts it three times only when k < 1/8.  The
        three-root interval of y ends where the line is tangent, at u = x^2
        solving k u^2 + (2k-1) u + k + 1 = 0; between those ends a bisection
        finds the conflict where the mode leaves the inner root.
        """
        v = self.v
        k = m / (n + m) * (v / (v + 1.0))
        if not k < 0.125:
            return ()
        u_outer = (1.0 - 2.0 * k + math.sqrt(1.0 - 8.0 * k)) / (2.0 * k)
        u_inner = (k + 1.0) / (k * u_outer)  # the two roots' product is (k + 1)/k
        x_inner, x_outer = math.sqrt(v / n * u_inner), math.sqrt(v / n * u_outer)  # in units of d
        # a stationary d has delta_hat = d (1 + 1/(k (1 + u))); at the outer tangent point that is the lower end
        lo = x_outer * (1.0 + 1.0 / (k * (1.0 + u_outer)))
        hi = x_inner * (1.0 + 1.0 / (k * (1.0 + u_inner)))
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if lstp_delta_mode(mid, n, m, v) > x_inner:  # the outer root, past the inner tangent point
                hi = mid
            else:
                lo = mid
        return (-hi, hi)


@dataclass(frozen=True)
class LimitedTranslation(_Estimator):
    """Normal-prior Bayes rule with the translation capped at the testing boundary."""

    id: ClassVar[str] = "ltr"

    def correction(self, d, n, m, delta_true=None):
        big_m, _ = _ltr_constants(n, m)
        cap = big_m * m / (m + n)  # the normal-prior translation's value at |delta_hat| = C
        return np.clip(m / (2.0 * m + n) * d, -cap, cap)

    def delta_est(self, d, n, m):
        big_m, big_c = _ltr_constants(n, m)
        return np.where(np.abs(d) > big_c, d - np.copysign(big_m, d), m / (2.0 * m + n) * d)

    def _evaluate(self, d, n, m):
        return self.correction(d, n, m), {"delta_est": self.delta_est(d, n, m)}

    def breakpoints(self, n, m):
        _, big_c = _ltr_constants(n, m)
        return (-big_c, big_c)


EstimatorConfig = Union[
    Mle,
    Pooled,
    TestThenPool,
    OracleMmse,
    AdaptiveMmse,
    SensitivityMmse,
    GeneralizedBorrow,
    AdaptiveLasso,
    FixedPowerPrior,
    HellingerPowerPrior,
    EmpiricalBayesPowerPrior,
    NormalPriorBayes,
    StudentTPriorBayes,
    LimitedTranslation,
]


def estimator_id(config: EstimatorConfig) -> str:
    """Short stable identifier used in CSV output and CLI flags."""
    return config.id


# the tuning fields, each with its class default: every field a kind defaults (gdib's g has no default)
_FIELD_DEFAULTS = {f.name: f.default for k in get_args(EstimatorConfig) for f in fields(k) if f.default is not MISSING}


def _from_id(kinds: Any, name: str, what: str, flags: Mapping[str, Any]) -> Any:
    """The member of the ``Union`` ``kinds`` whose ``id`` is ``name``, each field set from the flag of its name.

    A field without a flag takes its class default.  A ValueError names every
    ``id`` if none is ``name``, and every field that neither a flag nor a
    default sets.
    """
    members = get_args(kinds)
    kind = next((k for k in members if k.id == name), None)
    if kind is None:
        raise ValueError(f"unknown {what} {name!r}; known: {sorted(k.id for k in members)}")
    unset = [f.name for f in fields(kind) if f.name not in flags and f.default is MISSING]
    if unset:
        raise ValueError(f"{what} {name!r} has no flag or default for {unset}")
    return kind(**{f.name: flags[f.name] for f in fields(kind) if f.name in flags})


def config_from_id(name: str, **flags: Any) -> EstimatorConfig:
    """Build a configuration from its CLI identifier and tuning flags.

    Each flag is named after the configuration field it sets; a field without
    one takes its class default.
    """
    unknown = sorted(set(flags) - set(_FIELD_DEFAULTS))
    if unknown:
        raise TypeError(f"config_from_id() got unexpected keyword arguments {unknown}")
    return _from_id(EstimatorConfig, name, "estimator id", flags)


# ---------------------------------------------------------------------------
# Result type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate plus whatever auxiliary quantities the method produces.

    ``weight`` is the realized mixing proportion on the observed conflict for
    weight-form estimators (``theta_est = theta_hat + weight * delta_hat``);
    it is ``None`` for the penalized/Bayes-mode methods whose correction is
    not a plain multiple of the conflict.
    """

    theta_est: float
    delta_est: float | None = None
    gamma_est: float | None = None
    weight: float | None = None


# ---------------------------------------------------------------------------
# Vectorized correction kernels: T = theta_hat + q(delta_hat)
# ---------------------------------------------------------------------------


def alasso_delta(delta_hat: np.ndarray, n: int, m: int, tau: float) -> np.ndarray:
    """Soft-thresholded conflict estimate from the adaptive-lasso objective.

    Profiling the location parameter out of the penalized likelihood leaves

        (n*m/(n+m)) * (delta - delta_hat)^2 + (n+m)^tau * |delta| / |delta_hat|

    whose minimizer is a soft threshold at ``(n+m)^(1+tau) / (2 n m |delta_hat|)``.
    A zero observed conflict makes the adaptive penalty infinite, so the
    estimate is exactly zero there.  That needs no branch: the shrink is
    ``inf`` and the clip returns zero itself.  Inside the threshold the
    estimate is +0.0 for either sign of ``delta_hat``.
    """
    d = np.asarray(delta_hat, dtype=float)[()]  # an np.float64 where 0-d, as in lstp_delta_mode
    with np.errstate(divide="ignore", over="ignore"):  # an infinite shrink zeroes the estimate
        shrink = (n + m) ** (1.0 + tau) / (2.0 * n * m * np.abs(d))
    return d - np.clip(d, -shrink, shrink)


def lstp_profile_objective(
    d: np.ndarray, delta_hat: np.ndarray, n: int, m: int, v: int
) -> np.ndarray:
    """Profiled negative log posterior of the conflict under the t prior.

    ``f(d) = ((v+1)/2) log(v + n d^2) + (n m / (2 (n+m))) (delta_hat - d)^2``
    after maximizing the posterior over the location in closed form.
    """
    a = n * m / (2.0 * (n + m))
    return 0.5 * (v + 1) * np.log(v + n * d * d) + a * (delta_hat - d) ** 2


def _cardano_root(d, qb, q, p3, disc):
    """lstp's mode where its cubic has one real root (disc > 0), from the depressed cubic's terms.

    Cardano's u - w with w = p/(3u), written as -q / (u^2 + p/3 + w^2) so that
    the two terms do not cancel when p dominates q; with q = B qb the root
    x = 2**e (t - B/3) is delta_hat (qb / (u^2 + p/3 + w^2) + 1/3).
    """
    u = np.cbrt(-q / 2.0 - np.copysign(np.sqrt(disc), q))
    w = p3 / u
    return d * (qb / (u * u + p3 + w * w) + 1.0 / 3.0)


def lstp_delta_mode(delta_hat: np.ndarray, n: int, m: int, v: int = StudentTPriorBayes.v) -> np.ndarray:
    """Conflict value at the joint posterior mode, by exact stationary points.

    Setting the derivative of :func:`lstp_profile_objective` to zero and
    clearing the rational term gives a cubic in the conflict:

        2 a n d^3 - 2 a n delta_hat d^2 + (2 a v + (v+1) n) d - 2 a v delta_hat = 0

    with ``a = n m / (2 (n+m))``.  Its real roots are the stationary points;
    the global mode is the root with the smallest objective (the objective is
    coercive, so the minimum is never at a bracket edge).  Agrees with a
    bracketed scan-and-bisect global search to floating-point accuracy.
    """
    d = np.asarray(delta_hat, dtype=float)[()]  # an np.float64 where 0-d, so one value skips array dispatch
    a = n * m / (2.0 * (n + m))
    # the cubic in s = x / 2**e, an exact rescaling that keeps its coefficients
    # and discriminant finite for every float v (e = 0 unless v exceeds 2**200)
    e = max(math.frexp(v)[1] // 2 - 100, 0)
    ve = math.ldexp(v, -2 * e)
    # normalized cubic s^3 + B s^2 + C s + D with D = ve B / n
    B = d * math.ldexp(-1.0, -e)
    C = (2.0 * a * ve + (ve + math.ldexp(1.0, -2 * e)) * n) / (2.0 * a * n)
    # depressed form t^3 + p t + q with s = t - B/3; powers as products, since
    # numpy's float power costs 10-30x a multiply.  q carries the factor B, kept
    # apart in qb so that a conflict made tiny by the rescaling keeps its digits.
    p = C - B * B / 3.0
    qb = 2.0 * (B * B) / 27.0 - C / 3.0 + ve / n
    q = B * qb
    p3 = p / 3.0
    disc = q / 2.0
    disc *= disc  # squared in place, as in _hellinger_gamma
    disc += p3 * p3 * p3

    one = disc > 0.0
    # every node has one real root unless p > 1 - (v+1)/(8v), so whenever m >= n/5
    if one.all():
        return _cardano_root(d, qb, q, p3, disc)
    # else Cardano's expression still gives each one-root node in place, and the rest are gathered
    with np.errstate(invalid="ignore", divide="ignore"):  # NaN where disc <= 0, replaced below
        out = np.ravel(_cardano_root(d, qb, q, p3, disc))
    three = np.flatnonzero(~one)
    dh = np.ravel(d)
    # solved at |delta_hat| and negated back: arccos(-x) = pi - arccos(x) only to
    # rounding, and where two minima tie the choice of root must still be odd
    ad = np.abs(dh[three])
    Ba = ad * math.ldexp(-1.0, -e)
    pp = np.ravel(p)[three]
    qq = Ba * np.ravel(qb)[three]
    r = np.sqrt(np.maximum(-pp / 3.0, 0.0))
    # clip guards round-off at the double-root boundary (disc ~ 0)
    cos_arg = np.clip(3.0 * qq / (2.0 * pp) * np.sqrt(np.where(pp < 0, -3.0 / pp, 0.0)), -1.0, 1.0)
    theta = np.arccos(cos_arg)[:, None]
    t = 2.0 * r[:, None] * np.cos(theta / 3.0 - 2.0 * math.pi * np.arange(3) / 3.0)
    cand = np.ldexp(t - Ba[:, None] / 3.0, e)
    f = lstp_profile_objective(cand, ad[:, None], n, m, v)
    mode = np.take_along_axis(cand, np.argmin(f, axis=1)[:, None], axis=1).ravel()
    out[three] = np.where(np.signbit(dh[three]), -mode, mode)
    return out.reshape(np.shape(d))[()]


def conflict_correction(
    config: EstimatorConfig,
    delta_hat: np.ndarray,
    n: int,
    m: int,
    *,
    delta_true: float | None = None,
) -> np.ndarray:
    """Correction ``q`` with ``theta_est = theta_hat + q(delta_hat)``, vectorized.

    ``delta_true`` feeds the oracle MMSE weight when the configuration left it
    unspecified (risk evaluation at a known scenario conflict).
    """
    return config.correction(np.asarray(delta_hat, dtype=float), n, m, delta_true)


# ---------------------------------------------------------------------------
# Scalar API
# ---------------------------------------------------------------------------


def est_mle(s: TwoSampleSummary) -> EstimateResult:
    """Current-data mean; ignores the external sample entirely."""
    return Mle().result(s)


def est_pooled(s: TwoSampleSummary) -> EstimateResult:
    """Both samples pooled with precision weights."""
    return Pooled().result(s)


def est_ttpool(s: TwoSampleSummary, c: float = TestThenPool.c) -> EstimateResult:
    """Pool unless the conflict test rejects; ties resolve to rejection."""
    return TestThenPool(c).result(s)


def est_ommse(s: TwoSampleSummary, delta_true: float) -> EstimateResult:
    """MSE-optimal mixing weight at a known conflict (not usable in practice)."""
    return OracleMmse(delta_true).result(s)


def est_ammse(s: TwoSampleSummary) -> EstimateResult:
    """Oracle weight with the observed conflict plugged in."""
    return AdaptiveMmse().result(s)


def est_ammse_s(s: TwoSampleSummary, sens: float) -> EstimateResult:
    """Sensitivity-indexed adaptive MMSE; sens=0 pools, sens=1 is plain adaptive."""
    return SensitivityMmse(sens).result(s)


def est_gdib(
    s: TwoSampleSummary, g: Callable[[np.ndarray | np.float64], np.ndarray | float], sens: float
) -> EstimateResult:
    """Generalized borrowing with a user-supplied mixing function, called on one np.float64."""
    return GeneralizedBorrow(g, sens).result(s)


def est_alasso(s: TwoSampleSummary, tau: float = AdaptiveLasso.tau) -> EstimateResult:
    """Adaptive-lasso estimate: soft-threshold the conflict, then re-pool."""
    return AdaptiveLasso(tau).result(s)


def power_prior_mean(s: TwoSampleSummary, gamma: float) -> EstimateResult:
    """Posterior mean when the external likelihood is tempered by ``gamma``."""
    return FixedPowerPrior(gamma).result(s)


def gamma_hd(s: TwoSampleSummary) -> float:
    """Hellinger-distance power-prior weight (normal-likelihood closed form)."""
    return HellingerPowerPrior().result(s).gamma_est


def gamma_eb(s: TwoSampleSummary) -> float:
    """Empirical-Bayes power-prior weight; clamps to 1 for small conflicts."""
    return EmpiricalBayesPowerPrior().result(s).gamma_est


def est_hdpp(s: TwoSampleSummary) -> EstimateResult:
    return HellingerPowerPrior().result(s)


def est_ebpp(s: TwoSampleSummary) -> EstimateResult:
    return EmpiricalBayesPowerPrior().result(s)


def est_np(s: TwoSampleSummary) -> EstimateResult:
    """Posterior mode under a N(0, 1/n) conflict prior and flat location prior."""
    return NormalPriorBayes().result(s)


def est_lstp(s: TwoSampleSummary, v: int = StudentTPriorBayes.v) -> EstimateResult:
    """Posterior mode under the location-scale t conflict prior.

    The location parameter is profiled out in closed form, leaving a
    one-dimensional problem in the conflict whose stationary points are the
    real roots of a cubic; :func:`lstp_delta_mode` solves it exactly and
    keeps the root with the smallest objective.
    """
    return StudentTPriorBayes(v).result(s)


def est_ltr(s: TwoSampleSummary) -> EstimateResult:
    """Limited-translation rule: the normal-prior Bayes estimate with a capped move."""
    return LimitedTranslation().result(s)


_DISPATCH: dict[type, Callable[[EstimatorConfig, TwoSampleSummary], EstimateResult]] = {
    Mle: lambda c, s: est_mle(s),
    Pooled: lambda c, s: est_pooled(s),
    TestThenPool: lambda c, s: est_ttpool(s, c.c),
    OracleMmse: lambda c, s: est_ommse(s, c.delta_true),
    AdaptiveMmse: lambda c, s: est_ammse(s),
    SensitivityMmse: lambda c, s: est_ammse_s(s, c.sens),
    GeneralizedBorrow: lambda c, s: est_gdib(s, c.g, c.sens),
    AdaptiveLasso: lambda c, s: est_alasso(s, c.tau),
    FixedPowerPrior: lambda c, s: power_prior_mean(s, c.gamma),
    HellingerPowerPrior: lambda c, s: est_hdpp(s),
    EmpiricalBayesPowerPrior: lambda c, s: est_ebpp(s),
    NormalPriorBayes: lambda c, s: est_np(s),
    StudentTPriorBayes: lambda c, s: est_lstp(s, c.v),
    LimitedTranslation: lambda c, s: est_ltr(s),
}


def estimate(config: EstimatorConfig, s: TwoSampleSummary) -> EstimateResult:
    """Single dispatch entry point routing a configuration to its estimator."""
    fn = _DISPATCH.get(type(config))
    if fn is None:
        raise TypeError(f"unknown estimator configuration: {config!r}")
    return fn(config, s)
