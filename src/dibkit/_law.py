"""The conditional-normal law behind every exact number the package reports.

Every estimator is ``theta_hat + q(delta_hat)``.  Given the observed conflict
``delta_hat = t ~ N(delta, 1/n + 1/m)``, ``theta_hat - theta`` is normal with
mean ``-m/(n+m) (t - delta)`` and variance ``1/(n+m)``, so the statistic
``Z = sqrt(n) (estimate - theta0)`` is a normal mixture over ``t``:

    P(Z <= z) = E_t[ Phi( sqrt(n+m) * (z/sqrt(n) - (theta-theta0) - q(t)
                                       + m/(n+m) * (t - delta)) ) ].

Under local conflict ``h/sqrt(n)`` and share ``p`` the same mixture runs over
the limit ``xi ~ N(sqrt(1-p) h, 1)`` of the conflict z-statistic, with
conditional mean ``w(xi) xi / sqrt(1-p) - sqrt(1-p) (xi - sqrt(1-p) h)`` and
variance ``p``.  Either law is a fixed quadrature: Gauss-Legendre panels over
``+/- _SPAN`` sd of the mixing variable, no wider than ``_PANEL_WIDTH`` sd
and split at the correction's breakpoints.  Its density and second moment
are sums over the same nodes, and its quantiles invert it numerically.  The
panels resolve a smooth correction to rounding, so ``breakpoints`` and
``limit_breakpoints`` must name every kink and jump of ``q``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import ndtr

from .estimators import EstimatorConfig, conflict_correction

_PANEL_RULE = leggauss(12)  # Gauss-Legendre rule on each panel
_PANEL_WIDTH = 0.5  # widest panel, in sd units of the mixing variable
_SPAN = 9.5  # half-width of the integrated range, in the same units


def _legendre_panels(
    edges: np.ndarray, rule: tuple[np.ndarray, np.ndarray], max_width: float = math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``rule`` on every panel between sorted ``edges``.

    Each panel is cut into the fewest equal pieces no wider than
    ``max_width``, at the points ``np.linspace`` would give.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    pieces = np.maximum(1, np.ceil((b - a) / max_width)).astype(int)
    panel = np.repeat(np.arange(a.size), pieces)
    k = np.arange(panel.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    step = (b - a) / pieces
    lo = k * step[panel] + a[panel]
    hi = np.where(k + 1 == pieces[panel], b[panel], (k + 1) * step[panel] + a[panel])
    half = 0.5 * (hi - lo)
    return (half[:, None] * rule[0] + 0.5 * (lo + hi)[:, None]).ravel(), (half[:, None] * rule[1]).ravel()


def _normal_panels(center: float, sd: float, kinks) -> tuple[np.ndarray, np.ndarray]:
    """Panel nodes over ``center +/- _SPAN sd`` split at the kinks inside, weighted by N(center, sd^2)."""
    lo, hi = center - _SPAN * sd, center + _SPAN * sd
    if not lo < hi:
        raise ValueError(f"conflict span {center:g} +/- {_SPAN:g} * {sd:g} rounds to a single point")
    t, w = _legendre_panels(sorted({lo, hi, *(b for b in kinks if lo < b < hi)}), _PANEL_RULE, _PANEL_WIDTH * sd)
    return t, w * (np.exp(-((t - center) ** 2) / (2.0 * sd * sd)) / (sd * math.sqrt(2.0 * math.pi)))


class ConditionalLaw:
    """Law of Z at one truth, as a fixed quadrature over the conflict statistic.

    ``shift`` is ``theta - theta0``.  Holds, per panel node ``t``, its weight
    times the normal density of ``t``, the correction ``q(t)`` (whose range
    brackets the quantiles) and the offset ``m/(n+m) (t - delta) - q(t) -
    shift`` of the standardized conditional mean.  Given ``t``, Z is
    N(-root_n inner, root_n^2 / root_nm^2).
    """

    def __init__(self, estimator: EstimatorConfig, n: int, m: int, shift: float, delta: float) -> None:
        t, self.weights = _normal_panels(delta, math.sqrt(1.0 / n + 1.0 / m), estimator.breakpoints(n, m))
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

    def distance(self, other: "ConditionalLaw") -> float:
        """sup |F - G| on 401 points of this law's grid, then 401 more around the largest gap."""
        z = self.grid(401)
        gap = np.abs(self.cdf(z) - other.cdf(z))
        k = int(np.argmax(gap))
        z = np.linspace(z[max(k - 1, 0)], z[min(k + 1, z.size - 1)], 401)
        return float(max(gap[k], np.max(np.abs(self.cdf(z) - other.cdf(z)))))


class LimitLaw(ConditionalLaw):
    """Local limit law of ``sqrt(n) (estimate - theta)`` at conflict ``h/sqrt(n)`` and share ``p``."""

    def __init__(self, kind: EstimatorConfig, p: float, h: float) -> None:
        r = math.sqrt(1.0 - p)
        xi, self.weights = _normal_panels(r * h, 1.0, kind.limit_breakpoints)
        self.q = kind.limit_weight(xi, p, h) * (xi / r)
        self.inner = r * (xi - r * h) - self.q
        self.root_n, self.root_nm = 1.0, 1.0 / math.sqrt(p)
