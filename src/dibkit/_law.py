"""The conditional-normal law behind every exact number the package reports.

Every estimator is ``theta_hat + q(delta_hat)``.  Given the observed conflict
``delta_hat = t ~ N(delta, 1/n + 1/m)``, ``theta_hat - theta`` is normal with
mean ``-m/(n+m) (t - delta)`` and variance ``1/(n+m)``, so the statistic
``Z = sqrt(n) (estimate - theta0)`` is a normal mixture over ``t`` with
node mean ``sqrt(n) (theta - theta0 + q(t) - m/(n+m) (t - delta))`` and sd
``sqrt(n/(n+m))``.  Under local conflict ``h/sqrt(n)`` and share ``p`` the
same mixture runs over the limit ``xi ~ N(sqrt(1-p) h, 1)`` of the conflict
z-statistic, with node mean ``w(xi) xi / sqrt(1-p) - sqrt(1-p) (xi -
sqrt(1-p) h)`` and sd ``sqrt(p)``.  Every law is held in that one form, node
``weights``, node ``mean`` and one ``sd``: ``P(Z <= z) = sum weights *
Phi((z - mean) / sd)`` and ``E Z^2 = sum weights * (mean^2 + sd^2)``.
Either law is a fixed quadrature: Gauss-Legendre panels over
``+/- _SPAN`` sd of the mixing variable, no wider than ``_PANEL_WIDTH`` sd
and split at the correction's breakpoints.  Its density and second moment
are sums over the same nodes.  Its quantiles are solved in lockstep, any
number of (law, probability) pairs at once, by Newton steps on the log of the
tail that holds the probability (the lower tail up to 1/2, the upper tail
above), kept inside a bracket from each law's own range and bisected when a
step leaves it or stalls; a quantile ``z`` is returned once its step is
within ``_QUANTILE_TOL * (1 + |z|)``.  The panels resolve a smooth
correction to rounding, so ``breakpoints`` and ``limit_breakpoints`` must
name every kink and jump of ``q``.

The laws over a grid of conflicts are built in one pass,
``conditional_laws``, and a single ``ConditionalLaw`` is its one-conflict
case: one panel computation, one normal-weight expression and one correction
call cover the nodes of every conflict, each node carrying its own conflict.
Every step is elementwise in a node and its conflict, and each law sums over
its own contiguous slice, so the laws equal those built one by one, bit for
bit.

The distance of two laws, ``sup |F - G|``, takes the largest gap on 401
points of the first law's grid and then solves for the extremum beside it:
the gap peaks where the densities cross, so one secant solve of ``f - g = 0``
on the two grid cells around the grid argmax (the same ``bracketed_roots``)
gives the peak to rounding.  A higher peak in another cell, narrower than the
grid spacing, is not searched for.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

from .estimators import EstimatorConfig, conflict_correction

_PANEL_RULE = leggauss(12)  # Gauss-Legendre rule on each panel
_PANEL_WIDTH = 0.5  # widest panel, in sd units of the mixing variable
_SPAN = 9.5  # half-width of the integrated range, in the same units
_QUANTILE_TOL = 1e-13  # stop tolerance of a quantile z, times 1 + |z|
_EXTREMUM_TOL = 1e-12  # stop tolerance of the z at which distance's gap peaks
_MAX_PASSES = 100  # passes of a lockstep root solve before it gives up
_GRID_TAIL = 1e-7  # a law's plotting grid runs between its _GRID_TAIL and 1 - _GRID_TAIL quantiles


def _panels(
    a: np.ndarray, b: np.ndarray, rule: tuple[np.ndarray, np.ndarray], max_width: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of ``rule`` on every panel ``(a[i], b[i])``, and the ``i`` of each piece.

    Each panel is cut into the fewest equal pieces no wider than
    ``max_width``, at the points ``np.linspace`` would give.  Every step is
    elementwise in a panel's own ends, so a panel's nodes do not depend on
    the panels computed beside it.
    """
    pieces = np.maximum(1, np.ceil((b - a) / max_width)).astype(int)
    panel = np.repeat(np.arange(a.size), pieces)
    k = np.arange(panel.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    step = (b - a) / pieces
    lo = k * step[panel] + a[panel]
    hi = np.where(k + 1 == pieces[panel], b[panel], (k + 1) * step[panel] + a[panel])
    half = 0.5 * (hi - lo)
    return (half[:, None] * rule[0] + 0.5 * (lo + hi)[:, None]).ravel(), (half[:, None] * rule[1]).ravel(), panel


def _legendre_panels(edges: np.ndarray, rule: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``rule`` on every panel between sorted ``edges``."""
    edges = np.asarray(edges, dtype=float)
    return _panels(edges[:-1], edges[1:], rule, math.inf)[:2]


def _normal_panels(centers, sd: float, kinks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel nodes over each ``center +/- _SPAN sd`` split at the kinks inside, weighted by N(center, sd^2).

    Returns the nodes of every center, in the order of the centers, their
    weights and the index of each node's center.
    """
    centers = np.asarray(centers, dtype=float)
    lo, hi = centers - _SPAN * sd, centers + _SPAN * sd
    spans = lo < hi
    if not spans.all():
        bad = centers[np.argmin(spans)]
        raise ValueError(f"conflict span {bad:g} +/- {_SPAN:g} * {sd:g} rounds to a single point")
    # row i: lo, every kink clipped into [lo, hi], hi; a clipped kink only adds empty panels, dropped
    edges = np.empty((centers.size, len(kinks) + 2))
    edges[:, 0], edges[:, -1] = lo, hi
    edges[:, 1:-1] = np.minimum(np.maximum(sorted(kinks), lo[:, None]), hi[:, None])
    nonempty = edges[:, :-1] < edges[:, 1:]
    row = np.nonzero(nonempty)[0]
    t, w, panel = _panels(edges[:, :-1][nonempty], edges[:, 1:][nonempty], _PANEL_RULE, _PANEL_WIDTH * sd)
    owner = np.repeat(row[panel], _PANEL_RULE[0].size)
    center = centers[owner]
    return t, w * (np.exp(-((t - center) ** 2) / (2.0 * sd * sd)) / (sd * math.sqrt(2.0 * math.pi))), owner


def conditional_laws(estimator: EstimatorConfig, n: int, m: int, shift: float, deltas) -> list["ConditionalLaw"]:
    """``[ConditionalLaw(estimator, n, m, shift, d) for d in deltas]``, equal bit for bit, built in one pass.

    The panels of every conflict, the normal weights, the correction (whose
    ``delta_true`` is each node's own conflict) and the node means are each
    one vectorized expression over all the nodes; every step is elementwise
    in a node and its conflict, and each law holds its own contiguous slice.
    """
    deltas = np.asarray(deltas, dtype=float).ravel()
    t, weights, owner = _normal_panels(deltas, math.sqrt(1.0 / n + 1.0 / m), estimator.breakpoints(n, m))
    d = deltas[owner]
    q = conflict_correction(estimator, t, n, m, delta_true=d)
    mean = math.sqrt(n) * (shift + q - (m / (n + m)) * (t - d))
    bounds = np.searchsorted(owner, np.arange(deltas.size + 1))
    laws = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        law = ConditionalLaw.__new__(ConditionalLaw)
        law.weights, law.mean, law.sd = weights[lo:hi], mean[lo:hi], math.sqrt(n / (n + m))
        laws.append(law)
    return laws


class ConditionalLaw:
    """Law of Z at one truth, as a fixed quadrature over the conflict statistic.

    ``shift`` is ``theta - theta0``.  Holds, per panel node ``t``, its
    ``weights`` (the rule's weight times the normal density of ``t``) and
    the ``mean`` of Z given ``t``, ``sqrt(n) (shift + q(t) - m/(n+m) (t -
    delta))``, and one ``sd``, ``sqrt(n/(n+m))``: given ``t``, Z is
    N(mean, sd^2).  It is the one-conflict case of :func:`conditional_laws`.
    """

    def __init__(self, estimator: EstimatorConfig, n: int, m: int, shift: float, delta: float) -> None:
        (law,) = conditional_laws(estimator, n, m, shift, [delta])
        vars(self).update(vars(law))

    def _u(self, z: float | np.ndarray) -> np.ndarray:
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        return (zs[:, None] - self.mean) / self.sd

    def cdf(self, z: float | np.ndarray) -> float | np.ndarray:
        out = np.sum(self.weights * ndtr(self._u(z)), axis=-1)
        return out if np.ndim(z) else float(out[0])

    def sf(self, z: float) -> float:
        """P(Z > z), summed over upper tails so that small probabilities keep their digits."""
        return float(np.sum(self.weights * ndtr(-self._u(z))))

    def pdf(self, z: np.ndarray) -> np.ndarray:
        phi = np.exp(-0.5 * self._u(z) ** 2) / (self.sd * math.sqrt(2.0 * math.pi))
        return np.sum(self.weights * phi, axis=-1)

    def quantiles(self, probs) -> np.ndarray:
        return quantiles([self] * len(probs), probs)

    def second_moment(self) -> float:
        return float(np.sum(self.weights * (self.mean**2 + self.sd**2)))

    def grid(self, points: int) -> np.ndarray:
        grid, _ = grids([self], points)
        return grid[0]

    def distance(self, other: "ConditionalLaw") -> float:
        """sup |F - G|: the largest gap on 401 points of this law's grid, refined to the extremum beside it.

        Around the grid argmax ``k`` the gap peaks where the densities cross,
        so ``f - g = 0`` is solved on ``[z[k-1], z[k+1]]`` by secant steps to
        ``_EXTREMUM_TOL``, and the larger of the two gaps is returned.  When
        ``f - g`` has one sign on the whole cell there is no crossing to find
        and the grid gap stands.  Only the cells beside the grid argmax are
        searched: a higher peak elsewhere, narrower than the grid, is missed.
        """
        z = self.grid(401)
        gap = np.abs(self.cdf(z) - other.cdf(z))
        k = int(np.argmax(gap))
        ends = np.array([z[max(k - 1, 0)], z[min(k + 1, z.size - 1)]])
        lo, hi = self.pdf(ends) - other.pdf(ends)
        if not lo * hi < 0.0:
            return float(gap[k])
        sign = 1.0 if lo < 0.0 else -1.0  # the solve wants f - g negative at the left end

        def crossing(at: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, None]:
            return sign * (self.pdf(at) - other.pdf(at)), None

        start = ends[0] - lo * (ends[1] - ends[0]) / (hi - lo)  # the chord's zero, then secant steps
        (root,) = bracketed_roots(crossing, ends[:1], ends[1:], [start], abs_tol=_EXTREMUM_TOL, rel_tol=0.0,
                                  prev=([ends[0]], [sign * lo]))
        return float(max(gap[k], abs(self.cdf(root) - other.cdf(root))))


class LimitLaw(ConditionalLaw):
    """Local limit law of ``sqrt(n) (estimate - theta)`` at conflict ``h/sqrt(n)`` and share ``p``."""

    def __init__(self, kind: EstimatorConfig, p: float, h: float) -> None:
        r = math.sqrt(1.0 - p)
        xi, self.weights, _ = _normal_panels([r * h], 1.0, kind.limit_breakpoints)
        self.mean = kind.limit_weight(xi, p, h) * (xi / r) - r * (xi - r * h)
        self.sd = math.sqrt(p)


def grids(laws, points: int, probs=()) -> tuple[np.ndarray, np.ndarray]:
    """Each law's ``points``-point plotting grid and its quantiles at ``probs``, a row per law, in one solve.

    A wider batch pads the stacked ``quantiles`` matrix, which can move a quantile's last bit.
    """
    every = (_GRID_TAIL, 1.0 - _GRID_TAIL, *probs)
    values = quantiles([law for law in laws for _ in every], every * len(laws)).reshape(len(laws), len(every))
    return np.linspace(values[:, 0], values[:, 1], points, axis=1), values[:, 2:]


def bracketed_roots(fun, lo, hi, z, *, abs_tol: float, rel_tol: float, prev=None) -> np.ndarray:
    """Roots of functions that are negative at ``lo`` and positive at ``hi``, one per row, in lockstep.

    ``fun(z, rows)`` gives the values at ``z`` of the still-open ``rows`` and
    their slopes, or None for slopes to take secant steps through each row's
    previous point (``prev``, a pair of arrays, else the first step bisects).
    Each bracket shrinks to the evaluated point on the root's side, and a
    step that would leave it, or that is not at most half the row's last
    move, bisects.  A row closes when its step or its bracket is within
    ``abs_tol + rel_tol * |z|``; rows still open after ``_MAX_PASSES`` raise
    FloatingPointError, so no unconverged value is returned.
    """
    lo, hi, z = (np.array(v, dtype=float) for v in (lo, hi, z))
    z_prev, g_prev = np.full((2, z.size), np.nan) if prev is None else np.array(prev, dtype=float)
    moved = hi - lo
    rows = np.arange(z.size)
    for _ in range(_MAX_PASSES):
        at = z[rows]
        g, slope = fun(at, rows)
        if np.any(np.isnan(g)):
            raise FloatingPointError(f"root solve met a nan value at {at[np.isnan(g)]}")
        lo[rows] = np.where(g <= 0.0, at, lo[rows])
        hi[rows] = np.where(g >= 0.0, at, hi[rows])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if slope is None:
                step = g * (at - z_prev[rows]) / (g - g_prev[rows])
                z_prev[rows], g_prev[rows] = at, g
            else:
                step = g / slope
        new, a, b = at - step, lo[rows], hi[rows]
        tol = abs_tol + rel_tol * np.abs(at)
        close = np.abs(step) <= tol
        # landing on an evaluated end, or a move that does not halve, could cycle
        take = close | ((new > a) & (new < b) & (np.abs(step) <= 0.5 * moved[rows]))
        new = np.where(take, np.clip(new, a, b), 0.5 * (a + b))
        z[rows], moved[rows] = new, np.abs(new - at)
        rows = rows[~close & (b - a > tol)]
        if rows.size == 0:
            return z
    raise FloatingPointError(
        f"{rows.size} roots not within tolerance after {_MAX_PASSES} passes, brackets "
        f"{np.column_stack([lo[rows], hi[rows]]).tolist()}"
    )


def quantiles(laws, probs) -> np.ndarray:
    """Quantile ``probs[i]`` of ``laws[i]`` for every ``i``, solved in lockstep.

    The node weights and means of the laws are stacked into one matrix padded
    with zero weights, so each pass is one vectorized sum.  A probability
    above 1/2 is solved on the upper tail, where its complement keeps all its
    digits.  Each pass takes a Newton step on the log of that tail, whose
    slope is the density over the tail, both sums over the same nodes.  The
    bracket reaches past the extreme node means by ``1 - ndtri(tail)`` of the
    law's sd, beyond which every node's tail is below the target.  The start
    is the law's mean plus its sd times the normal quantile.
    """
    probs = np.asarray(probs, dtype=float)
    if not np.all((probs > 0.0) & (probs < 1.0)):
        raise ValueError(f"quantile probabilities must lie in (0, 1), got {probs}")
    sign = np.where(probs > 0.5, -1.0, 1.0)  # the tail solved is sum w ndtr(sign * u)
    target = np.where(probs > 0.5, 1.0 - probs, probs)
    reach = 1.0 - ndtri(target)
    size = max((law.weights.size for law in laws), default=0)
    w, mean = np.zeros((len(laws), size)), np.zeros((len(laws), size))
    for i, law in enumerate(laws):
        w[i, : law.weights.size], mean[i, : law.weights.size] = law.weights, law.mean
    sd = np.array([law.sd for law in laws])
    real = np.arange(size) < np.array([law.weights.size for law in laws])[:, None]
    lo = np.min(mean, axis=1, where=real, initial=np.inf) - reach * sd
    hi = np.max(mean, axis=1, where=real, initial=-np.inf) + reach * sd
    mass = np.sum(w, axis=1)
    mu = np.sum(w * mean, axis=1) / mass
    spread = np.sqrt(np.sum(w * (mean - mu[:, None]) ** 2, axis=1) / mass + sd * sd)
    start = np.clip(mu + spread * ndtri(probs), lo, hi)

    def log_tail(z: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = (z[:, None] - mean[rows]) / sd[rows, None]  # a node's standardized Z
        tail = np.sum(w[rows] * ndtr(sign[rows, None] * u), axis=1)
        dens = np.sum(w[rows] * np.exp(-0.5 * u * u), axis=1) / (sd[rows] * math.sqrt(2.0 * math.pi))
        with np.errstate(divide="ignore", invalid="ignore"):
            return sign[rows] * np.log(tail / target[rows]), dens / tail

    return bracketed_roots(log_tail, lo, hi, start, abs_tol=_QUANTILE_TOL, rel_tol=_QUANTILE_TOL)
