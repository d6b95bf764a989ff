"""The conditional-normal law behind every exact number the package reports.

Every estimator is ``theta_hat + q(delta_hat)``.  Given the observed conflict
``delta_hat = t ~ N(delta, 1/n + 1/m)``, ``theta_hat - theta`` is normal with
mean ``-m/(n+m) (t - delta)`` and variance ``1/(n+m)``, so the statistic
``Z = sqrt(n) (estimate - theta0)`` is a normal mixture over ``t`` with
node mean ``sqrt(n) (theta - theta0 + q(t) - m/(n+m) (t - delta))`` and sd
``sqrt(n/(n+m))``.  Under local conflict ``h/sqrt(n)`` and share ``p`` the
same mixture runs over the limit ``xi ~ N(sqrt(1-p) h, 1)`` of the conflict
z-statistic, with node mean ``w(xi) xi / sqrt(1-p) - sqrt(1-p) (xi -
sqrt(1-p) h)`` and sd ``sqrt(p)``, whose borrowing term is the finite
correction at ``n = p``, ``m = 1 - p`` (``limit_borrowing``).  Every law is
held in that one form, node ``weights``, node ``mean`` and one ``sd``:
``P(Z <= z) = sum weights * Phi((z - mean) / sd)`` and ``E Z^2 = sum
weights * (mean^2 + sd^2)``.
Either law is a fixed quadrature: Gauss-Legendre panels over
``+/- _SPAN`` sd of the mixing variable, no wider than ``_PANEL_WIDTH`` sd
and split at the correction's breakpoints.  Its density and second moment
are sums over the same nodes.  The CDF and the density at ``z`` sum only
the nodes whose mean is within ``_BAND`` (12) sd of ``z``, in a window of
the node means in sorted order as wide as the most means any such interval
holds; the nodes below the window count their whole weight in the CDF.
Each node left out is off by less than ``Phi(-12)``, about 1.8e-33, of its
weight in the CDF and ``phi(12) / sd``, about 2.1e-32 / sd, in the density,
and a point's value depends only on ``z`` and the law.  The upper tails
and the quantile solve sum over every node, so that deep tails keep their
relative digits; ``upper_tails`` takes the tails of a batch of laws at one
``z`` in one ``ndtr`` pass, each law summing its own slice.  Its quantiles
are solved in lockstep, any
number of (law, probability) pairs at once, by Newton steps on the log of the
tail that holds the probability (the lower tail up to 1/2, the upper tail
above), kept inside a bracket from each law's own range and bisected when a
step leaves it or stalls; a quantile ``z`` is returned once its step is
within ``_QUANTILE_TOL * (1 + |z|)``.  The panels resolve a smooth
correction to rounding, so ``breakpoints`` (and, for a limit law,
``limit_breakpoints``) must name every kink and jump of ``q``.

A law is made only from its ``weights``, ``mean`` and ``sd``, and only
by two builders: ``conditional_laws`` over a grid of conflicts and
``limit_laws`` over a grid of local conflicts ``h``.  Each is one pass: one
panel computation, one normal-weight expression and one correction call
cover the nodes of every conflict, each node carrying its own conflict.
Every step is elementwise in a node and its conflict, and each law holds its
own contiguous slice, so a law is the same, bit for bit, in any batch; a
single law is a one-conflict batch.

The distance of two laws, ``sup |F - G|``, takes the largest gap on 401
points of the first law's grid and then solves for the extremum beside it:
the gap peaks where the densities cross, so one secant solve of ``f - g = 0``
on the two grid cells around the grid argmax (the same ``bracketed_roots``)
gives the peak to rounding.  A higher peak in another cell, narrower than the
grid spacing, is not searched for.  ``distances`` does this for many pairs,
their grids in one ``grids`` solve and their crossings in one lockstep
solve.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

from .estimators import EstimatorConfig, _check_finite, conflict_correction

_PANEL_RULE = leggauss(12)  # Gauss-Legendre rule on each panel
_PANEL_WIDTH = 0.5  # widest panel, in sd units of the mixing variable
_SPAN = 9.5  # half-width of the integrated range, in the same units
_QUANTILE_TOL = 1e-13  # stop tolerance of a quantile z, times 1 + |z|
_EXTREMUM_TOL = 1e-12  # stop tolerance of the z at which distance's gap peaks
_DISTANCE_POINTS = 401  # grid points on which distance finds the largest gap before it solves for the peak
_MAX_PASSES = 100  # passes of a lockstep root solve before it gives up
_GRID_TAIL = 1e-7  # a law's plotting grid runs between its _GRID_TAIL and 1 - _GRID_TAIL quantiles
_BAND = 12.0  # a law's CDF and density sum only the nodes whose mean is within _BAND sd of z
_BLOCK = 64  # points of z whose node windows are gathered at a time


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
        _check_finite(conflict=bad)
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


def _split(weights: np.ndarray, mean: np.ndarray, sd: float, owner: np.ndarray, count: int) -> list["ConditionalLaw"]:
    """One law per conflict, each over the contiguous slice of the nodes it owns."""
    bounds = np.searchsorted(owner, np.arange(count + 1))
    return [ConditionalLaw(weights[lo:hi], mean[lo:hi], sd) for lo, hi in zip(bounds[:-1], bounds[1:])]


def conditional_laws(estimator: EstimatorConfig, n: int, m: int, shift: float, deltas) -> list["ConditionalLaw"]:
    """The law of Z at ``theta - theta0 = shift`` and each conflict in ``deltas``, built in one pass.

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
    return _split(weights, mean, math.sqrt(n / (n + m)), owner, deltas.size)


def limit_laws(kind: EstimatorConfig, p: float, hs) -> list["ConditionalLaw"]:
    """Local limit law of ``sqrt(n) (estimate - theta)`` at share ``p`` and each conflict ``h/sqrt(n)`` in ``hs``.

    The mixture runs over ``xi ~ N(sqrt(1-p) h, 1)``, its panels split at the
    kind's ``breakpoints(p, 1-p)`` in ``xi`` units and at its
    ``limit_breakpoints``; every ``h`` is built in one pass, as in
    :func:`conditional_laws`.
    """
    hs = np.asarray(hs, dtype=float).ravel()
    r, scale = math.sqrt(1.0 - p), math.sqrt(p * (1.0 - p))
    kinks = [b * scale for b in kind.breakpoints(p, 1.0 - p)] + list(kind.limit_breakpoints or ())
    xi, weights, owner = _normal_panels(r * hs, 1.0, kinks)
    h = hs[owner]
    mean = limit_borrowing(kind, xi, p, h) - r * (xi - r * h)
    return _split(weights, mean, math.sqrt(p), owner, hs.size)


class ConditionalLaw:
    """Law of Z as a fixed quadrature: per node its ``weights`` and the ``mean`` of Z, and one ``sd``.

    Given a node, Z is N(mean, sd^2).  Built by :func:`conditional_laws` and :func:`limit_laws`.
    """

    def __init__(self, weights: np.ndarray, mean: np.ndarray, sd: float) -> None:
        self.weights, self.mean, self.sd = weights, mean, sd

    @cached_property
    def _window(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The node means in sorted order and their weights, padded, the weight below each, and the width.

        The width is the most means in any interval ``2 _BAND sd`` wide, so
        the ``width`` sorted nodes from the first mean at or above ``z -
        _BAND sd`` hold every node within ``_BAND sd`` of ``z``.  Both arrays
        are padded with ``width`` nodes of mean +inf and weight 0, so every
        window has that width.  The law's own ``weights`` and ``mean`` keep
        their node order.
        """
        order = np.argsort(self.mean, kind="stable")
        mean, weights = self.mean[order], self.weights[order]
        width = int(np.max(np.searchsorted(mean, mean + 2.0 * _BAND * self.sd, side="right") - np.arange(mean.size)))
        below = np.concatenate(([0.0], np.cumsum(weights)))
        return np.concatenate((mean, np.full(width, np.inf))), np.concatenate((weights, np.zeros(width))), below, width

    def _window_sums(self, z: float | np.ndarray, kernel) -> tuple[np.ndarray, np.ndarray]:
        """Per point ``z``: the weight of the nodes below its window, and the window's sum of ``w kernel(u)``.

        ``z`` is taken in blocks of ``_BLOCK`` points, so the gathered windows
        stay small; each point's sums depend only on ``z`` and the law.
        """
        mean, weights, below, width = self._window
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        start = np.searchsorted(mean[:-width], zs - _BAND * self.sd)  # first mean >= z - _BAND sd
        # z = +inf meets the padding as the largest float: u = -inf there, not inf - inf
        zs = np.minimum(zs, np.finfo(float).max)
        means, masses = sliding_window_view(mean, width), sliding_window_view(weights, width)
        sums = np.empty(zs.size)
        for lo in range(0, zs.size, _BLOCK):
            rows = start[lo : lo + _BLOCK]
            u = (zs[lo : lo + _BLOCK, None] - means[rows]) / self.sd
            sums[lo : lo + _BLOCK] = np.sum(masses[rows] * kernel(u), axis=-1)
        return below[start], sums

    def cdf(self, z: float | np.ndarray) -> float | np.ndarray:
        """P(Z <= z): the weight of the nodes below ``z``'s window plus the window's ``sum w Phi(u)``.

        Only the nodes whose mean is within ``_BAND`` sd of ``z`` are
        summed; a node below counts its whole weight and a node above none,
        each off by less than ``Phi(-_BAND)``, about 1.8e-33, of its weight.
        ``cdf(-inf)`` is 0 and ``cdf(inf)`` the law's mass.
        """
        below, sums = self._window_sums(z, ndtr)
        out = below + sums
        return out if np.ndim(z) else float(out[0])

    def pdf(self, z: np.ndarray) -> np.ndarray:
        """Density of Z: ``sum w phi(u) / sd`` over the nodes whose mean is within ``_BAND`` sd of ``z``.

        Each node left out adds less than ``phi(_BAND)``, about 2.1e-32, of
        its weight over sd.
        """
        _, sums = self._window_sums(z, lambda u: np.exp(-0.5 * u * u))
        return sums / (self.sd * math.sqrt(2.0 * math.pi))

    def second_moment(self) -> float:
        return float(np.sum(self.weights * (self.mean**2 + self.sd**2)))


def limit_borrowing(kind: EstimatorConfig, xi: np.ndarray, p: float, h: float | np.ndarray) -> np.ndarray:
    """The limit's borrowing term ``w(xi) xi / sqrt(1-p)`` at the limit ``xi`` of the conflict z-statistic.

    Where a kind's correction, in sd units of the conflict statistic, depends
    on ``n`` and ``m`` only through ``p``, the term is ``sqrt(p)`` times its
    correction at ``n = p``, ``m = 1 - p``, ``delta_hat = xi / sqrt(p (1-p))``
    and ``delta = h / sqrt(p)``.  Every kind's does but alasso's and a non-zero
    set oracle conflict's, which have no limit law: their ``limit_breakpoints`` is None.
    """
    if kind.limit_breakpoints is None:
        raise ValueError(f"no closed limit law implemented for {kind.id!r}")
    t = xi / math.sqrt(p * (1.0 - p))
    return math.sqrt(p) * conflict_correction(kind, t, p, 1.0 - p, delta_true=h / math.sqrt(p))


def grids(laws, points: int, probs=()) -> tuple[np.ndarray, np.ndarray]:
    """Each law's ``points``-point plotting grid and its quantiles at ``probs``, a row per law, in one solve.

    A wider batch pads the stacked ``quantiles`` matrix, which can move a quantile's last bit.
    """
    every = (_GRID_TAIL, 1.0 - _GRID_TAIL, *probs)
    values = quantiles([law for law in laws for _ in every], every * len(laws)).reshape(len(laws), len(every))
    return np.linspace(values[:, 0], values[:, 1], points, axis=1), values[:, 2:]


def upper_tails(laws, z: float) -> np.ndarray:
    """P(Z > z) of every law, each summed over the upper tails of all its nodes, from one ``ndtr`` pass.

    Summing the nodes' upper tails, not taking ``1 - cdf``, keeps a small
    probability's relative digits.  The weighted tails of every node of
    every law are one elementwise expression, and each law sums its own
    contiguous slice, so a law's tail is the same, bit for bit, in any batch.
    """
    if not laws:
        return np.zeros(0)
    sizes = [law.weights.size for law in laws]
    weights, mean = np.concatenate([law.weights for law in laws]), np.concatenate([law.mean for law in laws])
    tails = weights * ndtr((mean - z) / np.repeat([law.sd for law in laws], sizes))
    bounds = np.cumsum([0, *sizes])
    return np.array([np.sum(tails[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])])


def distances(laws, others) -> np.ndarray:
    """sup |F - G| of every pair ``(laws[i], others[i])``, each grid from one :func:`grids` solve.

    Each pair takes the largest gap on ``_DISTANCE_POINTS`` points of the
    first law's grid.  Around the grid argmax ``k`` the gap peaks where the
    densities cross, so ``f - g = 0`` is solved on ``[z[k-1], z[k+1]]`` by
    secant steps to ``_EXTREMUM_TOL``, every such pair in one lockstep solve,
    and the larger of the two gaps is returned.  When ``f - g`` has one sign
    on the whole cell there is no crossing to find and the grid gap stands.
    Only the cells beside the grid argmax are searched: a higher peak
    elsewhere, narrower than the grid, is missed.
    """
    zs, _ = grids(laws, _DISTANCE_POINTS)
    gaps = np.array([np.abs(law.cdf(z) - other.cdf(z)) for law, other, z in zip(laws, others, zs)])
    pairs = np.arange(len(laws))
    k = np.argmax(gaps, axis=1)
    best = gaps[pairs, k]
    ends = np.column_stack([zs[pairs, np.maximum(k - 1, 0)], zs[pairs, np.minimum(k + 1, _DISTANCE_POINTS - 1)]])
    lo, hi = np.array([law.pdf(end) - other.pdf(end) for law, other, end in zip(laws, others, ends)]).T
    cross = np.nonzero(lo * hi < 0.0)[0]
    if cross.size == 0:
        return best
    sign = np.where(lo[cross] < 0.0, 1.0, -1.0)  # the solve wants f - g negative at the left end

    def crossing(at: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, None]:
        gap = [laws[i].pdf(z) - others[i].pdf(z) for i, z in zip(cross[rows], at[:, None])]
        return sign[rows] * np.concatenate(gap), None

    left, right = ends[cross, 0], ends[cross, 1]
    start = left - lo[cross] * (right - left) / (hi[cross] - lo[cross])  # the chord's zero, then secant steps
    roots = bracketed_roots(crossing, left, right, start, abs_tol=_EXTREMUM_TOL, rel_tol=0.0,
                            prev=(left, sign * lo[cross]))
    for i, root in zip(cross, roots):
        best[i] = max(best[i], abs(laws[i].cdf(root) - others[i].cdf(root)))
    return best


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
