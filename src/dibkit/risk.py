"""Finite-sample risk by deterministic quadrature.

MSE of an estimator at a given location/conflict is the double integral of
the squared error against the Gaussian sampling laws of the two sample means,
computed with tensor-product Gauss-Hermite quadrature.  Its relative error
in n * MSE, against ``quad`` at n = 1000, m = 100,000 and sqrt(n) delta in {0,
1.58, 5.06}, is at most: ttpool 3.4e-3, ebpp 4.6e-4, alasso 2.5e-4, ltr 8.4e-5,
hdpp 3.9e-6, ammse 8.5e-10, lstp 3e-13, the rest 1e-15 (srmse: half).  Node pairs whose
product weight is below 1e-25 are skipped: at 128 nodes they are three
quarters of the pairs but hold 3.5e-22 of the weighted mass, so the MSE
moves by ~1e-16 relative.  The MSE is even in the conflict (every correction
is odd, and the kept node pairs are symmetric), so each distinct ``|delta|``
of a batch is evaluated once.  The 1-D nodes and weights are computed once
per node count and kept read-only; the pair table is rebuilt per call.  Each
conflict's finiteness is checked on its MSE alone: a non-finite MSE means a
non-finite error or an overflowed square, and only then are the errors looked
at again, to name the node.  On top of that sit the standardized risk
``sqrt(n * MSE)``, risk curves over a conflict grid, and risk integrated
against a prior on the conflict.  Several priors are integrated in lockstep
(:func:`integrated_srmse_batch`): each refinement pass evaluates the risk once
on the nodes of all of them, and panels the priors share give the same
nodes, which the fold then evaluates once.

Two integrated metrics coexist deliberately: ``integrated_srmse`` averages
the standardized root risk (the tabulated Bayes-risk metric), while ``imse``
averages the raw MSE (the quantity the posterior-mean estimator minimizes).
They are not transforms of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, roots_hermite, stdtr

from ._law import _legendre_panels
from .estimators import (
    EstimatorConfig,
    StudentTPriorBayes,
    _check_finite,
    conflict_correction,
    estimator_id,
)
from .summaries import _check_sizes

__all__ = [
    "NormalPrior",
    "UniformPrior",
    "LaplacePrior",
    "StudentTPrior",
    "PointMassPrior",
    "ConflictPrior",
    "RiskCurve",
    "QuadratureError",
    "NodeEvaluationError",
    "mse_numeric",
    "srmse",
    "srmse_batch",
    "srmse_curve",
    "integrated_srmse",
    "integrated_srmse_batch",
    "imse",
    "table_priors",
    "DEFAULT_NODES",
    "LSTP_NODES",
]

DEFAULT_NODES = 128
LSTP_NODES = 96
MIN_NODES = 64
MAX_NODES = 4096  # the node-pair weight table is MAX_NODES**2 doubles, 128 MiB
# Smallest product weight of a node pair that the MSE sum keeps: 4,136 of
# 16,384 pairs at 128 nodes, 3,072 of 9,216 at 96.  The skipped pairs hold
# sum w_i w_j (1 + x_i^2 + x_j^2) = 3.5e-22 at 128 nodes.
_PAIR_WEIGHT_FLOOR = 1e-25
_TAIL_SPAN = 8.0  # effective support of unbounded priors, in scale units


class QuadratureError(RuntimeError):
    """Outer quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


class NodeEvaluationError(RuntimeError):
    """An estimator returned a non-finite value at a quadrature node."""


# ---------------------------------------------------------------------------
# Conflict priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalPrior:
    mu: float
    var: float

    def __post_init__(self) -> None:
        _check_finite(**vars(self))
        if not self.var > 0:
            raise ValueError("variance must be positive")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-((x - self.mu) ** 2) / (2.0 * self.var)) / math.sqrt(2.0 * math.pi * self.var)

    def support(self) -> tuple[float, float]:
        s = math.sqrt(self.var)
        return (self.mu - _TAIL_SPAN * s, self.mu + _TAIL_SPAN * s)

    def truncation_mass(self) -> float:
        return math.erfc(_TAIL_SPAN / math.sqrt(2.0))


@dataclass(frozen=True)
class UniformPrior:
    a: float
    b: float

    def __post_init__(self) -> None:
        _check_finite(**vars(self))
        if not self.a < self.b:
            raise ValueError("need a < b")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    def truncation_mass(self) -> float:
        return 0.0


@dataclass(frozen=True)
class LaplacePrior:
    loc: float
    scale: float

    def __post_init__(self) -> None:
        _check_finite(**vars(self))
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-np.abs(x - self.loc) / self.scale) / (2.0 * self.scale)

    def support(self) -> tuple[float, float]:
        return (self.loc - _TAIL_SPAN * self.scale, self.loc + _TAIL_SPAN * self.scale)

    def truncation_mass(self) -> float:
        return math.exp(-_TAIL_SPAN)


@dataclass(frozen=True)
class StudentTPrior:
    v: int
    loc: float
    scale: float

    def __post_init__(self) -> None:
        _check_finite(**vars(self))
        if self.v < 3:
            raise ValueError("degrees of freedom must be >= 3")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        v, y = self.v, (x - self.loc) / self.scale
        log_norm = gammaln((v + 1) / 2) - gammaln(v / 2) - 0.5 * (math.log(v) + math.log(math.pi))
        return np.exp(log_norm - (v + 1) / 2 * np.log1p(y * y / v)) / self.scale

    def support(self) -> tuple[float, float]:
        return (self.loc - _TAIL_SPAN * self.scale, self.loc + _TAIL_SPAN * self.scale)

    def truncation_mass(self) -> float:
        return 2.0 * stdtr(self.v, -_TAIL_SPAN)


@dataclass(frozen=True)
class PointMassPrior:
    delta: float

    def __post_init__(self) -> None:
        _check_finite(**vars(self))

    def pdf(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - not integrable
        raise NotImplementedError("point mass has no density; handled specially")

    def support(self) -> tuple[float, float]:
        return (self.delta, self.delta)

    def truncation_mass(self) -> float:
        return 0.0


ConflictPrior = Union[NormalPrior, UniformPrior, LaplacePrior, StudentTPrior, PointMassPrior]


def table_priors(n: int, m: int) -> dict[str, ConflictPrior]:
    """The five benchmark conflict priors used by the Bayes-risk table."""
    _check_sizes(n, m)
    return {
        "pi1": NormalPrior(0.0, 1.0 / n),
        "pi2": NormalPrior(0.0, 3.0 / n + 3.0 / m),
        "pi3": UniformPrior(-1.0, 1.0),
        "pi4": LaplacePrior(0.0, (n + m) ** -0.35),
        "pi5": StudentTPrior(3, 0.0, 1.0 / math.sqrt(n)),
    }


# ---------------------------------------------------------------------------
# Gauss-Hermite MSE
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gh_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``count``-point rule for N(0, 1/2), computed once per count and read-only."""
    x, w = roots_hermite(count)
    w = w / math.sqrt(math.pi)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def default_nodes(config: EstimatorConfig) -> int:
    return LSTP_NODES if isinstance(config, StudentTPriorBayes) else DEFAULT_NODES


def _mse_many(
    config: EstimatorConfig,
    theta: float,
    deltas: np.ndarray,
    n: int,
    m: int,
    nodes: int | None,
) -> np.ndarray:
    """MSE at each conflict in ``deltas`` (vectorized over the weighted node pairs).

    The integrand depends on the data only through the current-mean error
    ``u`` and the observed conflict, so the location ``theta`` cancels; it is
    kept in the signature for the contract's sake and validated as finite.
    Node pairs whose product weight is below ``_PAIR_WEIGHT_FLOOR`` are skipped.

    The MSE is even in the conflict: every correction is odd,
    ``q(-t; -d) = -q(t; d)``, and the kept node pairs are symmetric under
    ``(x_i, x_j) -> (-x_i, -x_j)``.  So each distinct ``|d|`` is evaluated
    once and its value is returned at every conflict with that magnitude.
    """
    _check_finite(theta=theta)
    _check_sizes(n, m)
    nodes = default_nodes(config) if nodes is None else nodes
    if not MIN_NODES <= nodes <= MAX_NODES:
        raise ValueError(f"nodes must lie in [{MIN_NODES}, {MAX_NODES}], got {nodes}")
    deltas = np.asarray(deltas, dtype=float)
    x, w = _gh_nodes(nodes)
    pair_w = w[:, None] * w[None, :]
    i, j = np.nonzero(pair_w >= _PAIR_WEIGHT_FLOOR)
    pair_w = pair_w[i, j]
    u = math.sqrt(2.0 / n) * x[i]  # theta_hat - theta
    v = math.sqrt(2.0 / m) * x[j]  # beta_hat - (theta + delta)
    base = v - u

    signed = deltas.ravel()
    folded, first, back = np.unique(np.abs(signed), return_index=True, return_inverse=True)
    out = np.empty(folded.size)
    with np.errstate(over="ignore", invalid="ignore"):  # caught below as a non-finite value
        for k, d in enumerate(folded):
            q = conflict_correction(config, d + base, n, m, delta_true=d)
            err = u + q
            err *= err
            out[k] = np.dot(pair_w, err)
            if math.isfinite(out[k]):  # every weight is positive, so every error was finite
                continue
            _check_finite(conflict=signed[first[k]])  # a non-finite conflict is named, not a node
            err = u + q
            if np.all(np.isfinite(err)):  # so a square overflowed
                raise FloatingPointError(f"MSE of {estimator_id(config)} at conflict {signed[first[k]]:.6g} overflows a float")
            bad = int(np.flatnonzero(~np.isfinite(err))[0])
            # the mirrored node of the first conflict asked for with this magnitude
            sign = math.copysign(1.0, signed[first[k]])
            raise NodeEvaluationError(
                f"non-finite estimate for {estimator_id(config)} at node "
                f"(theta_hat={theta + sign * u[bad]:.6g}, beta_hat={theta + sign * (d + v[bad]):.6g})"
            )
    return out[back].reshape(deltas.shape)


def mse_numeric(
    config: EstimatorConfig,
    theta: float,
    delta: float,
    n: int,
    m: int,
    nodes: int | None = None,
) -> float:
    """Gauss-Hermite tensor MSE of the estimator at location ``theta`` and conflict ``delta``.

    Its error against ``quad`` is the module's bound for each estimator
    (ttpool's is the largest, 3.4e-3 relative in n * MSE).
    """
    return float(_mse_many(config, theta, np.asarray([delta]), n, m, nodes)[0])


def srmse(
    config: EstimatorConfig,
    theta: float,
    delta: float,
    n: int,
    m: int,
    nodes: int | None = None,
) -> float:
    """Standardized root risk sqrt(n * MSE); equals 1 for the current-data MLE."""
    return math.sqrt(n * mse_numeric(config, theta, delta, n, m, nodes))


def srmse_batch(
    config: EstimatorConfig,
    theta: float,
    deltas: np.ndarray,
    n: int,
    m: int,
    nodes: int | None = None,
) -> np.ndarray:
    return np.sqrt(n * _mse_many(config, theta, np.asarray(deltas, dtype=float), n, m, nodes))


@dataclass(frozen=True)
class RiskCurve:
    """Standardized risk over a conflict grid, keyed by the scaled conflict axis."""

    estimator: str
    sqrt_n_delta: np.ndarray
    srmse: np.ndarray
    nodes: int
    n: int = 0
    m: int = 0
    meta: dict = field(default_factory=dict)


def srmse_curve(
    config: EstimatorConfig,
    n: int,
    m: int,
    delta_grid: np.ndarray,
    nodes: int | None = None,
) -> RiskCurve:
    """Risk curve of one estimator over the given conflict grid."""
    nodes = default_nodes(config) if nodes is None else nodes
    grid = np.asarray(delta_grid, dtype=float)
    values = srmse_batch(config, 0.0, grid, n, m, nodes)
    return RiskCurve(
        estimator=estimator_id(config),
        sqrt_n_delta=math.sqrt(n) * grid,
        srmse=values,
        nodes=nodes,
        n=n,
        m=m,
    )


# ---------------------------------------------------------------------------
# Prior-integrated risk
# ---------------------------------------------------------------------------


def _panel_breakpoints(prior: ConflictPrior, n: int) -> np.ndarray:
    """Graded panel edges: dense at the conflict scale near zero, coarse outside."""
    lo, hi = prior.support()
    pts = {lo, hi}
    if lo < 0.0 < hi:
        pts.add(0.0)
    scale = 1.0 / math.sqrt(n)
    k = 1.0
    while k * scale < max(abs(lo), abs(hi)):
        for candidate in (k * scale, -k * scale):
            if lo < candidate < hi:
                pts.add(candidate)
        k *= 2.0
    return np.array(sorted(pts))


def _integrate_priors(
    config: EstimatorConfig,
    priors: Sequence[ConflictPrior],
    n: int,
    m: int,
    integrand: Callable[[np.ndarray], np.ndarray],
    rel_tol: float,
) -> list[float]:
    """Integral of ``integrand`` against each prior, halving its panels until two passes agree.

    The priors are integrated in lockstep: each pass calls the integrand once,
    on the nodes of every prior still refining, and each prior keeps its own
    convergence test and its own refinement.  A point mass is the integrand
    at its conflict, taken in the first pass.
    """
    _check_sizes(n, m)
    _check_finite(rel_tol=rel_tol)
    if rel_tol < 0:
        raise ValueError(f"rel_tol must be non-negative, got {rel_tol:g}")
    rule = leggauss(24)
    values = [math.nan] * len(priors)  # the first pass has nothing to agree with
    achieved = [math.nan] * len(priors)
    edges = {k: _panel_breakpoints(p, n) for k, p in enumerate(priors) if not isinstance(p, PointMassPrior)}
    pieces = [(k, np.asarray([p.delta]), None) for k, p in enumerate(priors) if isinstance(p, PointMassPrior)]
    for _ in range(3):
        pieces += [(k, *_legendre_panels(e, rule)) for k, e in edges.items()]
        if not pieces:
            break
        f = integrand(np.concatenate([xs for _, xs, _ in pieces]))
        for (k, xs, ws), fk in zip(pieces, np.split(f, np.cumsum([xs.size for _, xs, _ in pieces])[:-1])):
            if ws is None:
                values[k] = float(fk[0])
                continue
            value = float(np.sum(ws * fk * priors[k].pdf(xs)))
            change, scale = abs(value - values[k]), max(abs(value), 1e-12)
            values[k], achieved[k] = value, change / scale
            if change <= rel_tol * scale:
                del edges[k]
            else:
                edges[k] = np.unique(np.concatenate([edges[k], 0.5 * (edges[k][:-1] + edges[k][1:])]))
        pieces = []
    if edges:
        failed = ", ".join(repr(priors[k]) for k in edges)
        raise QuadratureError(
            f"prior integration did not converge for {estimator_id(config)} under {failed}",
            achieved=max(achieved[k] for k in edges),
        )
    return values


def integrated_srmse_batch(
    config: EstimatorConfig,
    priors: Sequence[ConflictPrior],
    n: int,
    m: int,
    nodes: int | None = None,
    *,
    rel_tol: float = 5e-4,
) -> list[float]:
    """Standardized root risk averaged against each conflict prior.

    The same numbers as one :func:`integrated_srmse` call per prior, bit for
    bit, from one risk evaluation per refinement pass over all the priors.
    Unbounded priors are truncated at eight scale units; the lost mass is
    available from ``prior.truncation_mass()``.  ``rel_tol`` bounds the
    change under panel refinement; its default sits above the inner
    quadrature's error floor for estimators with indicator-type corrections.
    """
    return _integrate_priors(config, priors, n, m, lambda d: srmse_batch(config, 0.0, d, n, m, nodes), rel_tol)


def integrated_srmse(
    config: EstimatorConfig,
    prior: ConflictPrior,
    n: int,
    m: int,
    nodes: int | None = None,
    *,
    rel_tol: float = 5e-4,
) -> float:
    """Standardized root risk averaged against the conflict prior.

    The one-prior case of :func:`integrated_srmse_batch`.
    """
    return integrated_srmse_batch(config, [prior], n, m, nodes, rel_tol=rel_tol)[0]


def imse(
    config: EstimatorConfig,
    theta: float,
    prior: ConflictPrior,
    n: int,
    m: int,
    nodes: int | None = None,
    *,
    rel_tol: float = 5e-4,
) -> float:
    """Raw MSE averaged against the conflict prior (posterior-mean optimal metric)."""
    return _integrate_priors(config, [prior], n, m, lambda d: _mse_many(config, theta, d, n, m, nodes), rel_tol)[0]
