"""Limit laws of the borrowing estimators under local conflict.

The large-sample regime scales the conflict as ``h / sqrt(n)`` and lets the
current-data share ``n/(n+m)`` converge to ``p``.  Every supported limit law
is a deterministic map of a standard normal pair ``(zeta1, zeta2)`` through

    xi = sqrt(1-p) * (h - zeta1) + sqrt(p) * zeta2,

which is the limit of the conflict z-statistic.  The per-draw maps are exact,
so coupled comparisons across estimators (same underlying pair) are valid,
not just equality in distribution.

Mixing-weight form: the scaled estimation error converges to
``zeta1 + w(xi) * xi / sqrt(1-p)`` where ``w`` is the limit of the
finite-sample mixing weight.  The bare displayed form ``zeta1 + g(.) * xi``
drops the ``1/sqrt(1-p)`` carried by the conflict scaling in the underlying
argument; the proof-consistent form used here matches finite-sample draws to
Kolmogorov-Smirnov distance well under 0.02 at realistic sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from . import streams
from .estimators import EstimatorConfig, Mle, Pooled

__all__ = [
    "LocalScenario",
    "LimitDraw",
    "NormalLaw",
    "EXTERNAL_MLE",
    "limit_value",
    "limit_draw",
    "limit_sample",
    "limit_law_theorem4",
    "limit_srmse",
]

EXTERNAL_MLE: Literal["external-mle"] = "external-mle"
LimitKind = Union[EstimatorConfig, Literal["external-mle"]]


@dataclass(frozen=True)
class LocalScenario:
    """Local-asymptotic regime: conflict ``h/sqrt(n)``, share ``p``, local location ``h_theta``."""

    h: float
    p: float
    h_theta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly inside (0, 1)")
        if not (math.isfinite(self.h) and math.isfinite(self.h_theta)):
            raise ValueError("h and h_theta must be finite")


@dataclass(frozen=True)
class LimitDraw:
    """One draw of the scaled estimation error together with its normal pair."""

    value: float
    zeta1: float
    zeta2: float
    xi: float


@dataclass(frozen=True)
class NormalLaw:
    mean: float
    variance: float


def _xi(sc: LocalScenario, zeta1: np.ndarray, zeta2: np.ndarray) -> np.ndarray:
    return math.sqrt(1.0 - sc.p) * (sc.h - zeta1) + math.sqrt(sc.p) * zeta2


def limit_value(
    kind: LimitKind, sc: LocalScenario, zeta1: np.ndarray, zeta2: np.ndarray
) -> np.ndarray:
    """Scaled-error limit evaluated at given standard normal pairs (vectorized)."""
    z1 = np.asarray(zeta1, dtype=float)
    z2 = np.asarray(zeta2, dtype=float)
    p = sc.p
    if kind == EXTERNAL_MLE:
        return math.sqrt(p / (1.0 - p)) * z2 + sc.h
    xi = _xi(sc, z1, z2)
    return z1 + kind.limit_weight(xi, p, sc.h) * (xi / math.sqrt(1.0 - p))


def limit_draw(kind: LimitKind, sc: LocalScenario, rng: np.random.Generator) -> LimitDraw:
    """Draw one normal pair from ``rng`` and map it through the limit law."""
    z1, z2 = rng.standard_normal(2)
    value = float(limit_value(kind, sc, np.asarray(z1), np.asarray(z2)))
    return LimitDraw(value=value, zeta1=float(z1), zeta2=float(z2), xi=float(_xi(sc, z1, z2)))


def limit_sample(
    kind: LimitKind, sc: LocalScenario, size: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Addressed vectorized sample of the limit law (reproducible by seed/stream)."""
    z1 = streams.addressed_normals(seed, stream, 0, size)
    z2 = streams.addressed_normals(seed, stream, size, size)
    return limit_value(kind, sc, z1, z2)


def limit_law_theorem4(sc: LocalScenario) -> NormalLaw:
    """Common normal limit of the pooled, adaptive-lasso and n-tied-sensitivity estimators."""
    return NormalLaw(mean=(1.0 - sc.p) * sc.h, variance=sc.p)


def limit_srmse(
    kind: LimitKind,
    sc: LocalScenario,
    draws: int,
    seed: int = 0,
    *,
    return_stderr: bool = False,
) -> float | tuple[float, float]:
    """Root mean squared scaled error of the limit law.

    Exact for the current-data MLE (always 1) and for the pooled/theorem-4
    normal limit; Monte Carlo with ``draws`` addressed samples otherwise.
    The standard error of the root is reported when requested (0 for the
    exact cases).
    """
    if isinstance(kind, Mle):
        return (1.0, 0.0) if return_stderr else 1.0
    if isinstance(kind, Pooled):
        exact = math.sqrt(sc.p + (1.0 - sc.p) ** 2 * sc.h * sc.h)
        return (exact, 0.0) if return_stderr else exact
    vals = limit_sample(kind, sc, draws, seed)
    sq = vals * vals
    mean_sq = float(np.mean(sq))
    root = math.sqrt(mean_sq)
    if not return_stderr:
        return root
    se_mean_sq = float(np.std(sq, ddof=1)) / math.sqrt(draws)
    se_root = se_mean_sq / (2.0 * root) if root > 0 else float("nan")
    return root, se_root
