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
argument.  The borrowing term ``w(xi) xi / sqrt(1-p)`` is the kind's finite
correction at ``n = p``, ``m = 1 - p`` (``_law.limit_borrowing``).  The exact
limit law is the conditional-normal mixture over ``xi`` of :mod:`dibkit._law`;
at ``p = n/(n+m)`` it is the finite law of this Gaussian model to quadrature
error, and the bare form is 0.02-0.4 off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from . import streams
from ._law import limit_borrowing, limit_laws
from .estimators import EstimatorConfig, _check_finite

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
        _check_finite(h=self.h, h_theta=self.h_theta)


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
    return z1 + limit_borrowing(kind, _xi(sc, z1, z2), p, sc.h)


def limit_draw(kind: LimitKind, sc: LocalScenario, rng: np.random.Generator) -> LimitDraw:
    """Draw one normal pair from ``rng`` and map it through the limit law."""
    z1, z2 = rng.standard_normal(2)
    value = float(limit_value(kind, sc, np.asarray(z1), np.asarray(z2)))
    return LimitDraw(value=value, zeta1=float(z1), zeta2=float(z2), xi=float(_xi(sc, z1, z2)))


def limit_sample(
    kind: LimitKind, sc: LocalScenario, size: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Addressed vectorized sample of the limit law (reproducible by seed/stream)."""
    z1, z2 = streams.addressed_normals(seed, stream, 0, 2 * size).reshape(2, size)
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

    Exact: ``sqrt(p/(1-p) + h^2)`` for the external-data MLE and the limit
    law's second moment for every kind with a limit law.  ``draws`` and
    ``seed`` are accepted and have no effect; the standard error reported on
    request is 0.
    """
    if kind == EXTERNAL_MLE:
        root = math.sqrt(sc.p / (1.0 - sc.p) + sc.h * sc.h)
    else:
        root = math.sqrt(limit_laws(kind, sc.p, [sc.h])[0].second_moment())
    return (root, 0.0) if return_stderr else root
