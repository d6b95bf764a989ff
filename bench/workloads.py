"""The benchmark's workloads: which artifacts each one makes, and their inputs.

Every CLI step runs ``dibkit.cli.run`` in-process on a generated JSON config
at the subcommand's default desk-scale sizes.  The workload seed only picks
the master seed handed to the program and the order of the estimators (and
priors) in the config; it never changes how much work a step does, so the
per-layer counts repeat exactly across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

import dibkit
from dibkit import cli


@dataclass(frozen=True)
class Step:
    name: str  # CLI subcommand, or "estimate-sweep" for the library sweep
    metric: str  # per-step end-to-end metric name


# The first step of each workload is reported as primary_step_adj_s and the second
# as secondary_step_adj_s, so that every workload reports the same metric names.
WORKLOADS: dict[str, tuple[Step, ...]] = {
    "quadrature": (
        Step("bayes-risk-table", "bayes_risk_table_s"),
        Step("srmse-curve", "srmse_curve_s"),
    ),
    "testing": (
        Step("power", "power_s"),
        Step("example-prams", "example_prams_s"),
        Step("estimate-sweep", "estimate_sweep_s"),
    ),
    "simulation": (
        Step("densities", "densities_s"),
        Step("asymptotics-check", "asymptotics_check_s"),
    ),
}

# The CLI's default estimator and prior lists, fixed here so that a change of
# default does not change the workload.
_TABLE = ("mle", "pooled", "np", "ammse", "ttpool", "alasso", "ebpp", "hdpp", "ltr", "lstp", "ommse")
_DEFAULT_ESTIMATORS = {
    "srmse-curve": _TABLE,
    "bayes-risk-table": _TABLE,
    "power": ("mle", "pooled", "ammse", "ebpp", "hdpp", "ttpool", "alasso", "np", "ltr"),
    "densities": _TABLE[:-1],
    "asymptotics-check": ("mle", "pooled", "ttpool", "ammse", "ebpp", "hdpp"),
}
_DEFAULT_PRIORS = ("pi1", "pi2", "pi3", "pi4", "pi5")

SWEEP_SUMMARIES = 400


def step_config(step: str, seed: int) -> dict[str, Any]:
    """JSON config for one CLI step: defaults, plus seed-chosen master seed and order."""
    rng = random.Random(f"{step}:{seed}")
    cfg: dict[str, Any] = {"seed": rng.randrange(1, 2**31 - 1), "workers": 1}
    if step in _DEFAULT_ESTIMATORS:
        names = list(_DEFAULT_ESTIMATORS[step])
        rng.shuffle(names)
        cfg["estimators"] = names
    if step == "bayes-risk-table":
        priors = list(_DEFAULT_PRIORS)
        rng.shuffle(priors)
        cfg["priors"] = priors
    return cfg


def run_cli_step(step: str, cfg: dict[str, Any], out_dir: str) -> tuple[int, float]:
    """Run one subcommand in-process; returns its exit code and wall time."""
    os.makedirs(out_dir, exist_ok=True)
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(dict(cfg, out_dir=out_dir), fh)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        rc = cli.run([step, "--config", config_path])
        elapsed = time.perf_counter() - start
    os.remove(config_path)
    return rc, elapsed


# -- the scalar estimate sweep ------------------------------------------------


@dataclass
class SweepResult:
    configs: list[Any]
    summaries: list[Any]
    results: list[list[float]]  # [summary][config] theta_est


def _g_reciprocal(x):
    return 1.0 / (1.0 + x)


def sweep_configs() -> list[Any]:
    """One configuration of every estimator kind."""
    return [
        dibkit.Mle(),
        dibkit.Pooled(),
        dibkit.TestThenPool(c=3.84),
        dibkit.OracleMmse(delta_true=0.02),
        dibkit.AdaptiveMmse(),
        dibkit.SensitivityMmse(sens=0.4),
        dibkit.GeneralizedBorrow(g=_g_reciprocal, sens=1.0),
        dibkit.AdaptiveLasso(tau=0.25),
        dibkit.FixedPowerPrior(gamma=0.5),
        dibkit.HellingerPowerPrior(),
        dibkit.EmpiricalBayesPowerPrior(),
        dibkit.NormalPriorBayes(),
        dibkit.StudentTPriorBayes(v=3),
        dibkit.LimitedTranslation(),
    ]


def sweep_summaries(seed: int, count: int = SWEEP_SUMMARIES) -> list[dibkit.TwoSampleSummary]:
    """Seeded two-sample summaries spanning small to large conflicts."""
    rng = random.Random(f"estimate-sweep:{seed}")
    out = []
    for _ in range(count):
        n = rng.randint(20, 2000)
        m = n * rng.randint(1, 100)
        theta = rng.uniform(-1.0, 1.0)
        delta = rng.choice((0.0, 1.0, 3.0, 8.0)) * rng.gauss(0.0, 1.0) / math.sqrt(n)
        theta_hat = theta + rng.gauss(0.0, 1.0) / math.sqrt(n)
        beta_hat = theta + delta + rng.gauss(0.0, 1.0) / math.sqrt(m)
        out.append(dibkit.TwoSampleSummary(theta_hat, n, beta_hat, m))
    return out


def run_sweep(seed: int, count: int = SWEEP_SUMMARIES) -> tuple[SweepResult, float]:
    """Every estimator on every summary through ``dibkit.estimate``; returns results and wall time."""
    configs = sweep_configs()
    summaries = sweep_summaries(seed, count)
    estimate: Callable = dibkit.estimate  # looked up now, so a tracer's wrapper is used
    start = time.perf_counter()
    results = [[estimate(c, s).theta_est for c in configs] for s in summaries]
    elapsed = time.perf_counter() - start
    return SweepResult(configs, summaries, results), elapsed
