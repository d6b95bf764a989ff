"""Command-line front end: every tabulated/plotted artifact as CSV (and SVG).

Each subcommand is a pure function of its effective configuration: values
come from built-in defaults, overridden by an optional JSON config file,
overridden by explicit flags.  Unknown config keys are rejected and the
effective configuration is echoed to stdout, so runs are self-describing.
CSV output uses LF line endings, '.' decimals and %.12g floats; repeated
runs produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  Errors
are also emitted as one-line JSON records on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import testing
from .asymptotics import LocalScenario, limit_sample
from .estimators import (
    EstimatorConfig,
    OracleMmse,
    SensitivityMmse,
    config_from_id,
    estimator_id,
)
from .montecarlo import SimPlan, bootstrap_ci, ks_distance, simulate
from .risk import (
    MIN_NODES,
    NodeEvaluationError,
    QuadratureError,
    integrated_srmse,
    srmse_curve,
    table_priors,
)
from .summaries import BinomialRaw, TwoSampleSummary, from_raw_binomial, standardized_two_sample
from .svg import Series, emit_plot
from .testing import AllDelta, DeltaBounded, DeltaZero, TestSpec

__all__ = ["main", "run"]

ENV_OUT_DIR = "DIBKIT_OUTPUT_DIR"

TABLE_ESTIMATORS = (
    "mle", "pooled", "np", "ammse", "ttpool", "alasso", "ebpp", "hdpp", "ltr", "lstp", "ommse",
)
DENSITY_ESTIMATORS = (
    "mle", "pooled", "np", "ammse", "ttpool", "alasso", "ebpp", "hdpp", "ltr", "lstp",
)
KS_ESTIMATORS = ("mle", "pooled", "ttpool", "ammse", "ebpp", "hdpp")


class ConfigError(ValueError):
    pass


def _from_config(factory: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Build a library object from config values; its validation errors are config errors."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class Option:
    name: str
    type: Callable[[str], Any]
    default: Any
    help: str


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in str(text).split(",") if str(x).strip() != "")


def _names(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in str(text).split(",") if x.strip())


_COMMON = [
    Option("out_dir", str, None, "output directory (default: $DIBKIT_OUTPUT_DIR or '.')"),
    Option("seed", int, 20240, "master seed"),
    Option("svg", bool, False, "also write SVG plots"),
    Option("workers", int, 1, "worker count for partitioned Monte Carlo"),
    Option("full_fidelity", bool, False, "paper-scale replicate counts instead of desk scale"),
]

_COUNTS = ("n", "m", "grid_points", "replicates", "draws", "resamples", "mc_draws", "workers")

_SUBCOMMANDS: dict[str, list[Option]] = {
    "estimate": [
        Option("theta_hat", float, None, "current-data mean"),
        Option("n", int, None, "current sample size"),
        Option("beta_hat", float, None, "external-data mean"),
        Option("m", int, None, "external sample size"),
        Option("estimators", _names, ("mle", "pooled", "ammse"), "comma-separated estimator ids"),
        Option("c", float, 3.84, "test-then-pool threshold"),
        Option("tau", float, 0.25, "adaptive-lasso tuning exponent"),
        Option("sens", float, 1.0, "sensitivity-to-conflict"),
        Option("gamma", float, 1.0, "fixed power-prior weight"),
        Option("v", int, 3, "t-prior degrees of freedom"),
        Option("delta_true", float, None, "oracle conflict for ommse"),
    ],
    "srmse-curve": [
        Option("n", int, 1000, "current sample size"),
        Option("m", int, 100_000, "external sample size"),
        Option("estimators", _names, TABLE_ESTIMATORS, "comma-separated estimator ids"),
        Option("sqrt_n_delta_max", float, 8.0, "top of the scaled-conflict grid"),
        Option("grid_points", int, 41, "points on the conflict grid"),
        Option("nodes", int, 0, "quadrature nodes per axis (0 = per-estimator default); "
               "node pairs with product weight below 1e-25 are skipped"),
        Option("c", float, 3.84, "test-then-pool threshold"),
        Option("tau", float, 0.25, "adaptive-lasso tuning exponent"),
        Option("sens", float, 1.0, "sensitivity-to-conflict"),
        Option("v", int, 3, "t-prior degrees of freedom"),
    ],
    "bayes-risk-table": [
        Option("n", int, 1000, "current sample size"),
        Option("m", int, 100_000, "external sample size"),
        Option("estimators", _names, TABLE_ESTIMATORS, "comma-separated estimator ids"),
        Option("priors", _names, ("pi1", "pi2", "pi3", "pi4", "pi5"), "prior ids"),
        Option("nodes", int, 0, "quadrature nodes per axis (0 = per-estimator default); "
               "node pairs with product weight below 1e-25 are skipped"),
        Option("c", float, 3.84, "test-then-pool threshold"),
        Option("tau", float, 0.25, "adaptive-lasso tuning exponent"),
        Option("sens", float, 1.0, "sensitivity-to-conflict"),
        Option("v", int, 3, "t-prior degrees of freedom"),
    ],
    "power": [
        Option("n", int, 1000, "current sample size"),
        Option("m", int, 100_000, "external sample size"),
        Option("estimators", _names, ("mle", "pooled", "ammse", "ebpp", "hdpp", "ttpool", "alasso", "np", "ltr"), "estimator ids"),
        Option("convention", str, "delta-bounded", "all-delta | delta-zero | delta-bounded"),
        Option("delta0", float, 0.0636, "conflict bound for delta-bounded"),
        Option("theta", float, 0.03, "true location minus null value"),
        Option("theta0", float, 0.0, "null value"),
        Option("alpha", float, 0.025, "one-sided level"),
        Option("delta_max", float, 0.0, "top of the conflict grid (0 = convention default)"),
        Option("grid_points", int, 33, "points on the conflict grid"),
        Option("c", float, 3.84, "test-then-pool threshold"),
        Option("tau", float, 0.25, "adaptive-lasso tuning exponent"),
        Option("sens", float, 1.0, "sensitivity-to-conflict"),
        Option("v", int, 3, "t-prior degrees of freedom"),
    ],
    "densities": [
        Option("n", int, 1000, "current sample size"),
        Option("m", int, 100_000, "external sample size"),
        Option("estimators", _names, DENSITY_ESTIMATORS, "estimator ids"),
        Option("sqrt_n_delta", _floats, (0.0, 0.32, 1.58, 5.06), "scaled-conflict scenarios"),
        Option("replicates", int, 50_000, "Monte Carlo samples per scenario"),
        Option("grid_points", int, 256, "log-density grid points"),
        Option("c", float, 3.84, "test-then-pool threshold"),
        Option("tau", float, 0.25, "adaptive-lasso tuning exponent"),
        Option("sens", float, 1.0, "sensitivity-to-conflict"),
        Option("v", int, 3, "t-prior degrees of freedom"),
    ],
    "example-prams": [
        Option("successes", int, 37, "current-sample event count"),
        Option("trials", int, 94, "current-sample size"),
        Option("external_rate", float, 0.384, "external event rate"),
        Option("external_size", int, 20_000, "external sample size"),
        Option("theta0", float, 1.0 / 3.0, "null event rate"),
        Option("sens", float, 0.4, "sensitivity-to-conflict"),
        Option("resamples", int, 100_000, "bootstrap resamples (desk scale)"),
        Option("level", float, 0.95, "bootstrap confidence level"),
        Option("delta0_list", _floats, (0.01, 0.05, 0.087), "conflict bounds to profile"),
        Option("mc_draws", int, 200_000, "accepted; has no effect (p-values are exact)"),
        Option("target_p", float, 0.05, "tipping-point target p-value"),
    ],
    "asymptotics-check": [
        Option("n", int, 1000, "current sample size"),
        Option("m", int, 100_000, "external sample size"),
        Option("estimators", _names, KS_ESTIMATORS, "estimator ids with closed limit laws"),
        Option("h", _floats, (0.0, 1.58, 5.06), "local conflict values"),
        Option("draws", int, 100_000, "draws per side"),
        Option("threshold", float, 0.02, "KS pass threshold"),
        Option("c", float, 3.84, "test-then-pool threshold"),
        Option("sens", float, 1.0, "sensitivity-to-conflict"),
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dibkit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        for opt in _COMMON + options:
            flag = "--" + opt.name.replace("_", "-")
            aliases = ["--estimator"] if opt.name == "estimators" else []
            if opt.type is bool:
                sp.add_argument(flag, *aliases, action="store_true", default=argparse.SUPPRESS,
                                help=opt.help)
            else:
                sp.add_argument(flag, *aliases, dest=opt.name, type=opt.type,
                                default=argparse.SUPPRESS, help=opt.help)
    return parser


def _effective_config(subcommand: str, namespace: argparse.Namespace) -> dict[str, Any]:
    options = {o.name: o for o in _COMMON + _SUBCOMMANDS[subcommand]}
    merged: dict[str, Any] = {name: opt.default for name, opt in options.items()}
    config_path = getattr(namespace, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(raw) - set(options)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            opt = options[key]
            if opt.type is bool:
                if not isinstance(value, bool):
                    raise ConfigError(f"config key {key!r} must be a boolean")
                merged[key] = value
            elif opt.type in (_floats, _names) and isinstance(value, (list, tuple)):
                merged[key] = opt.type(",".join(str(v) for v in value))
            else:
                try:
                    merged[key] = opt.type(value)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"config key {key!r}: {exc}") from exc
    for key in options:
        if hasattr(namespace, key):
            merged[key] = getattr(namespace, key)
    for key, opt in options.items():
        if opt.type in (float, _floats) and merged[key] is not None:
            if not np.all(np.isfinite(merged[key])):
                raise ConfigError(f"{key} must be finite, got {merged[key]}")
        if key in _COUNTS and merged[key] is not None and merged[key] < 1:
            raise ConfigError(f"sample sizes and counts must be >= 1, got {key} = {merged[key]}")
    if merged.get("out_dir") is None:
        merged["out_dir"] = os.environ.get(ENV_OUT_DIR, ".")
    merged["subcommand"] = subcommand
    return merged


def _echo_config(cfg: dict[str, Any]) -> None:
    canonical = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(cfg.items())
    }
    print("config: " + json.dumps(canonical, sort_keys=True))


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return "%.12g" % value
    return str(value)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _estimator_configs(cfg: dict[str, Any], *, oracle_tracks_delta: bool) -> list[EstimatorConfig]:
    out = []
    for name in cfg["estimators"]:
        out.append(
            _from_config(
                config_from_id,
                name,
                c=cfg.get("c", 3.84),
                tau=cfg.get("tau", 0.25),
                sens=cfg.get("sens", 1.0),
                gamma=cfg.get("gamma", 1.0),
                v=cfg.get("v", 3),
                delta_true=cfg.get("delta_true") if not oracle_tracks_delta else None,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_estimate(cfg: dict[str, Any]) -> None:
    for key in ("theta_hat", "n", "beta_hat", "m"):
        if cfg.get(key) is None:
            raise ConfigError(f"estimate requires --{key.replace('_', '-')}")
    s = _from_config(TwoSampleSummary, cfg["theta_hat"], cfg["n"], cfg["beta_hat"], cfg["m"])
    rows = []
    from .estimators import estimate as run_estimate

    for config in _estimator_configs(cfg, oracle_tracks_delta=False):
        if isinstance(config, OracleMmse) and config.delta_true is None:
            raise ConfigError("ommse estimation requires --delta-true")
        res = run_estimate(config, s)
        rows.append([estimator_id(config), res.theta_est, res.delta_est, res.gamma_est, res.weight])
    path = os.path.join(cfg["out_dir"], "estimates.csv")
    _write_csv(path, ["estimator", "theta_est", "delta_est", "gamma_est", "weight"], rows)
    print(f"wrote {path}")


def _nodes(cfg: dict[str, Any]) -> int | None:
    nodes = cfg["nodes"] or None
    if nodes is not None and nodes < MIN_NODES:
        raise ConfigError(f"nodes must be 0 (per-estimator default) or >= {MIN_NODES}, got {nodes}")
    return nodes


def _cmd_srmse_curve(cfg: dict[str, Any]) -> None:
    n, m = cfg["n"], cfg["m"]
    grid = np.linspace(0.0, cfg["sqrt_n_delta_max"], cfg["grid_points"]) / math.sqrt(n)
    nodes = _nodes(cfg)
    rows = []
    series = []
    for config in _estimator_configs(cfg, oracle_tracks_delta=True):
        curve = srmse_curve(config, n, m, grid, nodes)
        for x, y in zip(curve.sqrt_n_delta, curve.srmse):
            rows.append([curve.estimator, x, y])
        series.append(Series(curve.estimator, tuple(curve.sqrt_n_delta), tuple(curve.srmse)))
    path = os.path.join(cfg["out_dir"], "srmse_curve.csv")
    _write_csv(path, ["estimator", "sqrt_n_delta", "srmse"], rows)
    print(f"wrote {path}")
    if cfg["svg"]:
        svg_path = os.path.join(cfg["out_dir"], "srmse_curve.svg")
        emit_plot(series, svg_path, title="Standardized root MSE vs scaled conflict",
                  x_label="sqrt(n) * delta", y_label="SRMSE")
        print(f"wrote {svg_path}")


def _cmd_bayes_risk_table(cfg: dict[str, Any]) -> None:
    n, m = cfg["n"], cfg["m"]
    priors = table_priors(n, m)
    unknown = set(cfg["priors"]) - set(priors)
    if unknown:
        raise ConfigError(f"unknown priors: {sorted(unknown)}")
    nodes = _nodes(cfg)
    rows = []
    for config in _estimator_configs(cfg, oracle_tracks_delta=True):
        for pname in cfg["priors"]:
            value = integrated_srmse(config, priors[pname], n, m, nodes)
            rows.append([estimator_id(config), pname, value])
    path = os.path.join(cfg["out_dir"], "bayes_risk_table.csv")
    _write_csv(path, ["estimator", "prior", "value"], rows)
    print(f"wrote {path}")
    for pname in cfg["priors"]:
        mass = priors[pname].truncation_mass()
        if mass > 0:
            print(f"note: prior {pname} truncated at 8 scale units, tail mass {mass:.3e}")


def _convention(cfg: dict[str, Any]):
    name = cfg["convention"]
    if name == "all-delta":
        return AllDelta()
    if name == "delta-zero":
        return DeltaZero()
    if name == "delta-bounded":
        return _from_config(DeltaBounded, cfg["delta0"])
    raise ConfigError(f"unknown convention {name!r}")


def _cmd_power(cfg: dict[str, Any]) -> None:
    n, m = cfg["n"], cfg["m"]
    conv = _convention(cfg)
    s_del = math.sqrt(1.0 / n + 1.0 / m)
    delta_max = cfg["delta_max"]
    if delta_max <= 0:
        delta_max = cfg["delta0"] if isinstance(conv, DeltaBounded) else 6.0 * s_del
    grid = np.linspace(0.0, delta_max, cfg["grid_points"])
    theta = cfg["theta0"] + cfg["theta"]
    rows = []
    series = []
    for config in _estimator_configs(cfg, oracle_tracks_delta=True):
        spec = _from_config(TestSpec, cfg["theta0"], cfg["alpha"], conv, config, n, m)
        curve = testing.power_curve(spec, theta, grid)
        for d, p in zip(curve.delta, curve.rejection_prob):
            rows.append([curve.estimator, curve.convention, theta, d, curve.critical, p])
        series.append(
            Series(curve.estimator, tuple(math.sqrt(n) * curve.delta), tuple(curve.rejection_prob))
        )
    path = os.path.join(cfg["out_dir"], "power.csv")
    _write_csv(
        path, ["estimator", "convention", "theta", "delta", "critical", "rejection_prob"], rows
    )
    print(f"wrote {path}")
    if cfg["svg"]:
        svg_path = os.path.join(cfg["out_dir"], "power.svg")
        emit_plot(series, svg_path, title="Rejection probability vs scaled conflict",
                  x_label="sqrt(n) * delta", y_label="power")
        print(f"wrote {svg_path}")


def _cmd_densities(cfg: dict[str, Any]) -> None:
    n, m = cfg["n"], cfg["m"]
    for key in ("replicates", "grid_points"):  # a density curve needs two of each
        if cfg[key] < 2:
            raise ConfigError(f"densities needs {key} >= 2, got {key} = {cfg[key]}")
    configs = _estimator_configs(cfg, oracle_tracks_delta=True)
    rows = []
    quantile_rows = []
    for scen_i, snd in enumerate(cfg["sqrt_n_delta"]):
        delta = snd / math.sqrt(n)
        plan = _from_config(
            SimPlan, n=n, m=m, theta=0.0, delta=delta, replicates=cfg["replicates"],
            seed=cfg["seed"] + scen_i, estimators=tuple(configs),
        )
        dists = simulate(plan, workers=cfg["workers"])
        series = []
        for name, dist in dists.items():
            grid, logd = dist.log_density(points=cfg["grid_points"])
            for x, ld in zip(grid, logd):
                rows.append([name, snd, x, ld])
            for prob, value in dist.quantiles.items():
                quantile_rows.append([name, snd, prob, value])
            series.append(Series(name, tuple(grid), tuple(logd)))
        if cfg["svg"]:
            svg_path = os.path.join(cfg["out_dir"], f"densities_{scen_i}.svg")
            emit_plot(series, svg_path, title=f"log density, sqrt(n)*delta = {snd:g}",
                      x_label="sqrt(n) * (estimate - theta)", y_label="log density")
            print(f"wrote {svg_path}")
    path = os.path.join(cfg["out_dir"], "densities.csv")
    _write_csv(path, ["estimator", "sqrt_n_delta_scenario", "x", "log_density"], rows)
    print(f"wrote {path}")
    qpath = os.path.join(cfg["out_dir"], "densities_quantiles.csv")
    _write_csv(qpath, ["estimator", "sqrt_n_delta_scenario", "prob", "value"], quantile_rows)
    print(f"wrote {qpath}")


def _cmd_example_prams(cfg: dict[str, Any]) -> None:
    current = _from_config(BinomialRaw, cfg["successes"], cfg["trials"])
    ext_events = round(cfg["external_rate"] * cfg["external_size"])
    external = _from_config(BinomialRaw, int(ext_events), cfg["external_size"])
    raw, (cur_st, ext_st) = _from_config(from_raw_binomial, current, external)
    config = _from_config(SensitivityMmse, cfg["sens"])
    for d0 in cfg["delta0_list"]:  # each is a bounded-conflict null: reject before any work
        _from_config(DeltaBounded, d0)
    if not 0.0 < cfg["target_p"] < 1.0:
        raise ConfigError(f"target_p must lie in (0, 1), got {cfg['target_p']}")
    s_st = standardized_two_sample(cur_st, ext_st)
    sens = config.sens
    theta0 = cfg["theta0"]
    theta0_st = theta0 / cur_st.sd

    est_st = config.result(s_st)
    estimate_raw = est_st.theta_est * cur_st.sd

    resamples = 10_000_000 if cfg["full_fidelity"] else cfg["resamples"]
    ci = _from_config(
        bootstrap_ci, current, external, sens, resamples, cfg["level"], cfg["seed"],
        workers=cfg["workers"],
    )

    p1 = testing.pvalue("mle-alldelta", s_st, theta0_st)
    p2_opt = testing.pvalue("pooled-deltazero", s_st, theta0_st)
    rows: list[list[Any]] = [
        ["theta_hat_raw", "rate", raw.theta_hat],
        ["beta_hat_raw", "rate", raw.beta_hat],
        ["sd_current", "rate", cur_st.sd],
        ["sd_external", "rate", ext_st.sd],
        ["theta_hat_st", "standardized", s_st.theta_hat],
        ["beta_hat_st", "standardized", s_st.beta_hat],
        ["estimate_st", "standardized", est_st.theta_est],
        ["estimate_rate", "rate", estimate_raw],
        ["weight", "unitless", est_st.weight],
        ["ci_lo", "rate", ci.lo],
        ["ci_hi", "rate", ci.hi],
        ["bootstrap_resamples", "count", resamples],
        ["z1", "standardized", math.sqrt(raw.n) * (s_st.theta_hat - theta0_st)],
        ["p_option1", "probability", p1],
        ["p_option2", "probability", p2_opt],
    ]
    for d0 in cfg["delta0_list"]:
        p3_opt = testing.pvalue("dib-deltabounded", s_st, theta0_st, d0, sens)
        p3_opt_rate = testing.pvalue("dib-deltabounded", s_st, theta0_st, d0 / cur_st.sd, sens)
        p2v, p3v = testing.p2_p3(s_st, d0, theta0_st)
        rows.append([f"p_option3@delta0={d0:g}", "standardized-conflict", p3_opt])
        rows.append([f"p_option3@delta0={d0:g}", "rate-conflict", p3_opt_rate])
        rows.append([f"p2@delta0={d0:g}", "probability", p2v])
        rows.append([f"p3@delta0={d0:g}", "probability", p3v])
    try:
        tip = testing.tipping_point(s_st, theta0_st, sens, cfg["target_p"])
        rows.append(["tipping_point", "standardized-conflict", tip])
    except testing.NoCrossingError as exc:
        rows.append(["tipping_point", "error", str(exc)])

    path = os.path.join(cfg["out_dir"], "prams_report.csv")
    _write_csv(path, ["quantity", "scale", "value"], rows)
    print(f"wrote {path}")
    print(
        f"estimate(sens={sens:g}) = {estimate_raw:.4f} on the rate scale, "
        f"{cfg['level']:.0%} bootstrap CI ({ci.lo:.4f}, {ci.hi:.4f}), "
        f"p1 = {p1:.4f}, p2 = {p2_opt:.2e}"
    )


def _cmd_asymptotics_check(cfg: dict[str, Any]) -> None:
    n, m = cfg["n"], cfg["m"]
    p = n / (n + m)
    configs = _estimator_configs(cfg, oracle_tracks_delta=True)
    draws = cfg["draws"]
    rows = []
    for hi, h in enumerate(cfg["h"]):
        sc = _from_config(LocalScenario, h=h, p=p)
        plan = _from_config(
            SimPlan, n=n, m=m, theta=0.0, delta=h / math.sqrt(n), replicates=draws,
            seed=cfg["seed"] + hi, estimators=tuple(configs),
        )
        finite = simulate(plan, workers=cfg["workers"])
        for config in configs:
            name = estimator_id(config)
            limit = limit_sample(config, sc, draws, seed=cfg["seed"] + 100 + hi)
            ks = ks_distance(finite[name].draws, limit)
            rows.append([name, h, ks, cfg["threshold"], "pass" if ks <= cfg["threshold"] else "fail"])
    path = os.path.join(cfg["out_dir"], "asymptotics_check.csv")
    _write_csv(path, ["estimator", "h", "ks_distance", "threshold", "status"], rows)
    print(f"wrote {path}")


_RUNNERS = {
    "estimate": _cmd_estimate,
    "srmse-curve": _cmd_srmse_curve,
    "bayes-risk-table": _cmd_bayes_risk_table,
    "power": _cmd_power,
    "densities": _cmd_densities,
    "example-prams": _cmd_example_prams,
    "asymptotics-check": _cmd_asymptotics_check,
}


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _effective_config(namespace.subcommand, namespace)
        os.makedirs(cfg["out_dir"], exist_ok=True)
        _echo_config(cfg)
        _RUNNERS[namespace.subcommand](cfg)
        return 0
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 2
    except (QuadratureError, NodeEvaluationError, FloatingPointError, ValueError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
