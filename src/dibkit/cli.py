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
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence, get_args

import numpy as np

from .estimators import _FIELD_DEFAULTS, EstimatorConfig, SensitivityMmse, _check_finite, _from_id, estimator_id
from .summaries import BinomialRaw, TwoSampleSummary, from_raw_binomial, standardized_two_sample
from .svg import Series, emit_plot

__all__ = ["main", "run"]

ENV_OUT_DIR = "DIBKIT_OUTPUT_DIR"

TABLE_ESTIMATORS = (
    "mle", "pooled", "np", "ammse", "ttpool", "alasso", "ebpp", "hdpp", "ltr", "lstp", "ommse",
)
DENSITY_ESTIMATORS = tuple(e for e in TABLE_ESTIMATORS if e != "ommse")
KS_ESTIMATORS = ("mle", "pooled", "ttpool", "ammse", "ebpp", "hdpp")


class ConfigError(ValueError):
    pass


_NUMERIC_ERRORS: tuple[type[Exception], ...] = ()  # risk's failures, exit code 3 once _numeric has run


def _numeric() -> None:
    """Import the layers that load scipy, which every subcommand but estimate runs on.

    This is their one import site, and it imports all six, so that a tracer
    of the layers finds each of them loaded whichever subcommand ran.
    """
    global _law, asymptotics, montecarlo, risk, streams, testing, _NUMERIC_ERRORS
    from . import _law, asymptotics, montecarlo, risk, streams, testing

    _NUMERIC_ERRORS = (risk.QuadratureError, risk.NodeEvaluationError)


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
    help: str | Callable[[], str]  # a callable reads what only a numeric layer knows


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in str(text).split(",") if str(x).strip() != "")


def _names(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in str(text).split(",") if x.strip())


_NO_EFFECT = "accepted; has no effect ({})"

_COMMON = [
    Option("out_dir", str, None, "output directory (default: $DIBKIT_OUTPUT_DIR or '.')"),
    Option("seed", int, 20240, _NO_EFFECT.format("nothing is drawn at random")),
    Option("svg", bool, False, "also write SVG plots"),
    Option("workers", int, 1, _NO_EFFECT.format("nothing is drawn at random")),
    Option("full_fidelity", bool, False, _NO_EFFECT.format("every artifact is exact")),
]

_COUNTS = ("n", "m", "grid_points", "replicates", "draws", "resamples", "mc_draws", "workers")

# estimator tuning options, each named after the configuration field it sets and defaulting as that field does
_TUNING = {name: Option(name, kind, _FIELD_DEFAULTS[name], help) for name, kind, help in [
    ("c", float, "test-then-pool threshold"),
    ("tau", float, "adaptive-lasso tuning exponent"),
    ("sens", float, "sensitivity-to-conflict"),
    ("gamma", float, "fixed power-prior weight"),
    ("v", int, "t-prior degrees of freedom"),
]}

_NODES = Option("nodes", int, 0, lambda: "quadrature nodes per axis (0 = per-estimator default); "
                f"node pairs with product weight below {risk._PAIR_WEIGHT_FLOOR:g} are skipped")

# the paper's sample sizes; estimate takes both without a default
_N, _M = Option("n", int, 1000, "current sample size"), Option("m", int, 100_000, "external sample size")


def _tuning(*names: str) -> list[Option]:
    return [_TUNING[name] for name in names]


def _no_effect(why: str, *common: str, **counts: int) -> list[Option]:
    """Counts, then common options (only ``svg`` varies by subcommand), accepted but without effect."""
    note = _NO_EFFECT.format(why)
    by_name = {o.name: o for o in _COMMON}
    return [Option(k, int, v, note) for k, v in counts.items()] + [replace(by_name[k], help=note) for k in common]


def _options(subcommand: str) -> dict[str, Option]:
    if subcommand != "estimate":
        _numeric()
    return {o.name: o for o in _COMMON + _SUBCOMMANDS[subcommand][1]}  # own options replace common ones


def _build_parser(populated: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of every subcommand name, with the options of only the subcommands in ``populated``.

    A run parses one subcommand, so it need not build the options of the
    others: neither the top-level help nor any argparse error shows them.
    """
    parser = argparse.ArgumentParser(prog="dibkit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        sp = sub.add_parser(name)
        if name not in populated:
            continue
        sp.add_argument("--config", default=None, help="JSON config file")
        for opt in _options(name).values():
            flag = "--" + opt.name.replace("_", "-")
            aliases = ["--estimator"] if opt.name == "estimators" else []
            kind = {"action": "store_true"} if opt.type is bool else {"type": opt.type}
            text = opt.help() if callable(opt.help) else opt.help
            sp.add_argument(flag, *aliases, dest=opt.name, default=argparse.SUPPRESS, help=text, **kind)
    return parser


def _effective_config(subcommand: str, namespace: argparse.Namespace) -> dict[str, Any]:
    options = _options(subcommand)
    merged: dict[str, Any] = {name: opt.default for name, opt in options.items()}
    config_path = getattr(namespace, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # malformed JSON, or an integer too long to convert
                raise ConfigError(f"config file {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        # an echoed config names its subcommand
        named = raw.pop("subcommand", subcommand)
        if named != subcommand:
            raise ConfigError(f"config key 'subcommand' must be {subcommand!r}, got {named!r}")
        unknown = set(raw) - set(options)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            opt = options[key]
            if value is None:  # null stands for a default of None, and for no other value
                if opt.default is not None:
                    raise ConfigError(f"config key {key!r} must not be null")
            elif isinstance(value, bool) != (opt.type is bool):
                raise ConfigError(f"config key {key!r} must {'' if opt.type is bool else 'not '}be a boolean")
            elif opt.type is int and isinstance(value, float) and not value.is_integer():
                raise ConfigError(f"config key {key!r} must be an integer, got {value}")
            elif opt.type is bool:
                merged[key] = value
            else:
                if opt.type in (_floats, _names) and isinstance(value, list):
                    value = ",".join(str(v) for v in value)
                try:
                    merged[key] = opt.type(value)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"config key {key!r}: {exc}") from exc
    for key in options:
        if hasattr(namespace, key):
            merged[key] = getattr(namespace, key)
    for key, opt in options.items():
        if opt.type in (float, _floats) and merged[key] is not None:
            _from_config(_check_finite, **{key: merged[key]})
        # 2**53 is the largest count a float holds exactly, and n * m stays finite
        if key in _COUNTS and merged[key] is not None and not 1 <= merged[key] <= 2**53:
            raise ConfigError(f"sample sizes and counts must lie in [1, 2**53], got {key} = {merged[key]}")
        if opt.type in (_floats, _names) and not merged[key]:
            raise ConfigError(f"{key} must list at least one value")
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
    if isinstance(value, float):  # np.float64 too; "%.12g" writes inf, -inf and nan as such
        return "%.12g" % value
    return str(value)


def _column(values: Sequence[Any]) -> list[str]:
    """One column's cells as ``_fmt`` writes them, all floats formatted in one pass and all strings as they are."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        return list(map("%.12g".__mod__, values))
    if kinds == {str}:
        return list(values)
    return list(map(_fmt, values))


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """The header and rows as ``csv.writer`` writes them, with LF line ends and each cell as ``_fmt`` writes it.

    The cells are formatted a column at a time and joined by hand; the text
    is ``csv``'s own unless a cell needs quoting, in which case ``csv``
    writes it.  A ragged or one-column table goes to ``csv`` directly.
    """
    width = len(header)
    if width > 1 and all(len(row) == width for row in rows):
        lines = [header, *zip(*map(_column, zip(*rows)))]
        text = "".join([",".join(line) + "\n" for line in lines])
        # csv quotes a cell holding a delimiter, quote or line break; here every comma and LF is a join
        unquoted = '"' not in text and "\r" not in text
        if unquoted and text.count(",") == (width - 1) * len(lines) and text.count("\n") == len(lines):
            return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *([_fmt(v) for v in row] for row in rows)])
    return out.getvalue()


def _write_csv(cfg: dict[str, Any], name: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    path = os.path.join(cfg["out_dir"], name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text(header, rows))
    print(f"wrote {path}")


def _plot(cfg: dict[str, Any], name: str, series: Sequence[Series], title: str, x_label: str, y_label: str) -> None:
    if cfg["svg"]:
        path = os.path.join(cfg["out_dir"], name)
        emit_plot(series, path, title=title, x_label=x_label, y_label=y_label)
        print(f"wrote {path}")


def _estimator_configs(cfg: dict[str, Any]) -> list[EstimatorConfig]:
    """The configuration of each ``--estimators`` id, its fields filled from the flags of the same names."""
    return [_from_config(_from_id, EstimatorConfig, name, "estimator id", cfg) for name in cfg["estimators"]]


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_estimate(cfg: dict[str, Any]) -> None:
    for key in ("theta_hat", "n", "beta_hat", "m"):
        if cfg.get(key) is None:
            raise ConfigError(f"estimate requires --{key.replace('_', '-')}")
    s = _from_config(TwoSampleSummary, cfg["theta_hat"], cfg["n"], cfg["beta_hat"], cfg["m"])
    rows = []
    for config in _estimator_configs(cfg):
        with np.errstate(all="ignore"):  # a non-finite result is reported below, not also warned of
            res = _from_config(config.result, s)  # ommse without --delta-true is a config error
        row = [estimator_id(config), res.theta_est, res.delta_est, res.gamma_est, res.weight]
        if not all(math.isfinite(v) for v in row[1:] if v is not None):
            raise FloatingPointError(f"non-finite estimate from {row[0]}: {row[1:]}")
        rows.append(row)
    _write_csv(cfg, "estimates.csv", ["estimator", "theta_est", "delta_est", "gamma_est", "weight"], rows)


def _nodes(cfg: dict[str, Any]) -> int | None:
    nodes, low, high = cfg["nodes"] or None, risk.MIN_NODES, risk.MAX_NODES
    if nodes is not None and not low <= nodes <= high:
        raise ConfigError(f"nodes must be 0 (per-estimator default) or in [{low}, {high}], got {nodes}")
    return nodes


def _cmd_srmse_curve(cfg: dict[str, Any]) -> None:
    n, m = cfg["n"], cfg["m"]
    grid = np.linspace(0.0, cfg["sqrt_n_delta_max"], cfg["grid_points"]) / math.sqrt(n)
    nodes = _nodes(cfg)
    rows = []
    series = []
    for config in _estimator_configs(cfg):
        curve = risk.srmse_curve(config, n, m, grid, nodes)
        for x, y in zip(curve.sqrt_n_delta, curve.srmse):
            rows.append([curve.estimator, x, y])
        series.append(Series(curve.estimator, tuple(curve.sqrt_n_delta), tuple(curve.srmse)))
    _write_csv(cfg, "srmse_curve.csv", ["estimator", "sqrt_n_delta", "srmse"], rows)
    _plot(cfg, "srmse_curve.svg", series, "Standardized root MSE vs scaled conflict", "sqrt(n) * delta", "SRMSE")


def _cmd_bayes_risk_table(cfg: dict[str, Any]) -> None:
    n, m = cfg["n"], cfg["m"]
    priors = risk.table_priors(n, m)
    unknown = set(cfg["priors"]) - set(priors)
    if unknown:
        raise ConfigError(f"unknown priors: {sorted(unknown)}")
    nodes = _nodes(cfg)
    rows = []
    for config in _estimator_configs(cfg):
        values = risk.integrated_srmse_batch(config, [priors[p] for p in cfg["priors"]], n, m, nodes)
        rows.extend([estimator_id(config), pname, value] for pname, value in zip(cfg["priors"], values))
    _write_csv(cfg, "bayes_risk_table.csv", ["estimator", "prior", "value"], rows)
    for pname in cfg["priors"]:
        mass = priors[pname].truncation_mass()
        if mass > 0:
            print(f"note: prior {pname} truncated at {risk._TAIL_SPAN:g} scale units, tail mass {mass:.3e}")


def _convention(cfg: dict[str, Any]) -> testing.Convention:
    """The convention whose ``id`` is ``--convention``, its fields filled from the flags of the same names."""
    return _from_config(_from_id, testing.Convention, cfg["convention"], "convention", cfg)


def _cmd_power(cfg: dict[str, Any]) -> None:
    theta = cfg["theta0"] + cfg["theta"]
    _from_config(_check_finite, **{"theta0 + theta": theta})
    n, m = cfg["n"], cfg["m"]
    conv = _convention(cfg)
    s_del = math.sqrt(1.0 / n + 1.0 / m)
    delta_max = cfg["delta_max"]
    if delta_max < 0:
        raise ConfigError(f"delta_max must be 0 (convention default) or positive, got {delta_max}")
    if delta_max == 0:
        delta_max = cfg["delta0"] if isinstance(conv, testing.DeltaBounded) else 6.0 * s_del
    grid = np.linspace(0.0, delta_max, cfg["grid_points"])
    rows = []
    series = []
    for config in _estimator_configs(cfg):
        spec = _from_config(testing.TestSpec, cfg["theta0"], cfg["alpha"], conv, config, n, m)
        curve = testing.power_curve(spec, theta, grid)
        for d, p in zip(curve.delta, curve.rejection_prob):
            rows.append([curve.estimator, curve.convention, theta, d, curve.critical, p])
        series.append(
            Series(curve.estimator, tuple(math.sqrt(n) * curve.delta), tuple(curve.rejection_prob))
        )
    _write_csv(cfg, "power.csv", ["estimator", "convention", "theta", "delta", "critical", "rejection_prob"], rows)
    _plot(cfg, "power.svg", series, "Rejection probability vs scaled conflict", "sqrt(n) * delta", "power")


def _cmd_densities(cfg: dict[str, Any]) -> None:
    n, m = cfg["n"], cfg["m"]
    if cfg["grid_points"] < 2:  # a density curve needs two points
        raise ConfigError(f"densities needs grid_points >= 2, got grid_points = {cfg['grid_points']}")
    scenarios = cfg["sqrt_n_delta"]
    # curves[scenario][estimator]: the name, grid, log density and table quantiles of one law
    curves: list[list[tuple]] = [[] for _ in scenarios]
    probs = montecarlo._QUANTILE_PROBS
    deltas = np.asarray(scenarios, dtype=float) / math.sqrt(n)
    for config in _estimator_configs(cfg):
        name = estimator_id(config)
        laws = _law.conditional_laws(config, n, m, 0.0, deltas)  # one solve per estimator keeps its padded matrix small
        for scen, law, grid, quants in zip(curves, laws, *_law.grids(laws, cfg["grid_points"], probs)):
            scen.append((name, grid, np.log(law.pdf(grid)), quants))
    rows = []
    quantile_rows = []
    for scen_i, (snd, scen) in enumerate(zip(scenarios, curves)):
        for name, grid, logd, quants in scen:
            rows.extend([name, snd, x, ld] for x, ld in zip(grid, logd))
            quantile_rows.extend([name, snd, prob, float(value)] for prob, value in zip(probs, quants))
        series = [Series(name, tuple(grid), tuple(logd)) for name, grid, logd, _ in scen]
        _plot(cfg, f"densities_{scen_i}.svg", series, f"log density, sqrt(n)*delta = {snd:g}",
              "sqrt(n) * (estimate - theta)", "log density")
    _write_csv(cfg, "densities.csv", ["estimator", "sqrt_n_delta_scenario", "x", "log_density"], rows)
    _write_csv(cfg, "densities_quantiles.csv", ["estimator", "sqrt_n_delta_scenario", "prob", "value"], quantile_rows)


def _cmd_example_prams(cfg: dict[str, Any]) -> None:
    if not 0.0 <= cfg["external_rate"] <= 1.0:
        raise ConfigError(f"external_rate must lie in [0, 1], got {cfg['external_rate']}")
    current = _from_config(BinomialRaw, cfg["successes"], cfg["trials"])
    ext_events = round(cfg["external_rate"] * cfg["external_size"])
    external = _from_config(BinomialRaw, int(ext_events), cfg["external_size"])
    raw, (cur_st, ext_st) = _from_config(from_raw_binomial, current, external)
    config = _from_config(SensitivityMmse, cfg["sens"])
    bounds = [_from_config(testing.DeltaBounded, d0).delta0 for d0 in cfg["delta0_list"]]  # rejected before any work
    if not 0.0 < cfg["target_p"] < 1.0:
        raise ConfigError(f"target_p must lie in (0, 1), got {cfg['target_p']}")
    s_st = standardized_two_sample(cur_st, ext_st)
    sens = config.sens
    theta0 = cfg["theta0"]
    theta0_st = theta0 / cur_st.sd

    est_st = config.result(s_st)
    estimate_raw = est_st.theta_est * cur_st.sd

    ci_lo, ci_hi = _from_config(montecarlo._exact_bootstrap_ci, current, external, sens, cfg["level"])

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
        ["ci_lo", "rate", ci_lo],
        ["ci_hi", "rate", ci_hi],
        ["bootstrap_resamples", "count", cfg["resamples"]],  # echoed: the interval draws no resamples
        ["z1", "standardized", math.sqrt(raw.n) * (s_st.theta_hat - theta0_st)],
        ["p_option1", "probability", p1],
        ["p_option2", "probability", p2_opt],
    ]
    # option 3 at every bound, standardized then on the rate scale, in one law batch
    p3_opts = testing._bounded_pvalues(s_st, theta0_st, sens)(bounds + [d0 / cur_st.sd for d0 in bounds])
    for d0, p3_opt, p3_opt_rate in zip(bounds, p3_opts, p3_opts[len(bounds):]):
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

    _write_csv(cfg, "prams_report.csv", ["quantity", "scale", "value"], rows)
    print(
        f"estimate(sens={sens:g}) = {estimate_raw:.4f} on the rate scale, "
        f"{cfg['level']:.0%} bootstrap CI ({ci_lo:.4f}, {ci_hi:.4f}), "
        f"p1 = {p1:.4f}, p2 = {p2_opt:.2e}"
    )


def _cmd_asymptotics_check(cfg: dict[str, Any]) -> None:
    if cfg["threshold"] < 0:
        raise ConfigError(f"threshold must be non-negative, got {cfg['threshold']:g}")
    n, m = cfg["n"], cfg["m"]
    configs = _estimator_configs(cfg)
    p = n / (n + m)
    hs = [_from_config(asymptotics.LocalScenario, h=h, p=p).h for h in cfg["h"]]
    # every limit law first, so that a kind without one is rejected before any work
    limits = [_from_config(_law.limit_laws, config, p, hs) for config in configs]
    deltas = np.array(hs) / math.sqrt(n)
    # one grid solve per estimator over its laws at every h; the rows go by h
    ks = [_law.distances(_law.conditional_laws(c, n, m, 0.0, deltas), laws) for c, laws in zip(configs, limits)]
    rows = []
    for h, distance_row in zip(hs, np.transpose(ks)):
        for config, d in zip(configs, distance_row):
            rows.append([estimator_id(config), h, d, cfg["threshold"], "pass" if d <= cfg["threshold"] else "fail"])
    _write_csv(cfg, "asymptotics_check.csv", ["estimator", "h", "ks_distance", "threshold", "status"], rows)


# name -> (runner, own options)
_SUBCOMMANDS: dict[str, tuple[Callable[[dict[str, Any]], None], list[Option]]] = {
    "estimate": (_cmd_estimate, [
        Option("theta_hat", float, None, "current-data mean"),
        replace(_N, default=None),
        Option("beta_hat", float, None, "external-data mean"),
        replace(_M, default=None),
        Option("estimators", _names, ("mle", "pooled", "ammse"), "comma-separated estimator ids"),
        *_tuning("c", "tau", "sens", "gamma", "v"),
        Option("delta_true", float, None, "oracle conflict for ommse"),
        *_no_effect("closed forms, not plotted", "svg"),
    ]),
    "srmse-curve": (_cmd_srmse_curve, [
        _N, _M,
        Option("estimators", _names, TABLE_ESTIMATORS, "comma-separated estimator ids"),
        Option("sqrt_n_delta_max", float, 8.0, "top of the scaled-conflict grid"),
        Option("grid_points", int, 41, "points on the conflict grid"),
        _NODES,
        *_tuning("c", "tau", "sens", "v"),
    ]),
    "bayes-risk-table": (_cmd_bayes_risk_table, [
        _N, _M,
        Option("estimators", _names, TABLE_ESTIMATORS, "comma-separated estimator ids"),
        Option("priors", _names, ("pi1", "pi2", "pi3", "pi4", "pi5"), "prior ids"),
        _NODES,
        *_tuning("c", "tau", "sens", "v"),
        *_no_effect("deterministic quadrature, not plotted", "svg"),
    ]),
    "power": (_cmd_power, [
        _N, _M,
        Option("estimators", _names, ("mle", "pooled", "ammse", "ebpp", "hdpp", "ttpool", "alasso", "np", "ltr"), "estimator ids"),
        Option("convention", str, "delta-bounded", lambda: " | ".join(k.id for k in get_args(testing.Convention))),
        Option("delta0", float, 0.0636, "conflict bound for delta-bounded"),
        Option("theta", float, 0.03, "true location minus null value"),
        Option("theta0", float, 0.0, "null value"),
        Option("alpha", float, 0.025, "one-sided level"),
        Option("delta_max", float, 0.0, "top of the conflict grid (0 = convention default)"),
        Option("grid_points", int, 33, "points on the conflict grid"),
        *_tuning("c", "tau", "sens", "v"),
    ]),
    "densities": (_cmd_densities, [
        _N, _M,
        Option("estimators", _names, DENSITY_ESTIMATORS, "estimator ids"),
        Option("sqrt_n_delta", _floats, (0.0, 0.32, 1.58, 5.06), "scaled-conflict scenarios"),
        *_no_effect("densities are exact", replicates=50_000),
        Option("grid_points", int, 256, "log-density grid points"),
        *_tuning("c", "tau", "sens", "v"),
    ]),
    "example-prams": (_cmd_example_prams, [
        Option("successes", int, 37, "current-sample event count"),
        Option("trials", int, 94, "current-sample size"),
        Option("external_rate", float, 0.384, "external event rate"),
        Option("external_size", int, 20_000, "external sample size"),
        Option("theta0", float, 1.0 / 3.0, "null event rate"),
        replace(_TUNING["sens"], default=0.4),
        Option("resamples", int, 100_000, lambda: "echoed in the bootstrap_resamples row; the CI is the bootstrap's "
               f"exact limit over at most {montecarlo._MAX_EXACT_POINTS:,} (k, j) count pairs and draws none"),
        Option("level", float, 0.95, "bootstrap confidence level"),
        Option("delta0_list", _floats, (0.01, 0.05, 0.087), "conflict bounds to profile"),
        *_no_effect("p-values and interval are exact, not plotted", "svg", mc_draws=200_000),
        Option("target_p", float, 0.05, "tipping-point target p-value"),
    ]),
    "asymptotics-check": (_cmd_asymptotics_check, [
        _N, _M,
        Option("estimators", _names, KS_ESTIMATORS, "estimator ids with closed limit laws"),
        Option("h", _floats, (0.0, 1.58, 5.06), "local conflict values"),
        *_no_effect("both laws are exact, not plotted", "svg", draws=100_000),
        Option("threshold", float, 0.02, "KS pass threshold"),
        *_tuning("c", "sens"),
    ]),
}


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no top-level option takes a value, so the first token not starting with '-' is the subcommand argparse runs
    parser = _build_parser([a for a in argv if not a.startswith("-")][:1])
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _effective_config(namespace.subcommand, namespace)
        os.makedirs(cfg["out_dir"], exist_ok=True)
        _echo_config(cfg)
        _SUBCOMMANDS[namespace.subcommand][0](cfg)
        return 0
    except (ConfigError, OSError) as exc:  # OSError: a config or output path that cannot be used
        print(_error_record(exc), file=sys.stderr)
        return 2
    except (*_NUMERIC_ERRORS, FloatingPointError, ValueError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
