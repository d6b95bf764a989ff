import csv
import importlib
import io
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import math

import numpy as np
import pytest

import dibkit
from dibkit import cli, testing
from dibkit._law import conditional_laws, grids, quantiles
from dibkit.cli import run
from dibkit.estimators import config_from_id
from dibkit.montecarlo import _QUANTILE_PROBS
from dibkit.svg import Series, emit_plot


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_estimate_subcommand(tmp_path, capsys):
    code = run(
        [
            "estimate", "--theta-hat", "0", "--n", "100", "--beta-hat", "1", "--m", "400",
            "--estimators", "mle,pooled,ammse", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("config: ")
    echoed = json.loads(out.splitlines()[0][len("config: "):])
    assert echoed["subcommand"] == "estimate" and echoed["n"] == 100
    rows = read_csv(tmp_path / "estimates.csv")
    assert rows[0] == ["estimator", "theta_est", "delta_est", "gamma_est", "weight"]
    by_name = {r[0]: r for r in rows[1:]}
    assert float(by_name["ammse"][1]) == pytest.approx(0.009876543, abs=1e-8)
    assert float(by_name["pooled"][1]) == pytest.approx(0.8)


def test_estimate_requires_inputs(tmp_path, capsys):
    code = run(["estimate", "--n", "100", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"] == "ConfigError"


def test_estimate_ommse_needs_delta(tmp_path, capsys):
    code = run(
        [
            "estimate", "--theta-hat", "0", "--n", "10", "--beta-hat", "1", "--m", "10",
            "--estimators", "ommse", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "ConfigError" and "delta_true" in record["message"]


def test_srmse_curve_deterministic(tmp_path):
    args = [
        "srmse-curve", "--n", "200", "--m", "2000", "--estimators", "mle,pooled,ammse",
        "--grid-points", "5", "--sqrt-n-delta-max", "4", "--svg",
        "--out-dir", str(tmp_path),
    ]
    assert run(args) == 0
    first_csv = (tmp_path / "srmse_curve.csv").read_bytes()
    first_svg = (tmp_path / "srmse_curve.svg").read_bytes()
    assert run(args) == 0
    assert (tmp_path / "srmse_curve.csv").read_bytes() == first_csv
    assert (tmp_path / "srmse_curve.svg").read_bytes() == first_svg
    rows = read_csv(tmp_path / "srmse_curve.csv")
    assert rows[0] == ["estimator", "sqrt_n_delta", "srmse"]
    mle_rows = [r for r in rows[1:] if r[0] == "mle"]
    assert all(float(r[2]) == pytest.approx(1.0, abs=1e-9) for r in mle_rows)


def test_bayes_risk_table_small(tmp_path):
    assert (
        run(
            [
                "bayes-risk-table", "--n", "200", "--m", "2000",
                "--estimators", "mle,pooled", "--priors", "pi1,pi4",
                "--out-dir", str(tmp_path),
            ]
        )
        == 0
    )
    rows = read_csv(tmp_path / "bayes_risk_table.csv")
    assert rows[0] == ["estimator", "prior", "value"]
    values = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    assert values[("mle", "pi1")] == pytest.approx(1.0, abs=0.01)
    assert values[("pooled", "pi1")] < 1.0


@pytest.mark.parametrize("convention", ["delta-bounded", "all-delta", "delta-zero"])
def test_power_subcommand(tmp_path, convention):
    assert (
        run(
            [
                "power", "--n", "200", "--m", "2000", "--estimators", "mle,ammse",
                "--convention", convention, "--delta0", "0.1",
                "--theta", "0.1", "--grid-points", "5", "--out-dir", str(tmp_path),
            ]
        )
        == 0
    )
    rows = read_csv(tmp_path / "power.csv")
    assert rows[0] == ["estimator", "convention", "theta", "delta", "critical", "rejection_prob"]
    assert all(0.0 <= float(r[5]) <= 1.0 for r in rows[1:])
    assert {r[1] for r in rows[1:]} == {convention}


@pytest.mark.parametrize(
    "argv, count, header",
    [
        pytest.param(
            ["densities", "--n", "200", "--m", "2000", "--estimators", "mle,ttpool,ebpp",
             "--sqrt-n-delta", "0,1.58", "--grid-points", "33"],
            "--replicates", {"densities.csv": ["estimator", "sqrt_n_delta_scenario", "x", "log_density"],
                             "densities_quantiles.csv": ["estimator", "sqrt_n_delta_scenario", "prob", "value"]},
            id="densities",
        ),
        pytest.param(
            ["asymptotics-check", "--n", "200", "--m", "2000", "--estimators", "mle,ttpool,ebpp",
             "--h", "0,1.58"],
            "--draws", {"asymptotics_check.csv": ["estimator", "h", "ks_distance", "threshold", "status"]},
            id="asymptotics-check",
        ),
    ],
)
def test_exact_artifacts_ignore_seed_sample_count_and_workers(tmp_path, argv, count, header):
    outputs = []
    for seed, size, workers in (("1", "1", "1"), ("2", "500000", "8")):  # none has an effect
        out = tmp_path / seed
        assert run(argv + ["--seed", seed, count, size, "--workers", workers, "--out-dir", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes() for name in header})
        assert {name: read_csv(out / name)[0] for name in header} == header
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "value, text",
    [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (-0.0, "-0"), (np.float64(0.1), "0.1"),
     (np.float64(-math.inf), "-inf"), (1.0 / 3.0, "0.333333333333"), (None, ""), (7, "7"), ("ebpp", "ebpp")],
)
def test_csv_cell_format(value, text):
    assert cli._fmt(value) == text


@pytest.mark.parametrize("n, m", [(1000, 100_000), (94, 20_000)])
def test_batched_density_laws_equal_the_per_law_grid_and_quantiles(n, m):
    scenarios = (0.0, 0.32, 1.58, 5.06)  # the densities defaults
    for name in cli.DENSITY_ESTIMATORS:
        config = config_from_id(name)
        laws = conditional_laws(config, n, m, 0.0, np.asarray(scenarios) / math.sqrt(n))
        # one solve pads every law to the widest; only padding moves a sum's rounding
        widest = max(law.weights.size for law in laws)
        for snd, law, grid, quants in zip(scenarios, laws, *grids(laws, 256, _QUANTILE_PROBS)):
            (one,) = conditional_laws(config, n, m, 0.0, [snd / math.sqrt(n)])
            assert np.array_equal(law.weights, one.weights) and np.array_equal(law.mean, one.mean)
            assert np.array_equal(law.sd, one.sd)
            got = np.concatenate([grid, quants])
            want = np.concatenate([grids([one], 256)[0][0], quantiles([one] * len(_QUANTILE_PROBS), _QUANTILE_PROBS)])
            if law.weights.size == widest:
                assert np.array_equal(got, want), (name, snd)
            else:
                assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want))), (name, snd)


@pytest.mark.parametrize("series", [[], [Series("a", (), ())], [Series("a", (1.0,), (2.0,)), Series("b", (), ())]])
def test_emit_plot_rejects_an_empty_series(tmp_path, series):
    with pytest.raises(ValueError, match="every series must be nonempty"):
        emit_plot(series, str(tmp_path / "plot.svg"))
    assert not (tmp_path / "plot.svg").exists()


@pytest.mark.parametrize("xs, ys", [((math.nan,), (1.0,)), ((1.0, 2.0), (math.inf, -math.inf)), ((math.nan, 1.0), (1.0, math.nan))])
def test_emit_plot_names_a_series_with_no_finite_point(tmp_path, xs, ys):
    with pytest.raises(ValueError, match="series 'b' has no point with finite x and y"):
        emit_plot([Series("a", (1.0,), (2.0,)), Series("b", xs, ys)], str(tmp_path / "plot.svg"))
    assert not (tmp_path / "plot.svg").exists()


def test_emit_plot_widens_a_zero_range_to_one_unit(tmp_path):
    # x spans [2, 3] and y [0.5, 1.5] before its 4% pad, so the point sits at the left edge, near the bottom
    path = tmp_path / "flat.svg"
    emit_plot([Series("a", (2.0, 2.0), (0.5, 0.5))], str(path))
    text = path.read_text()
    assert '<polyline points="70,487.778 70,487.778"' in text
    ticks = re.findall(r'font-size="12">([^<]*)</text>', text)
    assert ticks[:6] == ["2", "2.2", "2.4", "2.6", "2.8", "3"]
    assert ticks[6:-1] == ["0.6", "0.8", "1", "1.2", "1.4"]


def test_example_prams_report(tmp_path, capsys):
    assert (
        run(
            [
                "example-prams", "--resamples", "5000", "--mc-draws", "20000",
                "--delta0-list", "0.05", "--out-dir", str(tmp_path), "--seed", "11",
            ]
        )
        == 0
    )
    rows = read_csv(tmp_path / "prams_report.csv")
    values = {(r[0], r[1]): r[2] for r in rows[1:]}
    assert float(values[("estimate_rate", "rate")]) == pytest.approx(0.3858, abs=5e-4)
    assert float(values[("p_option1", "probability")]) == pytest.approx(0.1158, abs=5e-4)
    assert float(values[("z1", "standardized")]) == pytest.approx(1.1963, abs=5e-4)
    assert ("tipping_point", "standardized-conflict") in values
    out = capsys.readouterr().out
    assert "bootstrap CI" in out


def test_example_prams_seed_moves_nothing(tmp_path):
    base = ["example-prams", "--resamples", "2000", "--delta0-list", "0.05,0.087"]
    reports = []
    for seed, draws in (("1", "1"), ("2", "500000")):  # --mc-draws has no effect
        out = tmp_path / seed
        assert run(base + ["--seed", seed, "--mc-draws", draws, "--out-dir", str(out)]) == 0
        reports.append({(r[0], r[1]): r[2] for r in read_csv(out / "prams_report.csv")[1:]})
    assert reports[0] == reports[1]
    tip = float(reports[0][("tipping_point", "standardized-conflict")])
    assert tip == pytest.approx(0.0902580796, abs=1e-9)
    # the interval is the bootstrap's exact limit; --resamples is only echoed
    assert (reports[0][("ci_lo", "rate")], reports[0][("ci_hi", "rate")]) == ("0.334410993353", "0.449365182374")
    assert reports[0][("bootstrap_resamples", "count")] == "2000"


def test_example_prams_option3_rows_are_the_library_pvalue_at_each_bound(tmp_path, monkeypatch, prams):
    # the report takes every bound on both scales in one law batch; each row is still pvalue's own float
    written = {}
    write = cli._write_csv

    def record(cfg, name, header, rows):
        written[name] = rows
        write(cfg, name, header, rows)

    monkeypatch.setattr(cli, "_write_csv", record)
    bounds = (0.005, 0.01, 0.05, 0.087, 0.2)
    assert run(["example-prams", "--delta0-list", ",".join(map(str, bounds)), "--out-dir", str(tmp_path)]) == 0
    got = {(q, scale): value for q, scale, value in written["prams_report.csv"] if q.startswith("p_option3@")}
    assert len(got) == 2 * len(bounds)
    s, theta0_st, sd = prams["st"], prams["theta0_st"], prams["cur"].sd
    for d0 in bounds:
        for scale, bound in (("standardized-conflict", d0), ("rate-conflict", d0 / sd)):
            want = testing.pvalue("dib-deltabounded", s, theta0_st, bound, 0.4)
            assert got[(f"p_option3@delta0={d0:g}", scale)] == want, (d0, scale)


def test_example_prams_writes_a_quoted_row_when_no_tipping_point_is_bracketed(tmp_path):
    # p peaks below the target on the bracket: the report still exits 0, and the
    # error text, which holds commas, goes out quoted and reads back as one cell
    argv = ["example-prams", "--resamples", "2000", "--delta0-list", "0.05", "--target-p", "0.5"]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "prams_report.csv").read_text()
    message = "no sign change on bracket: p starts at 0.03413 and peaks at 0.3997, target 0.5"
    assert text.endswith(f'tipping_point,error,"{message}"\n')
    assert read_csv(tmp_path / "prams_report.csv")[-1] == ["tipping_point", "error", message]


def test_asymptotics_check(tmp_path):
    assert (
        run(
            [
                "asymptotics-check", "--n", "500", "--m", "5000",
                "--estimators", "mle,pooled", "--h", "0", "--draws", "20000",
                "--out-dir", str(tmp_path),
            ]
        )
        == 0
    )
    rows = read_csv(tmp_path / "asymptotics_check.csv")
    assert rows[0] == ["estimator", "h", "ks_distance", "threshold", "status"]
    assert all(r[4] == "pass" for r in rows[1:])


def test_default_asymptotics_check_measures_quadrature_error(tmp_path):
    # the share-p limit law of this Gaussian model is the finite law itself, so
    # the distance is the error of the two quadratures: 1.8e-4 for ebpp at
    # h = 1.58 (its undeclared finite kink), 2.7e-6 for hdpp, <= 4e-15 elsewhere
    assert run(["asymptotics-check", "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "asymptotics_check.csv")[1:]
    assert len(rows) == 18
    assert all(r[4] == "pass" and float(r[2]) <= 2e-4 for r in rows)
    assert max(float(r[2]) for r in rows if r[0] not in ("ebpp", "hdpp")) <= 1e-14


def test_config_file_and_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 100, "m": 400, "theta_hat": 0.0, "beta_hat": 1.0,
                                  "estimators": ["pooled"]}))
    out_dir = tmp_path / "out"
    assert run(["estimate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    rows = read_csv(out_dir / "estimates.csv")
    assert rows[1][0] == "pooled"
    # explicit flag overrides the file
    assert run(
        ["estimate", "--config", str(config), "--beta-hat", "3.0", "--out-dir", str(out_dir)]
    ) == 0
    rows = read_csv(out_dir / "estimates.csv")
    assert float(rows[1][1]) == pytest.approx(0.8 * 3.0)


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"n": 100, "bogus": 1}))
    code = run(["estimate", "--config", str(config), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("DIBKIT_OUTPUT_DIR", str(tmp_path / "env_out"))
    assert run(
        ["estimate", "--theta-hat", "0", "--n", "10", "--beta-hat", "1", "--m", "10",
         "--estimators", "mle"]
    ) == 0
    assert (tmp_path / "env_out" / "estimates.csv").exists()


def test_every_echoed_config_reproduces_its_run(tmp_path, capsys):
    # the config line a run echoes is a --config file that writes the same bytes, out_dir included
    for subcommand in cli._SUBCOMMANDS:
        out_dir = tmp_path / subcommand
        argv = _ESTIMATE[1:] if subcommand == "estimate" else []
        assert run([subcommand, *argv, "--out-dir", str(out_dir)]) == 0
        echoed = capsys.readouterr().out.splitlines()[0]
        want = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        shutil.rmtree(out_dir)
        config = tmp_path / f"{subcommand}.json"
        config.write_text(echoed[len("config: "):])
        assert run([subcommand, "--config", str(config)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == echoed, subcommand
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == want, subcommand


def test_config_integral_float_and_null_read_as_flags_do(tmp_path, monkeypatch, capsys):
    # 1000.0 is the count 1000, as --n 1000 is; a null out_dir is its default, not a directory "None"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DIBKIT_OUTPUT_DIR", str(tmp_path / "env_out"))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 1000.0, "estimators": ["mle"], "grid_points": 3, "out_dir": None}))
    assert run(["srmse-curve", "--config", str(config)]) == 0
    echoed = json.loads(capsys.readouterr().out.splitlines()[0][len("config: "):])
    assert echoed["n"] == 1000 and isinstance(echoed["n"], int)
    assert echoed["out_dir"] == str(tmp_path / "env_out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["env_out", "run.json"]


def test_unknown_subcommand_is_config_error():
    assert run(["no-such-command"]) == 2


@pytest.mark.parametrize("argv", [
    ["--help"], *([name, "--help"] for name in cli._SUBCOMMANDS), [], ["no-such-command"], ["-x", "power"],
    ["power", "--no-such-option", "1"], ["power", "--n", "x"], ["power", "--estimator", "mle", "--grid-points", "3"],
])
def test_parsing_one_subcommand_prints_and_exits_as_parsing_every_one(tmp_path, monkeypatch, capsys, argv):
    # the parser with every subcommand's options, from the same builder, is the reference
    monkeypatch.setenv("COLUMNS", "80")
    argv = argv + ["--out-dir", str(tmp_path)] if "--estimator" in argv else argv
    outcomes = [(run(argv), *capsys.readouterr())]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda populated: build(list(cli._SUBCOMMANDS)))
    outcomes.append((run(argv), *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] or outcomes[0][2]


def test_the_parser_builds_the_options_of_only_the_subcommands_named():
    subparsers = cli._build_parser(["power"])._subparsers._group_actions[0].choices
    assert list(subparsers) == list(cli._SUBCOMMANDS)
    options = {name: {a.dest for a in sp._actions} for name, sp in subparsers.items()}
    assert options.pop("power") == {"help", "config", *cli._options("power")}
    assert all(dests == {"help"} for dests in options.values())


_ESTIMATE = ["estimate", "--theta-hat", "0", "--n", "100", "--beta-hat", "1", "--m", "400"]


def _case(label, argv, code, error, message):
    """An error case whose id its label fixes, so that adding or deleting a case renames no other."""
    return pytest.param(argv, code, error, message, id=f"argv{label}-{code}-{error}-{message}")


_ERROR_CASES = [
    _case(0, _ESTIMATE + ["--estimators", "ttpool", "--c", "-1"], 2, "ConfigError", "threshold c"),
    _case(1, _ESTIMATE + ["--n", "0"], 2, "ConfigError", "sample sizes"),
    _case(2, ["power", "--alpha", "1.5"], 2, "ConfigError", "alpha"),
    _case(3, ["bayes-risk-table", "--nodes", "10"], 2, "ConfigError", "nodes"),
    _case(4, _ESTIMATE + ["--theta-hat", "nan"], 2, "ConfigError", "finite"),
    _case(
        5, ["srmse-curve", "--n", "1", "--m", "1", "--estimators", "lstp",
            "--grid-points", "2", "--sqrt-n-delta-max", "1e300"],
        3, "NodeEvaluationError", "non-finite estimate",
    ),
    _case(6, ["estimate", "--config", "{bad_config}"], 2, "ConfigError", "config key 'n'"),
    _case(7, ["densities", "--sqrt-n-delta", "nan", "--estimators", "ammse"], 2, "ConfigError", "finite"),
    _case(8, ["srmse-curve", "--sqrt-n-delta-max", "nan"], 2, "ConfigError", "finite"),
    _case(9, ["power", "--theta", "inf"], 2, "ConfigError", "finite"),
    _case(10, ["example-prams", "--delta0-list", "0"], 2, "ConfigError", "delta0 must be positive"),
    _case(11, ["example-prams", "--sens", "-1"], 2, "ConfigError", "sensitivity"),
    _case(
        12, ["power", "--delta-max", "1e308", "--grid-points", "2", "--estimators", "mle"],
        3, "ValueError", "conflict span",
    ),
    _case(13, ["bayes-risk-table", "--n", "0"], 2, "ConfigError", "n = 0"),
    _case(14, ["power", "--n", "0"], 2, "ConfigError", "n = 0"),
    _case(15, ["srmse-curve", "--m", "0"], 2, "ConfigError", "m = 0"),
    _case(16, ["srmse-curve", "--n", "-5"], 2, "ConfigError", "n = -5"),
    _case(17, ["srmse-curve", "--grid-points", "-1"], 2, "ConfigError", "grid_points = -1"),
    _case(18, ["example-prams", "--resamples", "0"], 2, "ConfigError", "resamples = 0"),
    _case(19, ["example-prams", "--level", "1.5"], 2, "ConfigError", "level"),
    _case(20, ["example-prams", "--mc-draws", "0"], 2, "ConfigError", "mc_draws = 0"),
    _case(21, ["densities", "--workers", "0"], 2, "ConfigError", "workers = 0"),
    _case(22, ["example-prams", "--target-p", "2"], 2, "ConfigError", "target_p"),
    _case(23, _ESTIMATE + ["--estimators", "mle,gdib"],
          2, "ConfigError", "estimator id 'gdib' has no flag or default for ['g']"),
    _case(24, ["densities", "--grid-points", "1"], 2, "ConfigError", "grid_points = 1"),
    _case(25, ["example-prams", "--successes", "0"], 2, "ConfigError", "degenerate rate"),
    _case(26, ["example-prams", "--successes", "94"], 2, "ConfigError", "degenerate rate"),
    _case(27, ["asymptotics-check", "--draws", "0"], 2, "ConfigError", "draws = 0"),
    _case(
        28, ["asymptotics-check", "--estimators", "mle,alasso"],
        2, "ConfigError", "no closed limit law implemented for 'alasso'",
    ),
    _case(29, _ESTIMATE + ["--n", "1" + "0" * 400], 2, "ConfigError", "2**53], got n = 1000"),
    _case(30, ["power", "--n", "1" + "0" * 400], 2, "ConfigError", "2**53], got n = 1000"),
    _case(31, _ESTIMATE + ["--n", str(10**200), "--m", str(10**200)], 2, "ConfigError", "2**53], got n = 1000"),
    _case(32, ["srmse-curve", "--m", str(2**53 + 1)], 2, "ConfigError", f"m = {2**53 + 1}"),
    _case(33, ["estimate", "--config", "{huge_config}"], 2, "ConfigError", "config key 'n'"),
    _case(34, ["estimate", "--config", "{long_config}"], 2, "ConfigError", "integer string conversion"),
    _case(35, ["estimate", "--config", "{malformed_config}"], 2, "ConfigError", "Expecting value"),
    _case(36, ["bayes-risk-table", "--estimators", ""], 2, "ConfigError", "estimators must list"),
    _case(37, ["bayes-risk-table", "--priors", " "], 2, "ConfigError", "priors must list"),
    _case(38, ["densities", "--sqrt-n-delta", ""], 2, "ConfigError", "sqrt_n_delta must list"),
    _case(39, ["asymptotics-check", "--h", ""], 2, "ConfigError", "h must list"),
    _case(40, ["srmse-curve", "--config", "{empty_config}"], 2, "ConfigError", "estimators must list"),
    _case(41, ["power", "--convention", "bogus"],
          2, "ConfigError", "known: ['all-delta', 'delta-bounded', 'delta-zero']"),
    _case(42, _ESTIMATE + ["--estimators", "lstp", "--v", "1" + "0" * 400],
          2, "ConfigError", "between 3 and the largest float"),
    _case(43, ["srmse-curve", "--estimators", "lstp", "--v", "1" + "0" * 400],
          2, "ConfigError", "between 3 and the largest float"),
    _case(44, _ESTIMATE + ["--config", "{huge_v_config}"], 2, "ConfigError", "between 3 and the largest float"),
    _case(
        45, ["estimate", "--theta-hat", "1e308", "--n", "1", "--beta-hat=-1e308", "--m", "1",
            "--estimators", "mle,pooled"],
        2, "ConfigError", "their conflict beta_hat - theta_hat must be finite",
    ),
    _case(46, ["power", "--theta0", "1e308", "--theta", "1e308"], 2, "ConfigError", "theta0 + theta must be finite"),
    _case(47, ["estimate", "--config", "{dir}"], 2, "IsADirectoryError", "Is a directory"),
    _case(48, _ESTIMATE + ["--out-dir", "{bad_config}"],
          2, "FileExistsError", "File exists"),  # a file, not a directory
    _case(49, _ESTIMATE + ["--out-dir", "{bad_config}/sub"], 2, "NotADirectoryError", "Not a directory"),
    _case(50, ["example-prams", "--external-rate", "1e305"], 2, "ConfigError", "external_rate must lie in [0, 1]"),
    _case(51, ["example-prams", "--external-rate=-0.1"], 2, "ConfigError", "external_rate must lie in [0, 1]"),
    _case(52, ["srmse-curve", "--nodes", str(10**6)], 2, "ConfigError", "or in [64, 4096], got 1000000"),
    _case(53, ["bayes-risk-table", "--nodes", "4097"], 2, "ConfigError", "or in [64, 4096], got 4097"),
    _case(
        54, ["srmse-curve", "--n", "1", "--m", "1", "--estimators", "pooled",
            "--grid-points", "3", "--sqrt-n-delta-max", "1e300"],
        3, "FloatingPointError", "MSE of pooled at conflict 5e+299",
    ),
    _case(
        55, ["estimate", "--theta-hat", "0", "--n", "100", "--beta-hat", "1e200", "--m", "400",
            "--estimators", "lstp"],
        3, "FloatingPointError", "non-finite estimate from lstp",
    ),
    _case(
        56, ["example-prams", "--successes", "400000", "--trials", "1000000"],
        2, "ConfigError", "11167840 (k, j) points, above the cap of 1048576",
    ),
    _case(57, ["example-prams", "--level", "0"], 2, "ConfigError", "level must lie in (0, 1)"),
    _case(58, ["power", "--delta-max=-1"],
          2, "ConfigError", "delta_max must be 0 (convention default) or positive, got -1"),
    _case(59, ["asymptotics-check", "--threshold=-1"], 2, "ConfigError", "threshold must be non-negative, got -1"),
    _case(60, ["srmse-curve", "--config", "{fractional_n_config}"],
          2, "ConfigError", "config key 'n' must be an integer"),
    _case(61, ["srmse-curve", "--config", "{bool_grid_config}"],
          2, "ConfigError", "config key 'grid_points' must not be a boolean"),
    _case(62, ["power", "--config", "{bool_theta_config}"],
          2, "ConfigError", "config key 'theta' must not be a boolean"),
    _case(63, ["power", "--config", "{number_svg_config}"], 2, "ConfigError", "config key 'svg' must be a boolean"),
    _case(64, ["power", "--config", "{other_subcommand_config}"], 2, "ConfigError",
          "config key 'subcommand' must be 'power', got 'srmse-curve'"),
    _case(65, ["power", "--config", "{null_seed_config}"], 2, "ConfigError", "config key 'seed' must not be null"),
    _case(66, ["asymptotics-check", "--config", "{word_h_config}"],
          2, "ConfigError", "config key 'h': could not convert"),
    _case(67, ["bayes-risk-table", "--priors", "pi9"], 2, "ConfigError", "unknown priors"),
    _case(68, ["power", "--config", "{array_config}"], 2, "ConfigError", "must hold a JSON object"),
    _case(69, ["power", "--alpha", "1e-300"], 2, "ConfigError", "1 - alpha is below 1, got 1e-300"),
]


@pytest.mark.parametrize("argv, code, error, message", _ERROR_CASES)
def test_exit_codes_and_error_record(tmp_path, capsys, argv, code, error, message):
    configs = {
        "bad_config": json.dumps({"n": "abc"}),  # a value that fails conversion
        "huge_config": json.dumps({"n": float("inf")}),  # JSON Infinity, which no int holds
        "long_config": '{"n": 1' + "0" * 5000 + "}",  # past Python's int conversion limit
        "empty_config": json.dumps({"estimators": []}),
        "malformed_config": '{"n": ',
        "huge_v_config": '{"estimators": ["lstp"], "v": 1' + "0" * 400 + "}",
        "fractional_n_config": json.dumps({"n": 1000.7}),
        "bool_grid_config": json.dumps({"grid_points": True}),
        "bool_theta_config": json.dumps({"theta": True}),
        "number_svg_config": json.dumps({"svg": 1}),
        "other_subcommand_config": json.dumps({"subcommand": "srmse-curve"}),
        "null_seed_config": json.dumps({"seed": None}),
        "word_h_config": json.dumps({"h": ["abc"]}),
        "array_config": json.dumps([1, 2]),
    }
    for name, text in configs.items():
        (tmp_path / f"{name}.json").write_text(text)
    paths = {name: tmp_path / f"{name}.json" for name in configs}
    argv = [a.format(dir=tmp_path, **paths) for a in argv]
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path)]
    assert run(argv) == code
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == error
    assert message in record["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the result or its error record is all the run reports
@pytest.mark.parametrize(
    "argv, code",
    [pytest.param(*case.values[:2], id=case.id) for case in _ERROR_CASES if case.values[1] == 3]
    + [(["estimate", "--theta-hat", "0", "--n", "100", "--beta-hat", "1e-310", "--m", "400",
         "--estimators", "alasso"], 0)],
)
def test_no_numpy_warning_ahead_of_a_numerical_result(tmp_path, argv, code):
    assert run(argv + ["--out-dir", str(tmp_path)]) == code
    if code == 0:  # alasso's threshold overflows to inf, which leaves the current mean alone
        assert read_csv(tmp_path / "estimates.csv")[1][:2] == ["alasso", "8e-311"]


# the common options each subcommand accepts but does not read, and a small config of each
_IGNORED = {
    "estimate": (_ESTIMATE, ("seed", "svg", "workers", "full_fidelity")),
    "srmse-curve": (["srmse-curve", "--estimators", "mle,ttpool", "--grid-points", "3"],
                    ("seed", "workers", "full_fidelity")),
    "bayes-risk-table": (["bayes-risk-table", "--estimators", "ammse", "--priors", "pi1"],
                         ("seed", "svg", "workers", "full_fidelity")),
    "power": (["power", "--estimators", "ammse", "--grid-points", "3"], ("seed", "workers", "full_fidelity")),
    "densities": (["densities", "--estimators", "ammse", "--sqrt-n-delta", "1.58", "--grid-points", "4"],
                  ("seed", "workers", "full_fidelity")),
    "example-prams": (["example-prams", "--resamples", "1000", "--delta0-list", "0.05"],
                      ("seed", "svg", "workers", "full_fidelity")),
    "asymptotics-check": (["asymptotics-check", "--estimators", "ammse", "--h", "1.58"],
                          ("seed", "svg", "workers", "full_fidelity")),
}
_SECOND_VALUE = {"seed": ["--seed", "7"], "svg": ["--svg"], "workers": ["--workers", "2"],
                 "full_fidelity": ["--full-fidelity"]}


@pytest.mark.parametrize("subcommand", list(_IGNORED))
def test_ignored_common_options_write_the_same_bytes_and_say_so(tmp_path, capsys, subcommand):
    argv, ignored = _IGNORED[subcommand]
    assert run(argv + ["--out-dir", str(tmp_path / "default")]) == 0
    want = {p.name: p.read_bytes() for p in (tmp_path / "default").iterdir()}
    for name in ignored:
        out = tmp_path / name
        assert run(argv + _SECOND_VALUE[name] + ["--out-dir", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == want, name
    capsys.readouterr()
    assert run([subcommand, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for opt in cli._COMMON[1:]:  # every common option but --out-dir
        said = re.search(rf"--{opt.name.replace('_', '-')}( [A-Z_]+)? accepted; has no effect", text)
        assert bool(said) == (opt.name in ignored), opt.name


@pytest.mark.parametrize("n, m", [(100, 400), (1, 1)])
def test_estimate_lstp_at_the_largest_degrees_of_freedom(tmp_path, n, m):
    # v = 1.7e308 overflowed the mode's cubic and wrote nan with exit code 0; the t
    # prior is normal to rounding there, so the mode is m / (n + 2m) delta_hat
    argv = ["estimate", "--theta-hat", "0", "--n", str(n), "--beta-hat", "1", "--m", str(m),
            "--estimators", "lstp", "--v", "17" + "0" * 307, "--out-dir", str(tmp_path)]
    assert run(argv) == 0
    row = read_csv(tmp_path / "estimates.csv")[1]
    assert row[0] == "lstp" and float(row[2]) == pytest.approx(m / (n + 2 * m), rel=1e-12)

def _src_env():
    src = str(Path(dibkit.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("module", ["dibkit", "dibkit.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "--help"], capture_output=True, text=True,
        env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0
    assert "densities" in proc.stdout


def test_every_public_name_resolves():
    modules = [dibkit] + [
        importlib.import_module(f"dibkit.{info.name}")
        for info in pkgutil.iter_modules(dibkit.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    missing = [
        f"{mod.__name__}.{name}" for mod in modules for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)
    ]
    assert len(modules) > 1 and missing == []


def test_import_leaves_scipy_optimize_unloaded():
    # quantiles and the tipping point use dibkit's own bracketed solver
    code = "import sys, dibkit, dibkit.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone takes about half of the import time
    code = "import sys, dibkit, dibkit.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "header, rows",
    [
        (["a", "b", "c"], [["x", 1.5, np.float64(-2e-300)], [None, float("nan"), float("-inf")], ["y", 7, True]]),
        (["a", "b"], [['say "hi"', 0.1], ["x,y", 2.0], ["line\nbreak", 3.0], ["cr\r", 4.0]]),
        (["a", "b"], [["", ""], [" padded ", np.float32(0.1)]]),
        (["a", "b", "c"], [["ragged", 1.0], ["row", 2.0, 3.0, 4.0]]),
        (["only"], [[""], ["x"], [1.25]]),
        (["a", "b"], []),
    ],
)
def test_csv_text_is_what_csv_writer_writes(header, rows):
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cli._fmt(v) for v in row])
    assert cli._csv_text(header, rows) == want.getvalue()
