"""Tests of the benchmark itself: span arithmetic, the output checker, and a
tiny-config pass of every workload.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import functools
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, "w", 0, "step")


# -- self time ---------------------------------------------------------------


def test_self_time_of_nested_spans():
    recorded = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.5, parent=1),
        _span("b", 5.0, 6.0, parent=0),
        _span("c", 8.0, 9.5, parent=0),
    ]
    assert spans.self_times(recorded) == pytest.approx([4.5, 1.5, 1.5, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    recorded = [
        _span("root", 0.0, 10.0),
        _span("x", 2.0, 6.0, parent=0),
        _span("y", 4.0, 7.0, parent=0),  # overlaps x: union covers 2..7
        _span("z", 9.0, 12.0, parent=0),  # only 9..10 lies inside the root
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summarize_aggregates_calls_self_time_and_ratios():
    recorded = [
        _span("risk.integrated_srmse", 0.0, 3.0),
        _span("risk.srmse_batch", 0.0, 1.0, parent=0),
        _span("risk.srmse_batch", 1.0, 2.0, parent=0),
        _span("testing.null_quantile", 3.0, 4.0),
        _span("testing.sampling_cdf", 3.0, 3.2, parent=3),
        _span("testing.sampling_cdf", 3.2, 3.4, parent=3),
        _span("testing.sampling_cdf", 3.4, 3.6, parent=3),
    ]
    out = spans.summarize(recorded, {"streams.draws": 10.0}, 4)
    assert out["risk.srmse_batch.calls"] == 2
    assert out["risk.integrated_srmse.self_s"] == pytest.approx(1.0)
    assert out["risk.panel_passes"] == 2
    assert out["testing.sampling_cdf_per_quantile"] == 3
    assert out["streams.distinct_draw_ratio"] == pytest.approx(0.4)


def test_tracer_patches_every_binding_and_restores_them():
    import dibkit
    from dibkit import estimators, montecarlo, risk, testing

    original = estimators.conflict_correction
    tracer = spans.Tracer("w")
    with tracer:
        for mod in (estimators, risk, testing, montecarlo):
            assert mod.conflict_correction is not original
        assert testing.leggauss is not risk.leggauss
        dibkit.estimate(dibkit.Pooled(), dibkit.TwoSampleSummary(0.0, 10, 1.0, 40))
    for mod in (estimators, risk, testing, montecarlo):
        assert mod.conflict_correction is original
    assert testing.leggauss is risk.leggauss
    assert [s.name for s in tracer.finished()] == ["estimators.estimate", "estimators.est_pooled"]


# -- the checker -------------------------------------------------------------


def _csv_from_reference(filename, rows):
    """CSV text whose values are the reference values themselves."""
    keys = checks.KEYS[filename]
    columns = list(next(iter(rows.values())))
    lines = [",".join(keys + tuple(columns))]
    for key, values in rows.items():
        cells = [v if isinstance(v, str) else repr(v[0]) for v in values.values()]
        lines.append(",".join(key.split("|") + cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "step, filename",
    [("bayes-risk-table", "bayes_risk_table.csv"), ("densities", "densities_quantiles.csv")],
)
def test_checker_fails_one_value_perturbed_past_tolerance(step, filename):
    reference = checks.load_reference()[step][filename]
    assert checks.check_table(filename, _csv_from_reference(filename, reference), reference) == []

    key = sorted(reference)[3]
    column = next(c for c, v in reference[key].items() if not isinstance(v, str))
    ref, tol = reference[key][column]
    for factor, expect in ((0.5, 0), (2.0, 1)):
        perturbed = copy.deepcopy(reference)
        perturbed[key][column] = [ref + factor * tol, tol]
        text = _csv_from_reference(filename, perturbed)
        assert len(checks.check_table(filename, text, reference)) == expect


def test_checker_fails_missing_and_extra_rows(tmp_path):
    filename = "bayes_risk_table.csv"
    reference = checks.load_reference()["bayes-risk-table"][filename]
    fewer = dict(list(reference.items())[1:])
    assert "missing" in checks.check_table(filename, _csv_from_reference(filename, fewer), reference)[0]
    more = dict(reference, **{"mle|pi9": next(iter(reference.values()))})
    assert "extra" in checks.check_table(filename, _csv_from_reference(filename, more), reference)[0]


def test_checker_fails_nonzero_exit_and_extra_file(tmp_path):
    ref = checks.load_reference()
    assert checks.check_step("srmse-curve", 3, str(tmp_path), ref) == ["srmse-curve: exit code 3"]
    (tmp_path / "stray.csv").write_text("x\n")
    problems = checks.check_step("srmse-curve", 0, str(tmp_path), ref)
    assert "srmse-curve: missing file srmse_curve.csv" in problems
    assert "srmse-curve: extra file stray.csv" in problems


def test_status_column_checked_against_its_own_distance():
    text = "estimator,h,ks_distance,threshold,status\nmle,0,0.05,0.02,pass\n"
    table = checks.keyed_table("asymptotics_check.csv", text)
    assert table["mle|0"]["status"] == "inconsistent"


# -- tiny-config pass of each workload -----------------------------------------

TINY = {
    "bayes-risk-table": {"estimators": ["mle", "ammse", "lstp"], "priors": ["pi1"]},
    "srmse-curve": {"estimators": ["mle", "lstp"], "grid_points": 3},
    "power": {"estimators": ["mle", "ammse"], "grid_points": 3},
    "example-prams": {"resamples": 1000, "mc_draws": 2000, "delta0_list": [0.05]},
    "densities": {"estimators": ["mle", "ammse"], "sqrt_n_delta": [0.0], "replicates": 500, "grid_points": 16},
    "asymptotics-check": {"estimators": ["mle", "pooled"], "h": [1.58], "draws": 500, "threshold": 1.0},
}


@pytest.fixture
def tiny(monkeypatch):
    original = workloads.step_config
    monkeypatch.setattr(workloads, "step_config", lambda step, seed: dict(original(step, seed), **TINY[step]))
    monkeypatch.setattr(workloads, "run_sweep", functools.partial(workloads.run_sweep, count=3))


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_pass_of_each_workload(workload, tiny, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    runner = run.Runner(workload, seed=5)
    metrics, detail = run.run_traced(runner, workload)
    runner.close()
    assert runner.ops == 2 * len(workloads.WORKLOADS[workload])
    # tiny configs cannot match the default-config reference rows; they must still run
    assert not [p for p in runner.problems if "exit code" in p or "file" in p]
    assert set(_per_layer_names()) <= set(metrics)
    assert metrics["cli.self_s"] > 0
    assert metrics["trace.wall_s"] > 0
    again = run.Runner(workload, seed=5)
    assert run.run_traced(again, workload)[1]["counts_by_step"] == detail["counts_by_step"]
    again.close()


def test_untraced_run_prints_the_contract_line(tiny, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    assert run.main(["--workload", "testing", "--seed", "2", "--seconds", "0.1", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert last["attempted"] == 3


def test_default_configs_give_the_recorded_counts(monkeypatch, tmp_path):
    """Counts of the default power, bayes-risk-table and srmse-curve steps."""
    runner = run.Runner("quadrature", seed=9)
    monkeypatch.setattr(runner, "scratch", str(tmp_path))
    tracer = spans.Tracer("quadrature")
    for step in workloads.WORKLOADS["quadrature"] + workloads.WORKLOADS["testing"][:1]:
        runner.run_step(step, 0, tracer)
    assert runner.problems == []
    counts = {
        step: spans.summarize(tracer.finished(), {}, 0, step=step)
        for step in ("bayes-risk-table", "srmse-curve", "power")
    }
    assert counts["bayes-risk-table"]["estimators.conflict_correction.calls"] == 36_432
    assert counts["srmse-curve"]["estimators.conflict_correction.calls"] == 451
    power = counts["power"]
    assert power["testing.leggauss.calls"] == power["estimators.conflict_correction.calls"] == 7_255
    assert power["testing.sampling_cdf.calls"] == 6_886


def test_benchmark_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "quadrature", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
