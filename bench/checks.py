"""Output checks: every artifact a step writes against stored reference values.

A step is one op.  It fails on a nonzero exit code, on a missing or extra
file or CSV row, or on a value outside its tolerance of ``reference.json``.
Deterministic columns (quadrature risks, exact-CDF critical values and
power, point estimates) carry tight tolerances.  Monte Carlo columns carry a
tolerance of several Monte Carlo standard deviations, measured across the
reference seeds, so the check holds on seeds the reference never used.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Any

import dibkit
import numpy as np
from dibkit.estimators import conflict_correction, estimator_id

from workloads import SweepResult, sweep_summaries

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

STEP_FILES: dict[str, tuple[str, ...]] = {
    "bayes-risk-table": ("bayes_risk_table.csv",),
    "srmse-curve": ("srmse_curve.csv",),
    "power": ("power.csv",),
    "example-prams": ("prams_report.csv",),
    "densities": ("densities.csv", "densities_quantiles.csv"),
    "asymptotics-check": ("asymptotics_check.csv",),
}

KEYS: dict[str, tuple[str, ...]] = {
    "bayes_risk_table.csv": ("estimator", "prior"),
    "srmse_curve.csv": ("estimator", "sqrt_n_delta"),
    "power.csv": ("estimator", "delta"),
    "prams_report.csv": ("quantity", "scale"),
    "densities.csv": ("estimator", "sqrt_n_delta_scenario"),
    "densities_quantiles.csv": ("estimator", "sqrt_n_delta_scenario", "prob"),
    "asymptotics_check.csv": ("estimator", "h"),
}

# Columns whose values depend on the master seed (Monte Carlo), per file.
# prams_report.csv mixes both kinds in one column, so its Monte Carlo rows are
# picked by quantity instead.
MC_COLUMNS: dict[str, tuple[str, ...]] = {
    "densities.csv": ("mean",),
    "densities_quantiles.csv": ("value",),
    "asymptotics_check.csv": ("ks_distance",),
}
MC_PRAMS_QUANTITIES = ("ci_lo", "ci_hi", "p_option3@", "tipping_point")

# Columns held to a fixed reference instead of one built from the seeds.  The
# trapezoid mass of a KDE curve on its 256-point grid is 1 up to grid error,
# which jumps with where the grid falls on a sharp peak (alasso), so its
# spread across a few seeds understates how far it can move.
FIXED_REFERENCE: dict[tuple[str, str], list[float]] = {("densities.csv", "mass"): [1.0, 1e-3]}

DET_REL_TOL = 1e-7
DET_ABS_TOL = 1e-9
MC_SIGMAS = 10.0


def is_mc(filename: str, key: str, column: str) -> bool:
    if filename == "prams_report.csv":
        return key.split("|")[0].startswith(MC_PRAMS_QUANTITIES)
    return column in MC_COLUMNS.get(filename, ())


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _density_stats(rows: list[dict[str, str]]) -> list[dict[str, str]]:
    """densities.csv has a seed-dependent x grid: reduce each curve to its
    point count, probability mass and mean (trapezoid rule)."""
    curves: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for r in rows:
        curves.setdefault((r["estimator"], r["sqrt_n_delta_scenario"]), []).append(
            (float(r["x"]), float(r["log_density"]))
        )
    out = []
    for (est, scen), pts in curves.items():
        x = np.array([p[0] for p in pts])
        dens = np.exp(np.array([p[1] for p in pts]))
        mass = float(np.trapezoid(dens, x))
        mean = float(np.trapezoid(x * dens, x)) / mass if mass > 0 else math.nan
        monotone = bool(np.all(np.diff(x) > 0))
        out.append(
            {
                "estimator": est,
                "sqrt_n_delta_scenario": scen,
                "points": str(len(pts)) if monotone else "non-monotone grid",
                "mass": repr(mass),
                "mean": repr(mean),
            }
        )
    return out


def _status_consistent(rows: list[dict[str, str]]) -> list[dict[str, str]]:
    """The pass/fail status may flip with the seed near the threshold, so it is
    checked against the row's own distance instead of the reference."""
    for r in rows:
        passed = float(r["ks_distance"]) <= float(r["threshold"])
        r["status"] = "consistent" if (r["status"] == "pass") == passed else "inconsistent"
    return rows


_DERIVED = {"densities.csv": _density_stats, "asymptotics_check.csv": _status_consistent}


def keyed_table(filename: str, text: str) -> dict[str, dict[str, str]]:
    """CSV text as {key: {column: text}}, after the file's derived reduction."""
    rows = _rows(text)
    rows = _DERIVED.get(filename, lambda r: r)(rows)
    keys = KEYS[filename]
    table: dict[str, dict[str, str]] = {}
    for r in rows:
        k = "|".join(r[c] for c in keys)
        if k in table:
            table[k + "|duplicate"] = r
        else:
            table[k] = {c: v for c, v in r.items() if c not in keys}
    return table


def _value_ok(got: str, want: Any) -> bool:
    if isinstance(want, str):
        return got == want
    ref, tol = want
    try:
        x = float(got)
    except ValueError:
        return False
    if math.isinf(ref) or math.isinf(x):
        return x == ref
    return abs(x - ref) <= tol


def check_table(filename: str, text: str, reference: dict[str, dict[str, Any]]) -> list[str]:
    """Problems found in one CSV, as readable lines (empty when it passes)."""
    table = keyed_table(filename, text)
    problems = []
    missing = sorted(set(reference) - set(table))
    extra = sorted(set(table) - set(reference))
    if missing:
        problems.append(f"{filename}: {len(missing)} missing rows, e.g. {missing[0]}")
    if extra:
        problems.append(f"{filename}: {len(extra)} extra rows, e.g. {extra[0]}")
    for key in sorted(set(table) & set(reference)):
        for column, want in reference[key].items():
            got = table[key].get(column)
            if got is None or not _value_ok(got, want):
                problems.append(f"{filename}: {key} {column} = {got}, reference {want}")
    return problems


def check_step(step: str, rc: int, out_dir: str, reference: dict[str, Any]) -> list[str]:
    """Problems with one CLI step's exit code and output files."""
    if rc != 0:
        return [f"{step}: exit code {rc}"]
    expected = set(STEP_FILES[step])
    present = set(os.listdir(out_dir))
    problems = [f"{step}: missing file {f}" for f in sorted(expected - present)]
    problems += [f"{step}: extra file {f}" for f in sorted(present - expected)]
    for filename in sorted(expected & present):
        with open(os.path.join(out_dir, filename), encoding="utf-8") as fh:
            problems += check_table(filename, fh.read(), reference[step][filename])
    return problems


# -- the scalar estimate sweep ------------------------------------------------


SWEEP_REL_TOL = 1e-9


def _sweep_close(got: float, want: float) -> bool:
    return abs(got - want) <= SWEEP_REL_TOL * max(1.0, abs(want))


def check_sweep(sweep: SweepResult, reference: dict[str, Any]) -> list[str]:
    """Scalar estimates against the vectorized kernel, and the stored reference batch."""
    problems = []
    for s, row in zip(sweep.summaries, sweep.results):
        for config, got in zip(sweep.configs, row):
            want = s.theta_hat + float(conflict_correction(config, np.asarray(s.delta_hat), s.n, s.m))
            if not _sweep_close(got, want):
                problems.append(f"estimate-sweep: {estimator_id(config)} on {s} = {got}, kernel {want}")
    ref = reference["estimate-sweep"]
    for s, row in zip(sweep_summaries(ref["seed"], len(ref["theta_est"])), ref["theta_est"]):
        for config, want in zip(sweep.configs, row):
            got = dibkit.estimate(config, s).theta_est
            if not _sweep_close(got, want):
                problems.append(f"estimate-sweep: {estimator_id(config)} on {s} = {got}, reference {want}")
    return problems


def load_reference(path: str = REFERENCE_PATH) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["steps"]
