"""Regenerate ``reference.json`` from the dibkit sources in this checkout.

    python3 bench/make_reference.py

Steps without random draws run on two workload seeds, and every value must
agree exactly between them.  Steps with Monte Carlo columns run on
``MC_SEEDS`` seeds: the reference is the mean across seeds.  The tolerance is
the larger of ``MC_SIGMAS`` standard deviations (widened for the error of the
mean) and 1.5 times the range seen, plus a small floor.  The wide margin
keeps a false failure unlikely over the hundreds of Monte Carlo values that
one benchmark session checks, also for statistics with heavy tails.  Run it
only when a change to the program is meant to change its outputs, and say
so in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from run import _BLAS_VARS, BLAS_THREADS  # noqa: E402  (stdlib only, no numpy)

os.environ.update({v: str(BLAS_THREADS) for v in _BLAS_VARS})  # same BLAS as the benchmark

import checks  # noqa: E402
import workloads  # noqa: E402

DET_SEEDS = (101, 102)
MC_SEEDS = tuple(range(201, 225))
MC_STEPS = ("example-prams", "densities", "asymptotics-check")
SWEEP_REFERENCE_SEED = 7
SWEEP_REFERENCE_SUMMARIES = 40
# Smallest tolerance on a Monte Carlo value: a p-value from 2e5 draws moves in
# steps of 5e-6, and quantiles and KS distances are far coarser than 1e-6.
MC_FLOOR = 1e-5


def _tables(step: str, seed: int, scratch: str) -> dict[str, dict[str, dict[str, str]]]:
    out_dir = os.path.join(scratch, f"{step}-{seed}")
    rc, _ = workloads.run_cli_step(step, workloads.step_config(step, seed), out_dir)
    if rc != 0:
        raise SystemExit(f"{step} exited with {rc} on seed {seed}")
    tables = {}
    for filename in checks.STEP_FILES[step]:
        with open(os.path.join(out_dir, filename), encoding="utf-8") as fh:
            tables[filename] = checks.keyed_table(filename, fh.read())
    shutil.rmtree(out_dir)
    return tables


def _numeric(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _reference_value(filename: str, key: str, column: str, texts: list[str]) -> object:
    values = [_numeric(t) for t in texts]
    if any(v is None for v in values):
        if len(set(texts)) != 1:
            raise SystemExit(f"{filename} {key} {column}: text differs across seeds: {set(texts)}")
        return texts[0]
    if (filename, column) in checks.FIXED_REFERENCE:
        return checks.FIXED_REFERENCE[(filename, column)]
    if checks.is_mc(filename, key, column):
        mean = statistics.fmean(values)
        sd = statistics.stdev(values)
        spread = max(checks.MC_SIGMAS * sd * math.sqrt(1.0 + 1.0 / len(values)),
                     1.5 * (max(values) - min(values)))
        return [mean, spread + MC_FLOOR]
    if len(set(values)) != 1:
        raise SystemExit(f"{filename} {key} {column}: deterministic value differs: {values}")
    ref = values[0]
    return [ref, 0.0 if math.isinf(ref) else checks.DET_REL_TOL * abs(ref) + checks.DET_ABS_TOL]


def build() -> dict:
    scratch = os.path.join(os.path.dirname(BENCH), ".bench_out", "reference")
    steps: dict[str, dict] = {}
    for step in checks.STEP_FILES:
        seeds = MC_SEEDS if step in MC_STEPS else DET_SEEDS
        runs = []
        for seed in seeds:
            runs.append(_tables(step, seed, scratch))
            print(f"{step} seed {seed}", flush=True)
        steps[step] = {}
        for filename in checks.STEP_FILES[step]:
            keys = set(runs[0][filename])
            for r in runs[1:]:
                if set(r[filename]) != keys:
                    raise SystemExit(f"{filename}: row keys differ across seeds")
            steps[step][filename] = {
                key: {
                    column: _reference_value(
                        filename, key, column, [r[filename][key][column] for r in runs]
                    )
                    for column in runs[0][filename][key]
                }
                for key in sorted(keys)
            }
    sweep, _ = workloads.run_sweep(SWEEP_REFERENCE_SEED, SWEEP_REFERENCE_SUMMARIES)
    steps["estimate-sweep"] = {"seed": SWEEP_REFERENCE_SEED, "theta_est": sweep.results}
    shutil.rmtree(scratch, ignore_errors=True)
    return {
        "about": "Reference outputs of dibkit at its default desk-scale configs; see make_reference.py.",
        "det_seeds": DET_SEEDS,
        "mc_seeds": MC_SEEDS,
        "steps": steps,
    }


if __name__ == "__main__":
    reference = build()
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")
