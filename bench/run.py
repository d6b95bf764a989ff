"""Benchmark for dibkit: artifact times end to end, per-layer self time traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload quadrature --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py``): ``quadrature`` (bayes-risk-table,
srmse-curve), ``testing`` (power, example-prams, a scalar estimate sweep) and
``simulation`` (densities, asymptotics-check).  Each run is one fresh
process with BLAS pinned to one thread and ``--workers 1``.

With ``--trace 0`` the run measures set-up time (import of ``dibkit`` and
``dibkit.cli`` in fresh interpreters, median of several), then cycles over
the workload's steps for about ``--seconds`` seconds.  Step times are
reported in seconds on the report lines and, in the JSON line, as seconds
adjusted by a fixed probe timed next to every sample (see ``PROBE_REF_S``).  With ``--trace 1``
it makes one untraced and one traced pass and reports the per-layer metrics
of the traced one, plus the tracing overhead.  Every step run is checked
against ``reference.json`` and counts as one op.

Human-readable lines come first; the last line of stdout is the JSON result.
Spans and the full result are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

BLAS_THREADS = 1
_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 3
SETUP_SNIPPET = "import dibkit, dibkit.cli"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: str(BLAS_THREADS) for v in _BLAS_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> list[float]:
    """Wall time of importing dibkit and its CLI in fresh interpreters."""
    env = _child_env()
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dibkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_thread_cap": BLAS_THREADS,
    }


class Runner:
    """Runs a workload's steps, times them, and checks every output."""

    def __init__(self, workload: str, seed: int) -> None:
        import checks
        import workloads

        self.checks = checks
        self.workloads = workloads
        self.steps = workloads.WORKLOADS[workload]
        self.seed = seed
        self.reference = checks.load_reference()
        self.scratch = os.path.join(OUT, f"{workload}-{os.getpid()}")
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []
        self.csv_bytes = 0

    def run_step(self, step, rep: int, tracer=None) -> tuple[float, float | None]:
        """Run, time and check one step; returns its wall time and, for the
        estimate sweep, its call rate.  The check is neither timed nor traced."""
        if tracer is not None:
            tracer.step, tracer.repetition = step.name, rep
            tracer.install()
        rate = None
        try:
            if step.name == "estimate-sweep":
                sweep, elapsed = self.workloads.run_sweep(self.seed)
                rate = len(sweep.configs) * len(sweep.summaries) / elapsed
            else:
                out_dir = os.path.join(self.scratch, f"{step.name}-{rep}")
                cfg = self.workloads.step_config(step.name, self.seed)
                rc, elapsed = self.workloads.run_cli_step(step.name, cfg, out_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if step.name == "estimate-sweep":
            found = self.checks.check_sweep(sweep, self.reference)
        else:
            found = self.checks.check_step(step.name, rc, out_dir, self.reference)
            self.csv_bytes += sum(
                os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir) if f.endswith(".csv")
            )
            shutil.rmtree(out_dir, ignore_errors=True)
        self.ops += 1
        self.failed += bool(found)
        self.problems += found
        return elapsed, rate

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def probe() -> float:
    """Wall time of a fixed mix of bulk and small-array NumPy work (~0.1 s).

    On a shared host the speed switches between a fast and a slow state for
    seconds to minutes at a time.  The probe, timed right before and right
    after every step sample, sees the state that sample ran in.
    """
    import numpy as np
    from numpy.polynomial.legendre import leggauss
    from scipy.special import ndtr

    x = np.linspace(-4.0, 4.0, 50_000)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(18):
        acc += float(np.sort(np.sin(x)).sum() + ndtr(x).sum() + np.exp(-x * x).sum())
    for _ in range(100):
        acc += float(leggauss(12)[1].sum())
    for _ in range(3000):
        acc += float(np.linspace(0.0, acc % 1.0, 13).sum())
    return time.perf_counter() - start


# In every cycle after the first, a step shorter than this is repeated until
# its samples in the cycle add up to about this long, so short steps get many
# samples.
STEP_QUANTUM_S = 2.0

# Step times are reported as adjusted seconds, t * sqrt(PROBE_REF_S / p), with
# p the mean of the probes around the sample.  In the slow host state the
# probe slows about 1.7x, power about 1.5x and bayes-risk-table about 1.1x.
# Dividing by the whole probe ratio would overcorrect bayes-risk-table about
# as much as raw seconds leave power uncorrected; the square root splits it.
PROBE_REF_S = 0.1


def _adjusted(seconds: float, probe_s: float) -> float:
    return seconds * math.sqrt(PROBE_REF_S / probe_s)


def run_untraced(runner: Runner, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
    """Set-up time, then cycles over the steps for about ``seconds``.

    A step reports the median of its adjusted samples, and ``wall_adj_s``
    (one full pass) the sum of those medians over the steps.
    """
    setup = measure_setup()
    raw: dict[str, list[float]] = {step.metric: [] for step in runner.steps}
    adj: dict[str, list[float]] = {step.metric: [] for step in runner.steps}
    probes = [probe()]
    rates: list[float] = []
    cycles = 0
    start = time.perf_counter()
    cycle_start = start
    while True:
        for step in runner.steps:
            done = raw[step.metric]
            repeats = 1 if not done else max(1, round(STEP_QUANTUM_S / _median(done)))
            for _ in range(repeats):
                elapsed, rate = runner.run_step(step, len(done))
                probes.append(probe())
                done.append(elapsed)
                adj[step.metric].append(_adjusted(elapsed, 0.5 * (probes[-2] + probes[-1])))
                if rate is not None:
                    rates.append(rate)
        cycles += 1
        now = time.perf_counter()
        # stop unless another cycle as long as the last one still fits
        if (now - start) + (now - cycle_start) > seconds:
            break
        cycle_start = now
    per_step = {k: _median(v) for k, v in raw.items()}
    per_step_adj = {k[: -len("_s")] + "_adj_s": _median(v) for k, v in adj.items()}
    first, second = runner.steps[0].metric, runner.steps[1].metric
    metrics = {
        "setup_s": _median(setup),
        "wall_adj_s": sum(per_step_adj.values()),
        "primary_step_adj_s": _median(adj[first]),
        "secondary_step_adj_s": _median(adj[second]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_step["wall_s"] = sum(per_step.values())
    if rates:
        per_step["estimate_calls_per_s"] = _median(rates)
    detail = {
        "cycles": cycles,
        "samples": {k: len(v) for k, v in raw.items()},
        "setup_samples": setup,
        "probe_s": _median(probes),
        "per_step_medians": dict(per_step, **per_step_adj),
        "raw": raw,
        "probes": probes,
    }
    return metrics, detail


def run_traced(runner: Runner, workload: str) -> tuple[dict[str, float], dict[str, Any]]:
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    import spans

    tracer = spans.Tracer(workload)
    untraced = {step.name: runner.run_step(step, 0)[0] for step in runner.steps}
    traced = {step.name: runner.run_step(step, 1, tracer)[0] for step in runner.steps}
    recorded = tracer.finished()
    metrics = spans.summarize(recorded, tracer.counters, tracer.distinct_addresses(), tracer.names)
    metrics["cli.csv_bytes"] = runner.csv_bytes / 2  # per pass; both passes write the same files
    metrics["trace.wall_s"] = sum(traced.values())
    metrics["trace.overhead_s"] = sum(traced.values()) - sum(untraced.values())
    by_step = {}
    for step in runner.steps:
        by_step[step.name] = {
            k: v
            for k, v in spans.summarize(recorded, {}, 0, step=step.name).items()
            if k.endswith(".calls") or k in ("risk.panel_passes", "testing.sampling_cdf_per_quantile")
        }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{runner.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for s in recorded:
            fh.write(json.dumps(s.__dict__) + "\n")
    detail = {"untraced": untraced, "traced": traced, "counts_by_step": by_step, "spans_file": path}
    return metrics, detail


def _metric_specs(trace: bool) -> list[dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dibkit", "__init__.py")):
        print(f"error: no dibkit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: str(BLAS_THREADS) for v in _BLAS_VARS})  # before numpy loads
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    specs = _metric_specs(bool(args.trace))
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            values, detail = run_traced(runner, args.workload)
        else:
            values, detail = run_untraced(runner, args.seconds)
    finally:
        runner.close()

    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    env = environment()
    failed = runner.failed
    result = {"correct": failed == 0, "attempted": runner.ops, "failed": failed, "metrics": metrics}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        for step, counts in detail["counts_by_step"].items():
            print(f"  [{step}] " + "  ".join(f"{k}={v:g}" for k, v in sorted(counts.items())))
    else:
        print(f"  cycles {detail['cycles']}  setup samples {len(detail['setup_samples'])}"
              f"  probe {detail['probe_s']:.4f} s (median of {len(detail['probes'])})")
        for k, v in detail["per_step_medians"].items():
            unit = "1/s" if k.endswith("_per_s") else "s"
            count = detail["samples"].get(k.removesuffix("_adj_s") + "_s", "all steps")
            print(f"  {k} = {v:.4f} {unit} (median of {count})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  ops {runner.ops}  ops_failed {failed}")
    for p in runner.problems[:20]:
        print(f"  FAIL {p}")
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, "env": env, "detail": detail, "problems": runner.problems}, fh,
                  indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
